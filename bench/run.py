#!/usr/bin/env python3
"""The shipsearch benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --check

--trace 0 measures the end-to-end metrics: searches through the CLI, one
per fresh process, back to back until S seconds have passed, plus a
number of cold set-ups. --trace 1 runs one untraced and one traced search
and replays recorded successor windows (the seed picks which) for the
per-layer metrics. Every search is checked (exit code, outcome, every
emitted ship re-verified at the workload's speed, deterministic counts
repeated exactly); the last line of standard output is one JSON object
with the metrics named in BENCHMARK.json. --check runs shortened searches
and checks counts and correctness only, with no timing.

Details (samples, counts, host, src/ line count) go to bench/out/.
The metric map and the reasons for each workload are in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# bytecode goes under bench/out/, so the benchmark writes nothing under src/
sys.pycache_prefix = str(OUT / "pycache")
sys.path.insert(0, str(ROOT / "src"))

from workloads import QUICK, WORKLOADS  # noqa: E402

BUDGET_S = 170  # every run, children included, ends within 180 s
SETUP_REPS = 11
MIN_SEARCHES = 2  # a median needs more than one search, even on a slow machine
SETUPS_PER_SEARCH = 3
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV.update(PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=sys.pycache_prefix)


class ChildFailed(Exception):
    pass


class Runner:
    """Starts worker.py children one at a time, within a shared deadline."""

    def __init__(self, budget_s: float):
        self.deadline = time.monotonic() + budget_s
        self.attempted = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, *args) -> dict:
        self.attempted += 1
        try:
            # run() kills and waits for the child if the timeout expires
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
                cwd=ROOT,
                env=CHILD_ENV,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            raise self.fail(f"worker {args[0]} timed out") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                return json.loads(lines[-1])
            except ValueError:
                pass
        tail = proc.stderr.strip().splitlines()[-5:]
        raise self.fail(f"worker {args[0]} exited {proc.returncode}: " + " | ".join(tail))

    def fail(self, problem: str) -> ChildFailed:
        self.problems.append(problem)
        return ChildFailed(problem)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def ship_problems(wl, out: dict, rle_text: str) -> list[str]:
    """What is wrong with one finished search, or [] when nothing is."""
    from shipsearch.pattern import classify_ship, parse_rle
    from shipsearch.rules import parse_rule

    problems = []
    if out["exit_code"] != wl.exit_code:
        problems.append(f"exit code {out['exit_code']}, expected {wl.exit_code}")
    if out["counts"].get("outcome") != wl.outcome:
        problems.append(f"outcome {out['counts'].get('outcome')}, expected {wl.outcome}")
    rule = parse_rule(wl.rule)
    chunks = [c for c in re.split(r"(?m)^(?=#C)", rle_text) if c.strip()]
    for chunk in chunks:
        try:
            pattern, file_rule = parse_rle(chunk)
        except ValueError as exc:
            problems.append(f"emitted RLE does not parse: {exc}")
            continue
        desc = classify_ship(rule, pattern, 2 * wl.period)
        if file_rule != rule or desc is None:
            problems.append("emitted pattern does not re-verify as a ship")
            continue
        moves = abs(desc.dy) if wl.translation == "orthogonal" else abs(desc.dx)
        straight = desc.dx == 0 if wl.translation == "orthogonal" else abs(desc.dx) == abs(desc.dy)
        if not straight or Fraction(moves, desc.period) != wl.speed:
            problems.append(f"emitted ship moves at {desc.speed_text()}, expected {wl.speed}")
    if len(chunks) != out["counts"].get("ships_found"):
        problems.append(f"{len(chunks)} ships emitted, search reported {out['counts'].get('ships_found')}")
    if len(chunks) < wl.min_ships:
        problems.append(f"{len(chunks)} ships emitted, expected at least {wl.min_ships}")
    return problems


def run_search(runner: Runner, wl, mode: str, counts_seen: list, *extra) -> dict | None:
    """One search child; its result when it ran correctly, else None."""
    rle = OUT / f"{wl.name}.rle"
    rle.unlink(missing_ok=True)
    try:
        out = runner.child(mode, wl.name, rle, *extra)
    except ChildFailed:
        return None
    problems = ship_problems(wl, out, rle.read_text() if rle.exists() else "")
    rle.unlink(missing_ok=True)
    if counts_seen and out["counts"] != counts_seen[0]:
        problems.append(f"counts {out['counts']} differ from the first search's {counts_seen[0]}")
    counts_seen.append(out["counts"])
    if problems:
        runner.fail(f"{mode} {wl.name}: " + "; ".join(problems))
        return None
    return out


def timed_run(runner: Runner, wl, seconds: float, detail: dict) -> dict:
    """Searches back to back for `seconds`, with the cold set-ups spread
    between them so that both sample the same stretch of machine time."""
    setups, searches, counts_seen = [], [], []

    def setup():
        try:
            setups.append(runner.child("setup", wl.name)["setup_s"])
        except ChildFailed:
            pass

    started = time.monotonic()
    while len(searches) < MIN_SEARCHES or time.monotonic() - started < seconds:
        longest = max((s["wall_s"] for s in searches), default=0.0)
        if searches and runner.remaining() < 2 * longest + 10:
            break
        out = run_search(runner, wl, "search", counts_seen)
        if out is None:
            break
        searches.append(out)
        for _ in range(min(SETUPS_PER_SEARCH, SETUP_REPS - len(setups))):
            setup()
    while len(setups) < SETUP_REPS and runner.remaining() > 10:
        setup()
    detail.update(setup_s=setups, searches=searches, counts=counts_seen[:1])
    metrics = {}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if searches:
        metrics["wall_s"] = statistics.median(s["wall_s"] for s in searches)
        metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in searches)
        detail["baseline_rss_mb"] = statistics.median(s["baseline_rss_mb"] for s in searches)
    return metrics


def traced_run(runner: Runner, wl, seed: int, detail: dict) -> dict:
    counts_seen = []
    plain = run_search(runner, wl, "search", counts_seen)
    traced = run_search(runner, wl, "trace", counts_seen, OUT / f"{wl.name}.spans.npz")
    metrics = {}
    if traced is not None:
        metrics.update(traced["metrics"])
        detail["missing_spans"] = traced["missing"]
    if plain is not None and traced is not None:
        metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    if plain is not None and plain["run_search_s"] and "states_expanded" in plain["counts"]:
        metrics["search.expansions_per_s"] = plain["counts"]["states_expanded"] / plain["run_search_s"]
    try:
        replay = runner.child("replay", seed)
    except ChildFailed:
        replay = None
    if replay is not None:
        metrics.update(replay["metrics"])
        if replay["mismatches"]:
            runner.fail(f"replay: {replay['mismatches']} of {replay['replayed']} windows gave other successors")
    detail.update(untraced=plain, traced=traced, counts=counts_seen[:1], replay=replay)
    return metrics


def host_info() -> dict:
    import numpy

    src_lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src").rglob("*.py"))  # as wc -l counts
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines,
    }


def measure(args) -> int:
    spec = load_spec()
    wl = WORKLOADS[args.workload]
    runner = Runner(BUDGET_S)
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "host": host_info()}
    if args.trace:
        produced = traced_run(runner, wl, args.seed, detail)
        declared = spec["per_layer"]
    else:
        produced = timed_run(runner, wl, args.seconds, detail)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in produced}
    missing = [m["name"] for m in declared if m["name"] not in produced]
    counts = detail["counts"][0] if detail["counts"] else {}
    drift = {k: (counts.get(k), v) for k, v in wl.reference.items() if counts.get(k) != v}
    failed = len(runner.problems)
    detail.update(
        missing=missing,
        reference_drift=drift,
        problems=runner.problems,
        fail_rate=failed / max(1, runner.attempted),
        metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}.trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")

    for problem in runner.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if missing:
        print(f"missing metrics (a wrapped function is gone, or a measurement failed): {', '.join(missing)}", file=sys.stderr)
    if drift:
        print(f"counts differ from the recorded reference (now, reference): {drift}", file=sys.stderr)
    print(f"counts {counts}; host {detail['host']}", file=sys.stderr)
    if "baseline_rss_mb" in detail:
        print(f"peak_rss_mb includes {detail['baseline_rss_mb']:.1f} MB of interpreter, NumPy and imports", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


def self_check() -> int:
    """Shortened searches: counts and correctness only, no timing gates."""
    spec = load_spec()
    per_layer = {m["name"] for m in spec["per_layer"]}
    runner = Runner(BUDGET_S * 2)
    for wl in QUICK.values():
        counts_seen = []
        for _ in range(2):
            run_search(runner, wl, "search", counts_seen)
        traced = run_search(runner, wl, "trace", counts_seen, OUT / f"{wl.name}.spans.npz")
        if counts_seen and counts_seen[0] != wl.reference:
            runner.fail(f"{wl.name}: counts {counts_seen[0]} differ from the reference {wl.reference}")
        if traced is not None:
            deepens = wl.node_capacity is not None
            for name in ("search.dfs_round_s", "search.compact_s"):
                if (traced["metrics"].get(name, 0) > 0) != deepens:
                    runner.fail(f"{wl.name}: {name} = {traced['metrics'].get(name)}")
            missing = per_layer - set(traced["metrics"]) - {"trace.overhead_ratio", "search.expansions_per_s"}
            missing = {m for m in missing if not m.startswith("successor.replay_")}
            if missing or traced["missing"]:
                runner.fail(f"{wl.name}: traced run lacks {sorted(missing) + traced['missing']}")
        print(f"{wl.name}: counts {counts_seen[:1]}", file=sys.stderr)
    try:
        replay = runner.child("replay", 0)
        undeclared = set(replay["metrics"]) - per_layer
        if replay["mismatches"] or replay["missing"] or undeclared:
            runner.fail(f"replay: {replay['mismatches']} mismatches, missing {replay['missing']}, undeclared {undeclared}")
    except ChildFailed:
        pass
    for problem in runner.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("self-check " + ("failed" if runner.problems else "passed"), file=sys.stderr)
    return 1 if runner.problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="quick self-check: counts and correctness only")
    args = parser.parse_args()
    if not (ROOT / "src" / "shipsearch").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} does not hold src/shipsearch and BENCHMARK.json", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required unless --check is given")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

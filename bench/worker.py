"""One measurement in a fresh interpreter; run.py starts one per sample.

    worker.py search WORKLOAD RLE_OUT          one untraced CLI search
    worker.py trace  WORKLOAD RLE_OUT SPANS    one traced CLI search
    worker.py setup  WORKLOAD                  cold tables + Search()
    worker.py replay SEED                      successors() on recorded windows

Each prints one JSON object as its last line of standard output. Times
start after the imports, so interpreter start-up is excluded.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import shipsearch  # noqa: E402
from shipsearch import cli  # noqa: E402
from shipsearch import search as search_mod  # noqa: E402
from shipsearch import successor as successor_mod  # noqa: E402
from shipsearch.rules import parse_rule  # noqa: E402
from shipsearch.statespace import (  # noqa: E402
    ASYMMETRIC,
    EVEN_MIRROR,
    GLIDE_REFLECT,
    ODD_MIRROR,
    SearchParams,
)

from tracer import ALL_TARGETS, COUNT_TARGETS, Tracer  # noqa: E402
from workloads import QUICK, REPLAY_SOURCES, WORKLOADS  # noqa: E402

SYMMETRIES = {"none": ASYMMETRIC, "even": EVEN_MIRROR, "odd": ODD_MIRROR, "glide": GLIDE_REFLECT}

# Layer times are self times summed over these spans (see README.md).
SELF_TIMES = {
    "successor.stage1_s": ("stage1_edges",),
    "successor.stage2_s": ("stage2_reach",),
    "successor.stage3_s": ("stage3_enumerate",),
    "successor.build_tables_s": ("build_tables",),
    "statespace.tt_alloc_s": ("TranspositionTable.__init__",),
    "statespace.tt_insert_s": ("transposition_insert",),
    "statespace.rows_back_s": ("NodeArena.rows_back",),
    "statespace.state_key_s": ("state_key",),
    "statespace.is_goal_s": ("is_goal",),
    "statespace.extract_ship_s": ("extract_ship",),
    "search.init_s": ("Search.__init__",),
    "search.bfs_self_s": ("run_search", "_expand_head"),
    "search.dfs_round_s": ("dfs_round", "_dfs_probe", "reduce_width"),
    "search.compact_s": ("compact",),
    "pattern.classify_ship_s": ("classify_ship",),
}
CALL_COUNTS = {
    "successor.calls": "successors",
    "statespace.tt_inserts": "transposition_insert",
    "statespace.rows_back_calls": "NodeArena.rows_back",
    "search.dfs_rounds": "dfs_round",
    "search.compactions": "compact",
    "search.narrowings": "reduce_width",
    "pattern.ships_verified": "classify_ship",
}


def _workload(name):
    return WORKLOADS.get(name) or QUICK[name]


def search_params(wl) -> SearchParams:
    return SearchParams(parse_rule(wl.rule), wl.period, wl.offset, wl.width, SYMMETRIES[wl.symmetry], wl.translation)


def search_config(wl) -> search_mod.SearchConfig:
    defaults = search_mod.SearchConfig()
    return search_mod.SearchConfig(
        node_capacity=wl.node_capacity or defaults.node_capacity,
        max_deepening=wl.max_deepening,
        continue_after_find=wl.continue_after_find,
    )


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _search(wl, rle_out: str, targets, hooks: dict):
    """Run `shipsearch search` through cli.main with spans on `targets`;
    returns the tracer, its per-span summary and what every mode reports."""
    tracer = Tracer()
    captured = {}
    tracer.install(targets, dict(hooks, run_search=lambda r: captured.update(result=r)))
    baseline = _rss_mb()
    t0 = time.perf_counter()
    code = cli.main(wl.argv() + ["--output", rle_out])
    wall = time.perf_counter() - t0
    peak = _rss_mb()
    tracer.uninstall()
    summary = tracer.summary()
    counts = {}
    if "result" in captured:
        res = captured["result"]
        counts.update(states_expanded=res.status.states_expanded, ships_found=len(res.ships), outcome=res.status.outcome)
    for key, span in (("dfs_rounds", "dfs_round"), ("compactions", "compact"), ("narrowings", "reduce_width")):
        if span in summary:
            counts[key] = summary[span]["calls"]
    out = {
        "exit_code": code,
        "wall_s": wall,
        "run_search_s": summary["run_search"]["total_s"] if "run_search" in summary else None,
        "peak_rss_mb": peak,
        "baseline_rss_mb": baseline,
        "counts": counts,
        "missing": tracer.missing,
    }
    return tracer, summary, out


def cmd_search(name, rle_out):
    """Untraced: spans only on the search-loop functions, for the counts."""
    return _search(_workload(name), rle_out, COUNT_TARGETS, {})[2]


def cmd_trace(name, rle_out, spans_out):
    tally = {"children": 0, "tt_dups": 0, "arena_peak": 0}

    def on_successors(rows):
        tally["children"] += len(rows)

    def on_insert(verdict):
        tally["tt_dups"] += verdict[0] == "duplicate"

    def on_add(idx):
        if idx >= tally["arena_peak"]:
            tally["arena_peak"] = idx + 1

    hooks = {"successors": on_successors, "transposition_insert": on_insert, "NodeArena.add": on_add}
    tracer, summary, out = _search(_workload(name), rle_out, ALL_TARGETS, hooks)
    tracer.save(spans_out)
    metrics = {}
    for metric, spans in SELF_TIMES.items():
        if all(s in summary for s in spans):
            metrics[metric] = sum(summary[s]["self_s"] for s in spans)
    for metric, span in CALL_COUNTS.items():
        if span in summary:
            metrics[metric] = summary[span]["calls"]
    if "successors" in summary:
        metrics["successor.children"] = tally["children"]
        calls = summary["successors"]["calls"]
        if "stage3_enumerate" in summary and calls:
            metrics["successor.dead_before_stage3_ratio"] = 1 - summary["stage3_enumerate"]["calls"] / calls
    if summary.get("transposition_insert", {}).get("calls"):
        metrics["statespace.tt_dup_ratio"] = tally["tt_dups"] / summary["transposition_insert"]["calls"]
    if "NodeArena.add" in summary:
        metrics["search.arena_peak_nodes"] = tally["arena_peak"]
    if "states_expanded" in out["counts"]:
        metrics["search.states_expanded"] = out["counts"]["states_expanded"]
        metrics["search.ships_found"] = out["counts"]["ships_found"]
    metrics["trace.spans"] = len(tracer)
    out["metrics"] = metrics
    return out


def cmd_setup(name):
    wl = _workload(name)
    params, config = search_params(wl), search_config(wl)
    t0 = time.perf_counter()
    search_mod.Search(params, config)
    return {"setup_s": time.perf_counter() - t0}


REPLAY_SAMPLE = 300  # windows per source, drawn by the seed
MIN_PASSES = 5
MIN_TIME_S = 0.1


def _us_per_item(fn, items) -> float:
    """Median over passes of fn applied to every item, per item."""
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < MIN_TIME_S:
        t0 = time.perf_counter()
        for item in items:
            fn(*item)
        passes.append(time.perf_counter() - t0)
    return statistics.median(passes) / len(items) * 1e6


def cmd_replay(seed):
    """successors() and each stage on windows recorded by record_windows.py,
    with tracing off. Also checks each replayed window still gives the
    recorded successor rows."""
    recorded = json.loads((BENCH / "windows.json").read_text())
    rng = random.Random(int(seed))
    successors = successor_mod.successors
    stages = [getattr(successor_mod, n, None) for n in ("stage1_edges", "stage2_reach", "stage3_enumerate")]
    metrics, missing, mismatches, replayed = {}, [], 0, 0
    for src, rec in recorded.items():
        wl = REPLAY_SOURCES[src]
        picks = rng.sample(range(len(rec["windows"])), min(REPLAY_SAMPLE, len(rec["windows"])))
        tables = {}
        calls = []
        for i in picks:
            width = rec["widths"][i]
            if width not in tables:
                params = search_params(replace(wl, width=width))
                tables[width] = (params, successor_mod.build_tables(params))
            calls.append((*tables[width], rec["windows"][i]))
        replayed += len(calls)
        mismatches += sum(successors(*c) != rec["successors"][i] for c, i in zip(calls, picks))
        metrics[f"successor.replay_us_per_window.{src}"] = _us_per_item(successors, calls)
        names = [f"successor.replay_stage{n}_us.{src}" for n in (1, 2, 3)]
        if None in stages:
            missing += names
            continue
        stage1, stage2, stage3 = stages
        edges = [(p, t, stage1(p, t, w)) for p, t, w in calls]
        live = [(p, t, e, r) for p, t, e in edges if (r := stage2(p, t, e)) is not None]
        metrics[names[0]] = _us_per_item(stage1, calls)
        metrics[names[1]] = _us_per_item(stage2, edges)
        if live:
            metrics[names[2]] = _us_per_item(stage3, live)
        else:
            missing.append(names[2])
    return {"metrics": metrics, "missing": missing, "replayed": replayed, "mismatches": mismatches}


COMMANDS = {"search": cmd_search, "trace": cmd_trace, "setup": cmd_setup, "replay": cmd_replay}


def main(argv) -> int:
    src = (BENCH.parent / "src").resolve()
    if src not in Path(shipsearch.__file__).resolve().parents:
        print(f"shipsearch was imported from {shipsearch.__file__}, not from {src}", file=sys.stderr)
        return 2
    print(json.dumps(COMMANDS[argv[0]](*argv[1:])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

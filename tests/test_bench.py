"""The benchmark's self-check, run as a test, and the names it relies on.

`bench/run.py --check` runs four shortened searches, one per search
shape the benchmark measures, and holds each to its reference counts
(states expanded, ships, outcome, deepening rounds, compactions,
narrowings), re-verifying every emitted ship. It measures no time.
The fast tests check that every function the bench wraps still exists,
that its stage replay composes the stages as the package does, and that
each shortened search repeats its reference counts in-process.
"""

import importlib
import subprocess
import sys

import pytest

from helpers import ROOT, bench_module
from shipsearch import cli
from shipsearch import search as search_mod
from shipsearch.rules import parse_rule
from shipsearch.statespace import EVEN_MIRROR, SearchParams
from shipsearch.successor import build_tables, stage1_edges, stage2_reach, stage3_enumerate, successors


def test_every_traced_target_resolves():
    for name, module_name, path in bench_module("tracer").ALL_TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_stage_replay_composes_like_successors():
    # the call shape of the bench's per-stage replay
    params = SearchParams(parse_rule("B3/S23"), 4, 1, 7, EVEN_MIRROR)
    tables = build_tables(params)
    window = [0] * 7 + [0b11]
    edges = stage1_edges(params, tables, window)
    reach = stage2_reach(params, tables, edges)
    assert reach is not None
    rows = successors(params, tables, window)
    assert len(rows) > 1
    assert stage3_enumerate(params, tables, edges, reach) == rows


@pytest.mark.slow
def test_bench_check_holds_reference_counts():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("name", list(bench_module("workloads").QUICK))
def test_quick_search_repeats_reference_counts(monkeypatch, tmp_path, name):
    # each shortened search of `--check`, in-process: exhaustion, the p2
    # filter, a first ship, and depth-first probes with compaction and
    # narrowing
    wl = bench_module("workloads").QUICK[name]
    counts = {"dfs_rounds": 0, "compactions": 0, "narrowings": 0}

    def counting(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    for key, fn in (("dfs_rounds", "dfs_round"), ("compactions", "compact"), ("narrowings", "reduce_width")):
        monkeypatch.setattr(search_mod, fn, counting(getattr(search_mod, fn), key))

    def run_search(*args, **kwargs):
        res = search_mod.run_search(*args, **kwargs)
        counts.update(states_expanded=res.status.states_expanded, ships_found=len(res.ships), outcome=res.status.outcome)
        return res

    monkeypatch.setattr(cli, "run_search", run_search)
    assert cli.main(wl.argv() + ["--quiet", "--output", str(tmp_path / "ships.rle")]) == wl.exit_code
    assert counts == wl.reference

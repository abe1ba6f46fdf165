"""Acceptance gate: one test per shipped guarantee.

Each test pins the user-visible claims: the p=2 pruning fractions, the
small-ship rediscoveries with their time budgets, bulk agreement between
the fast successor path and the brute-force oracle, capacity-independent
first ships, the capacity-dependent ship sets of `--continue` that the
README states, the state-space banner, re-verification of everything
emitted, the documented-only status of the long searches, and that both
scripts run.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import brute_successors, pruned_percent
from shipsearch.cli import banner_text
from shipsearch.oracle import _orbit_key, oracle_successors
from shipsearch.pattern import classify_ship
from shipsearch.rules import parse_rule
from shipsearch.search import SHIP_FOUND, SearchConfig, run_search
from shipsearch.statespace import (
    ASYMMETRIC,
    DIAGONAL,
    EVEN_MIRROR,
    GLIDE_REFLECT,
    ODD_MIRROR,
    ORTHOGONAL,
    SearchParams,
    debruijn_size,
    history,
)
from shipsearch.successor import _p2_table, build_tables, successors

LIFE = parse_rule("B3/S23")
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_p2_pruned_fractions():
    for rule_text, expected in (("B3/S23", 18.5), ("B27/S0", 68.3)):
        started = time.perf_counter()
        table = _p2_table.__wrapped__(parse_rule(rule_text))  # built afresh, not from the cache
        elapsed = time.perf_counter() - started
        assert abs(pruned_percent(table) - expected) <= 0.05, rule_text
        assert elapsed < 1.0, f"{rule_text} table took {elapsed:.2f}s"


def test_finds_c2_ship_quickly():
    started = time.perf_counter()
    result = run_search(SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT))
    elapsed = time.perf_counter() - started
    assert result.status.outcome == SHIP_FOUND
    assert elapsed < 10.0
    ship, desc = result.ships[0]
    assert (desc.period, desc.dx, abs(desc.dy)) == (4, 0, 2)
    assert classify_ship(LIFE, ship, 4) == desc


def test_finds_c4_diagonal_glider():
    started = time.perf_counter()
    result = run_search(SearchParams(LIFE, 4, 1, 4, translation=DIAGONAL))
    elapsed = time.perf_counter() - started
    assert result.status.outcome == SHIP_FOUND
    assert elapsed < 60.0
    ship, desc = result.ships[0]
    assert desc.period == 4
    assert abs(desc.dx) == abs(desc.dy) == 1
    assert ship.population() == 5


@pytest.mark.slow
def test_finds_c3_ship_even_mirror():
    result = run_search(SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR))
    assert result.status.outcome == SHIP_FOUND
    ship, desc = result.ships[0]
    assert (desc.period, desc.dx, abs(desc.dy)) == (3, 0, 1)
    assert classify_ship(LIFE, ship, 6) == desc


def test_successors_match_oracle_across_rules_and_modes():
    started = time.perf_counter()
    rng = random.Random(20260814)
    rules = [LIFE, parse_rule("B27/S0")]
    while len(rules) < 20:
        birth = [d for d in range(1, 9) if rng.random() < 0.4] or [rng.randint(1, 8)]
        survive = [d for d in range(0, 9) if rng.random() < 0.4]
        rules.append(parse_rule("B" + "".join(map(str, birth)) + "/S" + "".join(map(str, survive))))

    modes = [
        (ORTHOGONAL, ASYMMETRIC),
        (ORTHOGONAL, EVEN_MIRROR),
        (ORTHOGONAL, ODD_MIRROR),
        (ORTHOGONAL, GLIDE_REFLECT),
        (DIAGONAL, ASYMMETRIC),
    ]
    periods = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]
    states = 0
    for i, rule in enumerate(rules):
        translation, symmetry = modes[i % len(modes)]
        p, k = periods[i % len(periods)]
        params = SearchParams(rule, p, k, 3 + i % 4, symmetry, translation)
        tables = build_tables(params)
        hist = history(params)
        window = [0] * hist
        for _ in range(52):
            # random walk along the next constraint alone keeps every tested
            # state reachable; dead ends restart from the empty strip
            options = brute_successors(params, window, lookahead=False)
            window = window[1:] + [rng.choice(options)] if options else [0] * hist
            states += 1
            fast = successors(params, tables, window)
            slow = oracle_successors(params, window)
            assert fast == slow, (format(rule), p, k, symmetry, translation, window)
    elapsed = time.perf_counter() - started
    assert states >= 1000
    assert len(rules) >= 20
    assert elapsed < 120.0


def test_capacity_extremes_find_the_same_ship():
    params = SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT)
    speeds = []
    for capacity in (1 << 22, 8):
        result = run_search(params, SearchConfig(node_capacity=capacity))
        assert result.status.outcome == SHIP_FOUND
        ship, desc = result.ships[0]
        assert classify_ship(LIFE, ship, 4) == desc
        speeds.append((desc.period, desc.dx, abs(desc.dy)))
        if capacity == 8:
            assert result.status.deepening_limit > 0  # the tiny arena really deepened
    assert speeds[0] == speeds[1] == (4, 0, 2)


@pytest.mark.slow
def test_continue_ships_depend_on_capacity_as_documented():
    # the README's --continue contract: one ship per pre-goal state until
    # the duplicate-state table starts over, so Life c/3 even-mirror width
    # 6 without narrowing reports 1, 5 and 1 ships, counted by orbit, at
    # capacities 2^22, 256 and 64
    params = SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR)
    orbits = []
    for capacity in (1 << 22, 256, 64):
        result = run_search(params, SearchConfig(node_capacity=capacity, continue_after_find=True))
        keys = set()
        for ship, desc in result.ships:
            cells = frozenset((x, y) for y, row in enumerate(ship.rows) for x in range(ship.width) if row >> x & 1)
            keys.add(_orbit_key(LIFE, cells, desc.period))
        orbits.append(len(keys))
    assert orbits == [1, 5, 1]


def test_state_space_banner_exponent():
    params = SearchParams(LIFE, 7, 1, 9, EVEN_MIRROR)
    assert debruijn_size(params) == 126
    assert "2^126" in banner_text(params)


def test_every_emitted_ship_verifies():
    searches = [
        (SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT), SearchConfig()),
        (SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT),
         SearchConfig(node_capacity=1 << 14, max_deepening=4, continue_after_find=True)),
        (SearchParams(LIFE, 4, 1, 4, translation=DIAGONAL), SearchConfig()),
    ]
    emitted = 0
    for params, config in searches:
        result = run_search(params, config)
        for ship, desc in result.ships:
            emitted += 1
            fresh = classify_ship(params.rule, ship, 2 * params.period)
            assert fresh == desc
            if params.translation == ORTHOGONAL:
                assert fresh.dx == 0
                assert abs(fresh.dy) * params.period == params.offset * fresh.period
            else:
                assert abs(fresh.dx) == abs(fresh.dy)
                assert abs(fresh.dy) * params.period == params.offset * fresh.period
    assert emitted >= 4


def test_long_searches_are_documented_not_run():
    source = (SCRIPTS / "long_searches.py").read_text()
    compile(source, "long_searches.py", "exec")
    for profile in ("weekender", "dragon", "diamoeba-c7", "coe-c5"):
        assert profile in source
    # manual entry point only; importing or collecting it must not search
    assert 'if __name__ == "__main__":' in source


SCAN_3_RULES = """\
3 rules sampled

least pruning:
  B3578/S01368               0.00%
  B12467/S0123467            9.08%
  B12458/S27                15.82%

most pruning:
  B3578/S01368               0.00%
  B12467/S0123467            9.08%
  B12458/S27                15.82%

nothing pruned at all: B3578/S01368
"""


@pytest.mark.parametrize(
    "script, args, expect",
    [
        (
            "long_searches.py",
            ["--list"],
            "weekender    rule B3/S23, period 7, offset 2, width 9, even-mirror, orthogonal, "
            "state space <= 2^126  (~hours to days)\n",
        ),
        ("scan_prune_rates.py", ["--rules", "3"], SCAN_3_RULES),
    ],
)
def test_scripts_run(script, args, expect):
    # both scripts put src/ on their own path; the output starts with
    # exactly the expected lines
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(expect)


@pytest.mark.parametrize("rules", ["0", "-3"])
def test_scan_needs_at_least_one_rule(rules):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "scan_prune_rates.py"), "--rules", rules],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: --rules must be at least 1\n"
    assert proc.stdout == ""


def test_long_search_bad_capacity_is_a_usage_error():
    # the capacity is checked before the banner, so nothing is searched
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "long_searches.py"), "--run", "weekender", "--capacity", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "error: node_capacity must be at least 4 periods" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "state space" not in proc.stderr  # no banner

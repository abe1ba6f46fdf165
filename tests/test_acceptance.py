"""Acceptance gate: one test per shipped guarantee.

Each test pins the user-visible claims: the p=2 pruning fractions, the
small-ship rediscoveries with their time budgets, bulk agreement between
the fast successor path and the brute-force oracle, capacity-independent
first ships, a search that finds every small ship the oracle finds in
its mode, the capacity-dependent ship sets of `--continue` that the
README states, the state-space banner, re-verification of everything
emitted, the documented-only status of the long searches, and that both
scripts run.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import brute_successors, evolve_cells, pruned_percent
from shipsearch.cli import banner_text
from shipsearch.oracle import _orbit_key, oracle_ship_search, oracle_successors
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


def _drawn_rule(rng):
    """B3 with each other birth count at odds 1 in 4, and each survival
    count at odds 2 in 5."""
    birth = "3" + "".join(n for n in "45678" if rng.random() < 0.25)
    return parse_rule(f"B{birth}/S" + "".join(n for n in "012345678" if rng.random() < 0.4))


def _oracle_modes(rule, ships):
    """The asymmetric search modes (p, k, width, translation) in which the
    oracle's ships fit: orthogonal or 45-degree diagonal motion, p and k
    coprime, and at most 6 columns. An orthogonal ship needs its extent
    across the motion over all p phases; a diagonal one, one more than the
    larger side of its box in any phase."""
    modes = set()
    for pattern, desc in ships:
        p, dx, dy = desc.period, desc.dx, desc.dy
        k = max(abs(dx), abs(dy))
        if dx and dy and abs(dx) != abs(dy) or k >= p or math.gcd(k, p) != 1:
            continue
        cells = {(x, y) for y, row in enumerate(pattern.rows) for x in range(pattern.width) if row >> x & 1}
        phases = evolve_cells(rule, cells, p - 1)

        def extent(i, cells):
            return max(c[i] for c in cells) - min(c[i] for c in cells) + 1

        if dx and dy:
            translation, width = DIAGONAL, 1 + max(extent(i, phase) for phase in phases for i in (0, 1))
        else:  # the coordinate across the motion stays put over the phases
            translation, width = ORTHOGONAL, extent(int(dx != 0), set().union(*phases))
        if width <= 6:
            modes.add((p, k, width, translation))
    return sorted(modes)


# The draws of _drawn_rule from random.Random(7), among its first 173,
# whose ships from oracle_ship_search(rule, (4, 3), 4) fit a search mode:
# B34/S013567, B348/S34578, B34/S01358, B38/S23678, B34/S2368,
# B37/S12468, B3/S235, B3467/S34, B378/S2358, B3/S03456, B3/S3458 and
# B347/S0348, one mode each (p2 and p3 orthogonal, p4 diagonal, widths 4
# and 5). The one other draw there with an oracle ship, B378/S34578,
# fits none.
ORACLE_DRAWS = (5, 23, 37, 38, 52, 72, 112, 113, 116, 126, 150, 172)
# Rules from another seeded draw, with other odds, whose oracle ships fit
# one mode each (p2 and p3 orthogonal, p4 diagonal, widths 4 and 5).
ORACLE_RULES = ("B3468/S13568", "B367/S2356", "B36/S03456", "B3/S035", "B36/S235", "B35/S124678", "B346/S348")


def test_search_finds_every_small_oracle_ship():
    # completeness: where the brute-force oracle finds a ship in a 4x3
    # seed box, the search in that ship's mode and width finds a ship
    # too, without narrowing, whatever the node capacity: from plain
    # iterative deepening at 4p nodes to no deepening round at 2^22
    rng = random.Random(7)
    rules = [_drawn_rule(rng) for _ in range(ORACLE_DRAWS[-1] + 1)]
    searched = []

    def within_budget(status):
        # each finds its ship within 1,700 expansions; one that misses it
        # deepens without end, as nothing narrows the strip
        assert status.states_expanded < 100_000, status
    for rule in [rules[n] for n in ORACLE_DRAWS] + [parse_rule(text) for text in ORACLE_RULES]:
        modes = _oracle_modes(rule, oracle_ship_search(rule, (4, 3), 4))
        assert modes, str(rule)
        for p, k, width, translation in modes:
            params = SearchParams(rule, p, k, width, ASYMMETRIC, translation)
            for capacity in (4 * p, 64, 1 << 22):
                config = SearchConfig(node_capacity=capacity, progress_interval=10_000)
                outcome = run_search(params, config, progress=within_budget).status.outcome
                assert outcome == SHIP_FOUND, (str(rule), p, k, width, translation, capacity)
            searched.append((p, translation))
    assert {(2, ORTHOGONAL), (3, ORTHOGONAL), (4, DIAGONAL)} <= set(searched)


def _symmetric_modes(rule, ships):
    """The mirror and glide-reflect search modes (p, k, width, symmetry)
    in which the oracle's ships fit, at most 6 columns wide. An
    orthogonal ship of period P and shift k, W cells across its motion
    over all P phases, fits even mirror at width W/2 (W even) or odd
    mirror at width (W+1)/2 (W odd) when every phase is its own mirror
    across the line of motion, and fits glide-reflect at period P/2,
    shift k/2 and width W when phase P/2 is the mirror of phase 0 moved
    k/2 cells along the line of motion."""
    modes = set()
    for pattern, desc in ships:
        period, dx, dy = desc.period, desc.dx, desc.dy
        if dx and dy:
            continue
        cells = {(x, y) for y, row in enumerate(pattern.rows) for x in range(pattern.width) if row >> x & 1}
        if dx:  # make the motion run along y
            cells, dy = {(y, x) for x, y in cells}, dx
        phases = evolve_cells(rule, cells, period - 1)
        xs = [x for phase in phases for x, _ in phase]
        lo, hi, k = min(xs), max(xs), abs(dy)
        width = hi - lo + 1

        def mirrored(cells, moved=0):
            return {(lo + hi - x, y + moved) for x, y in cells}

        if all(mirrored(phase) == phase for phase in phases) and math.gcd(k, period) == 1 and (width + 1) // 2 <= 6:
            modes.add((period, k, (width + 1) // 2, ODD_MIRROR if width % 2 else EVEN_MIRROR))
        if period % 2 == 0 and k % 2 == 0 and math.gcd(k // 2, period // 2) == 1 and width <= 6:
            if phases[period // 2] == mirrored(phases[0], dy // 2):
                modes.add((period // 2, k // 2, width, GLIDE_REFLECT))
    return sorted(modes)


# The draws of _drawn_rule from random.Random(7) whose ships from
# oracle_ship_search(rule, (4, 3), 8) fit a mirror or glide-reflect mode:
# all 7 among the first 120 draws, B34/S013567 (odd p5 k2 w3),
# B3456/S147 (even p5 w2), B348/S34578 (even p3 w2), B34/S01358 (odd p5
# k2 w3), B35/S234 (glide p3 w5), B37/S12468 (even p2 w2) and B3467/S34
# (even p3 w2), and the first glide pair after them, B35/S126 (glide p3
# w4).
SYMMETRIC_DRAWS = (5, 21, 23, 37, 46, 72, 113, 127)


def test_search_finds_every_small_symmetric_oracle_ship():
    # completeness in the modes the paper's searches use: where the
    # brute-force oracle finds a ship in a 4x3 seed box that is its own
    # mirror, or its own mirror half a period on, the search in that
    # mirror or glide-reflect mode and width finds a ship too, without
    # narrowing, whatever the node capacity
    rng = random.Random(7)
    rules = [_drawn_rule(rng) for _ in range(SYMMETRIC_DRAWS[-1] + 1)]
    searched = []

    def within_budget(status):
        # each finds its ship within 600 expansions; one that misses it
        # deepens without end, as nothing narrows the strip
        assert status.states_expanded < 100_000, status

    for rule in [rules[n] for n in SYMMETRIC_DRAWS]:
        modes = _symmetric_modes(rule, oracle_ship_search(rule, (4, 3), 8))
        assert modes, str(rule)
        for p, k, width, symmetry in modes:
            params = SearchParams(rule, p, k, width, symmetry)
            for capacity in (4 * p, 64, 1 << 22):
                config = SearchConfig(node_capacity=capacity, progress_interval=10_000)
                outcome = run_search(params, config, progress=within_budget).status.outcome
                assert outcome == SHIP_FOUND, (str(rule), p, k, width, symmetry, capacity)
            searched.append((symmetry, p))
    assert sorted(searched) == [
        (EVEN_MIRROR, 2), (EVEN_MIRROR, 3), (EVEN_MIRROR, 3), (EVEN_MIRROR, 5),
        (GLIDE_REFLECT, 3), (GLIDE_REFLECT, 3), (ODD_MIRROR, 5), (ODD_MIRROR, 5),
    ]


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


def test_scan_refuses_more_rules_than_it_can_draw():
    # 255 birth sets times 512 survive sets: one more would never be drawn
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "scan_prune_rates.py"), "--rules", "130561"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: --rules must be at most 130560, the number of distinct rules\n"
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

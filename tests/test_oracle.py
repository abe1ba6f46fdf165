"""The reference implementations themselves, and their agreement with the
fast path on a modest sample (the broad sweep lives in the acceptance
suite)."""

import random

import pytest

from shipsearch.oracle import (
    OracleBudget,
    _p2_entry_ok,
    oracle_ship_search,
    oracle_successors,
)
from shipsearch.rules import parse_rule
from shipsearch.statespace import (
    ASYMMETRIC,
    DIAGONAL,
    GLIDE_REFLECT,
    ODD_MIRROR,
    ORTHOGONAL,
    SearchParams,
)
from shipsearch.successor import _p2_table, build_tables, successors

LIFE = parse_rule("B3/S23")


class TestAgreement:
    @pytest.mark.parametrize(
        "case",
        [
            (2, 1, 4, ASYMMETRIC, ORTHOGONAL),
            (2, 1, 3, ODD_MIRROR, ORTHOGONAL),
            (3, 1, 4, GLIDE_REFLECT, ORTHOGONAL),
            (4, 1, 3, ASYMMETRIC, DIAGONAL),
        ],
        ids=lambda c: f"p{c[0]}k{c[1]}w{c[2]}-{c[3]}-{c[4]}",
    )
    def test_sampled_states(self, case):
        p, k, w, sym, tr = case
        params = SearchParams(LIFE, p, k, w, sym, tr)
        tables = build_tables(params)
        rng = random.Random(repr(case))
        for trial in range(6):
            rows = (
                [0] * 2 * p
                if trial == 0
                else [rng.getrandbits(w) & rng.getrandbits(w) for _ in range(3 * p + 1)]
            )
            assert successors(params, tables, rows) == oracle_successors(params, rows)

    def test_p2_entries_match_packed_table(self):
        # the packed table and the oracle reach the strip relation by
        # different constructions; spot-check the full keyed layout
        rng = random.Random(21)
        for rule_s in ("B3/S23", "B27/S0"):
            rule = parse_rule(rule_s)
            packed = _p2_table(rule)
            for _ in range(400):
                r2w, r1w = rng.randrange(32), rng.randrange(32)
                ct, lt = rng.randrange(8), rng.randrange(8)
                want = _p2_entry_ok(rule, r2w, r1w, ct, lt)
                assert bool(packed[r2w | r1w << 5] >> (ct | lt << 3) & 1) == want


class TestBudget:
    def test_width_limit(self):
        params = SearchParams(LIFE, 2, 1, 7)
        with pytest.raises(ValueError, match="width"):
            oracle_successors(params, [0, 0, 0, 0])

    def test_wider_budget_allows(self):
        params = SearchParams(LIFE, 2, 1, 7)
        wide = OracleBudget(max_width=8)
        assert 0 in oracle_successors(params, [0, 0, 0, 0], budget=wide)

    def test_seed_box_limit(self):
        with pytest.raises(ValueError, match="seed box"):
            oracle_ship_search(LIFE, (5, 4), 4)

    def test_period_limit(self):
        with pytest.raises(ValueError, match="period"):
            oracle_ship_search(LIFE, (3, 3), 9)


class TestShipSearch:
    def test_life_3x3_finds_exactly_the_glider(self):
        ships = oracle_ship_search(LIFE, (3, 3), 4)
        assert len(ships) == 1
        pat, desc = ships[0]
        assert desc.period == 4
        assert abs(desc.dx) == 1 and abs(desc.dy) == 1
        assert pat.population() == 5

    def test_rule_without_births_has_no_ships(self):
        assert oracle_ship_search(parse_rule("B/S23"), (3, 3), 4) == []

    def test_duplicates_collapse(self):
        # a 4x3 box contains the 3x3 glider seeds many times over, in both
        # chiralities; orbit canonicalization must still yield one ship
        ships = oracle_ship_search(LIFE, (4, 3), 4)
        gliders = [s for s in ships if s[1].period == 4]
        assert len(gliders) == 1
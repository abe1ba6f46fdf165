"""Constraint tables and the three-stage successor enumeration.

The table tests recompute entries the slow way (per-cell evolution) and
compare. The enumeration tests check successors() against the oracle's
literal all-candidates filter and against known ships: feeding a real
ship's interleaved rows in must always yield the ship's actual next row.
"""

import json
import math
import random
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    GLIDER_CELLS,
    LWSS_CELLS,
    ROOT,
    brute_successors,
    edges_with_left_in,
    edges_with_right_in,
    fixed_point_closure,
    left_vertices,
    padded,
    pruned_percent,
    reference_p2_table,
    reference_row_count,
    reference_star_tables,
    reference_stage1_edges,
    reference_stage2_reach,
    reference_stage3_enumerate,
    reference_structural_masks,
    right_vertices,
    search_from_argv,
    ship_sequence,
)
from shipsearch import search as search_mod
from shipsearch import successor as successor_mod
from shipsearch.oracle import oracle_successors
from shipsearch.rules import evolution_table, evolve_row_triple, parse_rule
from shipsearch.search import Search, SearchConfig, reduce_width, run_search
from shipsearch.statespace import (
    ASYMMETRIC,
    DIAGONAL,
    EVEN_MIRROR,
    GLIDE_REFLECT,
    ODD_MIRROR,
    ORTHOGONAL,
    SYMMETRIES,
    SearchParams,
    history,
)
from shipsearch.successor import (
    _LEFT_OF,
    _RIGHT_OF,
    _next_allowed,
    _next_allowed_int,
    _p2_table,
    _prev_allowed,
    _prev_allowed_int,
    _star_tables,
    build_tables,
    stage1_edges,
    stage2_reach,
    stage3_enumerate,
    successors,
    successors_batch,
)

LIFE = parse_rule("B3/S23")


def _random_rules(count, seed):
    """count distinct rules without B0, each digit in with even odds."""
    rng = random.Random(seed)
    rules = set()
    while len(rules) < count:
        birth = "".join(d for d in "12345678" if rng.random() < 0.5)
        survive = "".join(d for d in "012345678" if rng.random() < 0.5)
        rules.add(f"B{birth}/S{survive}")
    return sorted(rules)


# the rules the table tests below sample entries of, and 8 more at random
WHOLE_TABLE_RULES = [
    "B3/S23",
    "B27/S0",
    "B36/S23",
    "B2/S",
    "B3678/S34678",
    "B36/S125",
    "B2345/S13",
    "B368/S245",
    *_random_rules(8, seed=20),
]


class TestP2Table:
    def test_life_pruned_fraction(self):
        assert abs(pruned_percent(_p2_table(LIFE)) - 18.5) <= 0.05

    def test_b27s0_pruned_fraction(self):
        assert abs(pruned_percent(_p2_table(parse_rule("B27/S0"))) - 68.3) <= 0.05

    def test_construction_under_a_second(self):
        for rule in ("B3/S23", "B27/S0"):
            start = time.perf_counter()
            _p2_table.__wrapped__(parse_rule(rule))  # built afresh, not from the cache
            assert time.perf_counter() - start < 1.0

    def test_all_dead_entry_allowed(self):
        assert _p2_table(LIFE)[0] & 1  # dead windows, dead triples

    @pytest.mark.parametrize("rule", ["B3/S23", "B36/S23", "B2/S", "B3678/S34678"])
    def test_semi_naive_closure_matches_fixed_point(self, monkeypatch, rule):
        built = _p2_table.__wrapped__(parse_rule(rule))
        monkeypatch.setattr(successor_mod, "_backward_closure", fixed_point_closure)
        assert built == _p2_table.__wrapped__(parse_rule(rule))

    @pytest.mark.parametrize("rule", WHOLE_TABLE_RULES)
    def test_whole_table_matches_unfactored_build(self, rule):
        assert _p2_table.__wrapped__(parse_rule(rule)) == reference_p2_table(parse_rule(rule))

    @pytest.mark.parametrize("rule", ["B3/S23", "B27/S0"])
    def test_build_peak_memory(self, rule):
        # no temporary spans the 32^4 grid of strips and appended rows;
        # built over that grid, the table peaked at about 7 MB
        tracemalloc.start()
        try:
            _p2_table.__wrapped__(parse_rule(rule))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6


class TestStarTables:
    def test_all_dead_knowns(self):
        # with every known row dead, the first check forbids exactly the
        # all-live C triple (it would birth into the dead result row) and
        # the second check ties the C center to whether the lookahead
        # triple births it
        tables = build_tables(SearchParams(LIFE, 3, 1, 4))
        expect = 0
        for e in range(64):
            ct, lt = e & 7, e >> 3
            if ct != 7 and ((ct >> 1) & 1) == (1 if lt == 7 else 0):
                expect |= 1 << e
        assert tables.star_l[0] == expect

    def test_star_entries_match_slow_evolution(self):
        rng = random.Random(11)
        for rule_s in ("B3/S23", "B36/S125", "B2345/S13"):
            rule = parse_rule(rule_s)
            ev = evolution_table(rule)
            tables = build_tables(SearchParams(rule, 3, 1, 4))
            for _ in range(60):
                idx = rng.randrange(8192)
                m3, a3 = idx & 7, (idx >> 3) & 7
                dbit, e3, f3 = (idx >> 6) & 1, (idx >> 7) & 7, (idx >> 10) & 7
                mask = 0
                for e in range(64):
                    ct, lt = e & 7, e >> 3
                    if ev[a3 | m3 << 3 | ct << 6] != dbit:
                        continue
                    if ev[f3 | e3 << 3 | lt << 6] != (ct >> 1) & 1:
                        continue
                    mask |= 1 << e
                assert tables.star_l[idx] == mask

    @pytest.mark.parametrize("rule", WHOLE_TABLE_RULES)
    def test_whole_table_matches_unfactored_build(self, rule):
        assert _star_tables.__wrapped__(parse_rule(rule)) == reference_star_tables(parse_rule(rule))


class TestLlTable:
    def test_entries_match_slow_search(self):
        rng = random.Random(12)
        for rule_s in ("B3/S23", "B368/S245"):
            rule = parse_rule(rule_s)
            ev = evolution_table(rule)
            tables = build_tables(SearchParams(rule, 3, 1, 4))

            def center3(a, b, c):
                return (evolve_row_triple(ev, a, b, c, 5) >> 1) & 7

            for _ in range(40):
                idx = rng.randrange(8192)
                b5, a5, r3 = idx & 31, (idx >> 5) & 31, idx >> 10
                mask = 0
                for x5 in range(32):
                    if center3(a5, b5, x5) != r3:
                        continue
                    for y5 in range(32):
                        lt = center3(b5, x5, y5)
                        mask |= 0xFF << 8 * lt  # every edge ct | lt << 3
                assert tables.filter[idx] == mask


MODE_CASES = [
    (3, 1, 4, ASYMMETRIC, ORTHOGONAL),
    (2, 1, 4, ASYMMETRIC, ORTHOGONAL),
    (3, 2, 3, ASYMMETRIC, ORTHOGONAL),
    (3, 1, 3, EVEN_MIRROR, ORTHOGONAL),
    (3, 1, 3, ODD_MIRROR, ORTHOGONAL),
    (2, 1, 4, GLIDE_REFLECT, ORTHOGONAL),
    (3, 2, 3, GLIDE_REFLECT, ORTHOGONAL),
    (4, 1, 3, ASYMMETRIC, DIAGONAL),
    (3, 2, 3, ASYMMETRIC, DIAGONAL),
]


class TestSuccessorsAgainstBrute:
    @pytest.mark.parametrize("case", MODE_CASES, ids=lambda c: f"p{c[0]}k{c[1]}w{c[2]}-{c[3]}-{c[4]}")
    def test_matches_literal_filter(self, case):
        p, k, w, sym, tr = case
        rng = random.Random(repr(case))
        for rule_s in ("B3/S23", "B36/S125"):
            params = SearchParams(parse_rule(rule_s), p, k, w, sym, tr)
            tables = build_tables(params)
            for trial in range(8):
                n = rng.choice([2 * p, 3 * p, 3 * p + 2])
                rows = [0] * n if trial == 0 else [rng.getrandbits(w) for _ in range(n)]
                rows = padded(params, rows)
                assert successors(params, tables, rows) == oracle_successors(params, rows)


class TestFilters:
    def test_extended_only_prunes(self):
        rng = random.Random(13)
        for p, k, tr in ((2, 1, ORTHOGONAL), (3, 1, ORTHOGONAL), (4, 1, DIAGONAL)):
            params = SearchParams(LIFE, p, k, 4, ASYMMETRIC, tr)
            tables = build_tables(params)
            strict = 0
            for _ in range(300):
                # sparse states: dense random rows rarely admit any
                # successor at all, leaving nothing to prune
                rows = [rng.getrandbits(4) & rng.getrandbits(4) for _ in range(3 * p + 1)]
                plain = brute_successors(params, rows)
                filtered = successors(params, tables, rows)
                assert set(filtered) <= set(plain)
                strict += len(filtered) < len(plain)
            assert strict > 0, "filter never pruned anything"

    def test_width_one_lookahead_distinction(self):
        # a lone live cell satisfies the direct constraint from dead rows
        # but no lookahead row can ever birth it
        params = SearchParams(LIFE, 3, 1, 1)
        tables = build_tables(params)
        assert successors(params, tables, [0] * 6) == [0]
        assert brute_successors(params, [0] * 6, lookahead=False) == [0, 1]

    # (p, k, symmetry, translation, entries in the filter table: ll 8192,
    # p2 1024, one pass-all entry for neither)
    MODES = [
        (2, 1, ASYMMETRIC, ORTHOGONAL, 1024),
        (2, 1, ODD_MIRROR, ORTHOGONAL, 1024),
        (2, 1, GLIDE_REFLECT, ORTHOGONAL, 1),
        (2, 1, ASYMMETRIC, DIAGONAL, 1),
        (3, 1, EVEN_MIRROR, ORTHOGONAL, 8192),
        (4, 1, ASYMMETRIC, DIAGONAL, 8192),
    ]

    @pytest.mark.parametrize("case", MODES, ids=lambda c: f"p{c[0]}k{c[1]}-{c[2]}-{c[3]}")
    def test_tables_hold_only_the_applied_filter(self, case):
        # build_tables keeps the one extended table the mode runs, so
        # period-2 glide and diagonal keep a table that passes every edge
        p, k, sym, tr, entries = case
        tables = build_tables(SearchParams(LIFE, p, k, 4, sym, tr))
        assert len(tables.filter) == entries
        if entries == 1:
            assert tables.filter == [2**64 - 1]


class TestKnownShips:
    def check_ship(self, params, cells, want_dx=0):
        rows = ship_sequence(params, cells, want_dx)
        tables = build_tables(params)
        p2 = 2 * params.period
        first = next(i for i, r in enumerate(rows) if r)
        checked = 0
        for n in range(max(p2, first - p2), len(rows)):
            got = successors(params, tables, rows[:n])
            assert rows[n] in got, f"true continuation pruned at level {n}"
            checked += 1
        assert checked > 2 * params.period

    def test_lwss_glide_rows_always_offered(self):
        self.check_ship(SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT), LWSS_CELLS)

    def test_glider_diagonal_rows_always_offered(self):
        self.check_ship(
            SearchParams(LIFE, 4, 1, 4, ASYMMETRIC, DIAGONAL), GLIDER_CELLS, want_dx=-1
        )


class TestEnumeration:
    def test_sorted_and_deterministic(self):
        rng = random.Random(14)
        params = SearchParams(LIFE, 3, 1, 5)
        tables = build_tables(params)
        for _ in range(30):
            rows = [rng.getrandbits(5) for _ in range(9)]
            got = successors(params, tables, rows)
            assert got == sorted(got)
            assert len(set(got)) == len(got)
            assert got == successors(params, tables, rows)

    def test_stages_compose(self):
        params = SearchParams(LIFE, 2, 1, 4)
        tables = build_tables(params)
        rows = [0, 0, 0, 0]
        edges = stage1_edges(params, tables, rows)
        reach = stage2_reach(params, tables, edges)
        assert reach is not None
        assert 0 in stage3_enumerate(params, tables, edges, reach)

    def test_structural_mask_kills_out_of_width(self):
        params = SearchParams(LIFE, 3, 1, 3)
        tables = build_tables(params)
        # leftmost edge: both new-row cells left of the strip must be dead
        left = tables.masks[0]
        for e in range(64):
            if left >> e & 1:
                assert (e & 1) == 0 and (e >> 3 & 1) == 0


# every symmetry and translation; p=2 runs the p2 filter (orthogonal,
# unglided) and p>2 the ll filter; glide with odd and even k
STAGE1_CASES = MODE_CASES + [
    (2, 1, 4, EVEN_MIRROR, ORTHOGONAL),
    (2, 1, 5, ODD_MIRROR, ORTHOGONAL),
    (4, 1, 3, EVEN_MIRROR, ORTHOGONAL),
    (4, 1, 3, GLIDE_REFLECT, ORTHOGONAL),
    (5, 2, 3, GLIDE_REFLECT, ORTHOGONAL),
]


# both mirror symmetries, with the p2 filter (p=2) and the ll filter
MIRROR_CASES = [(p, k, sym) for p, k in ((2, 1), (3, 1), (4, 1)) for sym in (EVEN_MIRROR, ODD_MIRROR)]


def _random_window(rng, n, w):
    # sparse rows (a cell is live with probability 1/4), so that the
    # extended filters see columns that star lets through
    return [rng.getrandbits(w) & rng.getrandbits(w) for _ in range(n)]


def _check_stage1(params, tables, rng, trials):
    hist = history(params)
    for n in (1, params.period, hist - 1, hist, hist + 3):
        for _ in range(trials):
            rows = padded(params, _random_window(rng, n, params.width))
            assert stage1_edges(params, tables, rows) == reference_stage1_edges(params, tables, rows), (n, rows)


class TestCompiledStage1:
    @pytest.mark.parametrize("case", STAGE1_CASES, ids=lambda c: f"p{c[0]}k{c[1]}w{c[2]}-{c[3]}-{c[4]}")
    def test_matches_per_call_reference(self, case):
        p, k, w, sym, tr = case
        rng = random.Random(str(case))
        for rule_s in ("B3/S23", "B36/S125"):
            params = SearchParams(parse_rule(rule_s), p, k, w, sym, tr)
            _check_stage1(params, build_tables(params), rng, 12)

    @pytest.mark.parametrize("case", STAGE1_CASES, ids=lambda c: f"p{c[0]}k{c[1]}w{c[2]}-{c[3]}-{c[4]}")
    def test_matches_after_reduce_width(self, case):
        p, k, _, sym, tr = case
        rng = random.Random(str(case))
        search = Search(SearchParams(LIFE, p, k, 6, sym, tr), SearchConfig(node_capacity=1 << 10))
        _check_stage1(search.params, search.tables, rng, 3)  # compiles the plan for width 6
        reduce_width(search)
        assert search.params.width == 5
        _check_stage1(search.params, search.tables, rng, 6)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 31, 32])
    @pytest.mark.parametrize("case", MIRROR_CASES, ids=lambda c: f"p{c[0]}k{c[1]}-{c[2]}")
    def test_mirror_ghost_widths(self, case, width):
        # the ghost holds 3 reflected cells: equal to the whole reflection
        # for w <= 3, and its dropped cells are never read for wider rows
        p, k, sym = case
        rng = random.Random(repr((case, width)))
        params = SearchParams(LIFE, p, k, width, sym)
        _check_stage1(params, build_tables(params), rng, 12)


# one per symmetry and translation, glide with odd and even k; p=2 runs
# the p2 filter where it applies, p>2 the ll filter
BYTE_MODES = [
    (3, 1, ASYMMETRIC, ORTHOGONAL),
    (2, 1, EVEN_MIRROR, ORTHOGONAL),
    (3, 1, ODD_MIRROR, ORTHOGONAL),
    (2, 1, GLIDE_REFLECT, ORTHOGONAL),
    (3, 2, GLIDE_REFLECT, ORTHOGONAL),
    (4, 1, ASYMMETRIC, DIAGONAL),
]


class TestStage1ByteTables:
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 24, 25, 31, 32])
    @pytest.mark.parametrize("case", BYTE_MODES, ids=lambda c: f"p{c[0]}k{c[1]}-{c[2]}-{c[3]}")
    def test_byte_boundaries_match_reference(self, case, width):
        # each byte of a row has its own table: windows whose one live
        # cell sits next to a byte boundary or at either edge of the row
        # show a cell credited to the wrong byte, a field off by one or a
        # byte left out; dense and sparse windows cover the rest
        p, k, sym, tr = case
        rng = random.Random(repr((case, width)))
        params = SearchParams(LIFE, p, k, width, sym, tr)
        tables = build_tables(params)
        hist = history(params)
        cells = sorted({c for c in (0, 1, 2, 7, 8, 15, 16, 23, 24, width - 1) if c < width})
        for n in (1, hist, hist + 2):
            windows = [[(1 << width) - 1] * n, [rng.getrandbits(width) for _ in range(n)]]
            windows += [_random_window(rng, n, width) for _ in range(6)]
            for at in range(n):
                for cell in cells:
                    rows = [0] * n
                    rows[at] = 1 << cell
                    windows.append(rows)
            for rows in windows:
                rows = padded(params, rows)
                assert stage1_edges(params, tables, rows) == reference_stage1_edges(params, tables, rows), (n, rows)


class TestStage1Plans:
    def test_tables_built_once_per_search_and_per_narrowing(self, monkeypatch):
        # build_tables compiles the plan with the rest of the tables: one
        # build for Search() and one for each narrowing, none for a
        # compaction, a successors() call or a successors_batch call
        built = []
        original = successor_mod._stage1_plan

        def plan(params):
            built.append(params.width)
            return original(params)

        monkeypatch.setattr(successor_mod, "_stage1_plan", plan)
        params = SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR)
        res = run_search(params, SearchConfig(node_capacity=256, max_deepening=6, continue_after_find=True))
        assert res.status.current_width < params.width  # narrowed, so tables were rebuilt
        assert built == list(range(params.width, res.status.current_width - 1, -1))

    def test_tables_built_once_with_every_state_batched(self, monkeypatch):
        # successors_batch reads the search's own tables, so a search
        # whose every chunk goes through it builds no plan of its own
        monkeypatch.setattr(search_mod, "BATCH_MIN", 1)
        self.test_tables_built_once_per_search_and_per_narrowing(monkeypatch)

    def test_reduce_width_builds_the_narrower_plan(self):
        search = Search(SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR), SearchConfig(node_capacity=1 << 10))
        assert search.tables.plan == successor_mod._stage1_plan(search.params)
        old = search.tables
        reduce_width(search)
        assert search.tables is not old
        assert search.tables.plan == successor_mod._stage1_plan(search.params)
        assert search.tables.plan != old.plan

    @pytest.mark.parametrize(
        "case", BYTE_MODES + [(7, 2, EVEN_MIRROR, ORTHOGONAL)], ids=lambda c: f"p{c[0]}k{c[1]}-{c[2]}-{c[3]}"
    )
    def test_width_32_plan_is_small(self, case):
        # at most one 256-entry table per sampled row and byte
        p, k, sym, tr = case
        params = SearchParams(LIFE, p, k, 32, sym, tr)
        hist = history(params)
        reads = build_tables(params).plan
        assert len(reads) <= hist * 4
        assert all(len(table) <= 256 for _, _, table in reads)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 13, 16, 31, 32])
    @pytest.mark.parametrize("case", MODE_CASES, ids=lambda c: f"p{c[0]}k{c[1]}-{c[3]}-{c[4]}")
    def test_each_column_owns_one_32_bit_word(self, case, width):
        # column c's two 13-bit indices are word c of every plan entry, and
        # tables.arrays holds that same word for the columns a table touches
        p, k, _, sym, tr = case
        params = SearchParams(LIFE, p, k, width, sym, tr)
        tables = build_tables(params)
        ncols = len(tables.masks)
        arrays = {(idx, b): (lo, table) for idx, b, lo, table in tables.arrays.reads}
        for idx, b, table in tables.plan:
            fields = [[x >> 32 * c & 0xFFFFFFFF for c in range(ncols)] for x in table]
            for x, words in zip(table, fields):
                assert x == sum(f << 32 * c for c, f in enumerate(words))
                assert all(f < 1 << 26 for f in words)
            lo, cols = arrays.get((idx, b), (0, []))
            for c in range(ncols):
                want = [words[c] for words in fields]
                got = cols[c - lo].tolist() if lo <= c < lo + len(cols) else [0] * len(table)
                assert got == want, (idx, b, c)

    @pytest.mark.parametrize("case", MODE_CASES, ids=lambda c: f"p{c[0]}k{c[1]}-{c[3]}-{c[4]}")
    def test_masks_are_python_ints(self, case):
        # the scalar stages index and AND these per column, which is
        # fastest on Python ints, not NumPy scalars
        p, k, w, sym, tr = case
        tables = build_tables(SearchParams(LIFE, p, k, w, sym, tr))
        for masks in (tables.star_l, tables.filter, tables.masks, [tables.start]):
            assert all(type(m) is int for m in masks)


# every legal mode with p <= 8: each symmetry orthogonally, and diagonal
LEGAL_MODES = [
    (p, k, sym, tr)
    for p in range(2, 9)
    for k in range(1, p)
    if math.gcd(k, p) == 1
    for sym, tr in [(sym, ORTHOGONAL) for sym in SYMMETRIES] + [(ASYMMETRIC, DIAGONAL)]
]


class TestStructuralMasks:
    @pytest.mark.parametrize("case", LEGAL_MODES, ids=lambda c: f"p{c[0]}k{c[1]}-{c[2]}-{c[3]}")
    def test_masks_match_per_edge_definition(self, case):
        p, k, sym, tr = case
        for width in [*range(1, 10), 31, 32]:
            params = SearchParams(LIFE, p, k, width, sym, tr)
            assert build_tables(params).masks == reference_structural_masks(params), width

    @pytest.mark.parametrize("case", LEGAL_MODES, ids=lambda c: f"p{c[0]}k{c[1]}-{c[2]}-{c[3]}")
    def test_last_column_reaches_only_the_end_vertex(self, case):
        # stage2 and stage3 take any edge left in the last column as one
        # into the end vertex (all four cells dead), with no test of
        # their own: its structural mask admits no other, at every width
        # (test_masks_match_per_edge_definition pins the masks)
        p, k, sym, tr = case
        end = edges_with_right_in(1)  # the vertex set {0}
        for width in range(1, 33):
            last = successor_mod._structural_masks(SearchParams(LIFE, p, k, width, sym, tr))[-1]
            assert last and not last & ~end, width


class TestHistory:
    @pytest.mark.parametrize("case", LEGAL_MODES, ids=lambda c: f"p{c[0]}k{c[1]}-{c[2]}-{c[3]}")
    def test_window_length_is_tight(self, case):
        # successors() reads exactly the last history(params) rows: one row
        # fewer raises, and rows put in front change nothing
        p, k, sym, tr = case
        rng = random.Random(repr(case))
        params = SearchParams(LIFE, p, k, 4, sym, tr)
        tables = build_tables(params)
        hist = history(params)
        for trial in range(6):
            window = [0] * hist if trial == 0 else _random_window(rng, hist, 4)
            with pytest.raises(IndexError):
                successors(params, tables, window[1:])
            want = stage1_edges(params, tables, window), successors(params, tables, window)
            for extra in (1, 5):
                longer = [rng.getrandbits(4) for _ in range(extra)] + window
                assert (stage1_edges(params, tables, longer), successors(params, tables, longer)) == want


class TestVertexFolds:
    @staticmethod
    def per_bit(emask, vertex_of):
        out = 0
        for e in range(64):
            if emask >> e & 1:
                out |= 1 << vertex_of[e]
        return out

    # the two byte-pair table steps, on one Python int as the scalar
    # stages take them and on an array as successors_batch does, each
    # with what it stands for
    TABLE_STEPS = [
        (_next_allowed_int, _next_allowed, lambda m: edges_with_left_in(right_vertices(m))),
        (_prev_allowed_int, _prev_allowed, lambda m: edges_with_right_in(left_vertices(m))),
    ]

    @staticmethod
    def check_table_step(int_step, array_step, want, masks):
        got = array_step(np.array(masks, dtype=np.uint64)).tolist()
        bad = [hex(m) for m, g in zip(masks, got) if not g == int_step(m) == want(m)]
        assert not bad, bad[:5]

    def test_single_edges_and_random_masks(self):
        rng = random.Random(15)
        masks = [1 << e for e in range(64)] + [0, (1 << 64) - 1]
        masks += [rng.getrandbits(64) & rng.getrandbits(64) for _ in range(2000)]
        for m in masks:
            assert left_vertices(m) == self.per_bit(m, _LEFT_OF), hex(m)
            assert right_vertices(m) == self.per_bit(m, _RIGHT_OF), hex(m)
        for steps in self.TABLE_STEPS:
            self.check_table_step(*steps, masks)

    def test_table_steps_over_every_group_pair(self):
        # the forward step reads the lt>>1 pairs 0-1 and 2-3, so pair p is
        # the bytes of lt 0 and 2, or of lt 4 and 6; the backward step reads
        # the lt pairs 0-1 and 2-3, whose bytes lie side by side
        pairs = range(1 << 16)
        forward = [(p & 255 | (p >> 8) << 16) << shift for shift in (0, 32) for p in pairs]
        backward = [p << shift for shift in (0, 16) for p in pairs]
        self.check_table_step(*self.TABLE_STEPS[0], forward)
        self.check_table_step(*self.TABLE_STEPS[1], backward)

    def test_table_steps_take_rows_columns_and_single_masks(self):
        # successors_batch's sweep hands the steps the rows of its
        # (columns, windows) array, one entry long for a single window;
        # the steps read e's bytes in a fixed order, whatever its own
        rng = random.Random(16)
        grid = np.array([rng.getrandbits(64) & rng.getrandbits(64) for _ in range(64)], dtype=np.uint64).reshape(8, 8)
        for int_step, array_step, _ in self.TABLE_STEPS:
            # rows, strided columns, one-entry arrays, the other byte order
            for part in [*grid, *grid.T, *grid[:, :1], grid[0, :1], *grid.astype(">u8")]:
                assert array_step(part).tolist() == [int_step(m) for m in part.tolist()]

    def test_module_arrays_under_256_kib(self):
        # successors_batch's lookup tables: its two uint8 tables over every
        # byte pair take 64 KiB each; uint64 tables in their place (512 KiB
        # each) raised the c/2 bench search's peak RSS by a tenth
        arrays = [v for v in vars(successor_mod).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) < 256 * 1024


def _check_stages_2_3(params, tables, rows, max_rows=None):
    """Stage2 dies exactly when the reference does; otherwise stage3 lists
    the reference's rows in the reference's order. Windows with more than
    max_rows rows are skipped before listing them; returns whether stage3
    was compared."""
    edges = stage1_edges(params, tables, rows)
    want_reach = reference_stage2_reach(params, tables, edges)
    reach = stage2_reach(params, tables, edges)
    assert (reach is None) == (want_reach is None), rows
    if reach is None:
        return False
    assert len(reach) == len(tables.masks)  # one mask per edge column
    count = reference_row_count(tables, edges, want_reach)
    if max_rows is not None and count > max_rows:
        return False
    got = stage3_enumerate(params, tables, edges, reach)
    assert got == reference_stage3_enumerate(params, tables, edges, want_reach), rows
    assert len(got) == count
    return True


def _sparse_row(rng, w, sparsity):
    row = rng.getrandbits(w)
    for _ in range(sparsity - 1):
        row &= rng.getrandbits(w)
    return row


class TestStages2And3:
    # rng draws the first windows of each kind and `more` the rest, so the
    # first windows stay the same whatever the count

    @pytest.mark.parametrize("case", MODE_CASES, ids=lambda c: f"p{c[0]}k{c[1]}-{c[3]}-{c[4]}")
    def test_narrow_widths_match_reference(self, case):
        p, k, _, sym, tr = case
        rng, more = random.Random(repr(case)), random.Random(repr(case) + " more")
        compared = 0
        for w in (1, 2, 3, 4):
            params = SearchParams(LIFE, p, k, w, sym, tr)
            tables = build_tables(params)
            for n in range(1, history(params) + 4):
                windows = [[0] * n] + [_random_window(rng, n, w) for _ in range(3)]
                windows += [_random_window(more, n, w) for _ in range(12)]
                for rows in windows:
                    compared += _check_stages_2_3(params, tables, padded(params, rows))
        assert compared > 100

    @pytest.mark.parametrize("case", MODE_CASES, ids=lambda c: f"p{c[0]}k{c[1]}-{c[3]}-{c[4]}")
    def test_wide_widths_match_reference(self, case):
        # most windows this wide that survive stage2 yield 10^4 to 10^6
        # rows, so stage3 is compared on those yielding at most 2000; the
        # stage2 verdict is compared on every window
        p, k, _, sym, tr = case
        rng, more = random.Random(repr(case)), random.Random(repr(case) + " more")
        for w in (29, 30, 31, 32):
            params = SearchParams(LIFE, p, k, w, sym, tr)
            tables = build_tables(params)
            compared = 0
            for n in range(1, history(params) + 4):
                for sparsity in (2, 3, 4):
                    windows = [[_sparse_row(rng, w, sparsity) for _ in range(n)]]
                    windows += [[_sparse_row(more, w, sparsity) for _ in range(n)] for _ in range(3)]
                    for rows in windows:
                        compared += _check_stages_2_3(params, tables, padded(params, rows), max_rows=2000)
            assert compared > 0, w


def _batch_windows(params, tables, rng):
    """All-dead, all-live, random (dense and sparse) and byte-boundary
    windows of history(params) rows, less those yielding over 300 rows."""
    w, hist = params.width, history(params)
    windows = [[0] * hist, [(1 << w) - 1] * hist]
    windows += [[rng.getrandbits(w) for _ in range(hist)] for _ in range(6)]
    windows += [_random_window(rng, hist, w) for _ in range(6)]
    for at in range(hist):
        for cell in sorted({c for c in (0, 7, 8, 15, 16, 23, 24, w - 1) if c < w}):
            rows = [0] * hist
            rows[at] = 1 << cell
            windows.append(rows)
    kept = []
    for rows in windows:
        edges = stage1_edges(params, tables, rows)
        reach = reference_stage2_reach(params, tables, edges)
        if reach is None or reference_row_count(tables, edges, reach) <= 300:
            kept.append(rows)
    return kept


def _batch_rows(params, tables, windows):
    """successors_batch's flat result, checked to be grouped by window in
    order with rows increasing within each, as one list of rows per window."""
    at, rows = successors_batch(params, tables, windows)
    assert at.dtype == np.intp and rows.dtype == np.uint64 and len(at) == len(rows)
    out = [[] for _ in windows]
    for i, row in zip(at.tolist(), rows.tolist()):
        assert not out[i] or out[i][-1] < row
        assert i == len(out) - 1 or not out[i + 1]
        out[i].append(row)
    return out


class TestSuccessorsBatch:
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 13, 16, 17, 31, 32])
    @pytest.mark.parametrize("case", MODE_CASES, ids=lambda c: f"p{c[0]}k{c[1]}-{c[3]}-{c[4]}")
    def test_matches_successors_row_for_row(self, case, width):
        p, k, _, sym, tr = case
        rng = random.Random(repr(case))
        params = SearchParams(LIFE, p, k, width, sym, tr)
        tables = build_tables(params)
        windows = _batch_windows(params, tables, rng)
        want = [successors(params, tables, rows) for rows in windows]
        assert [_batch_rows(params, tables, [rows])[0] for rows in windows] == want
        for i in range(0, len(windows) - 1, 2):
            assert _batch_rows(params, tables, windows[i : i + 2]) == want[i : i + 2]
        # more windows than the search hands the kernel at once (those
        # with few rows, so that the batch stays small), each with two
        # older rows in front, which are not read
        few = [i for i, rows in enumerate(want) if len(rows) <= 16]
        picks = [few[i % len(few)] for i in range(search_mod.BATCH_CHUNK + 5)]
        longer = [[rng.getrandbits(width), rng.getrandbits(width), *windows[i]] for i in picks]
        assert _batch_rows(params, tables, longer) == [want[i] for i in picks]

    def test_window_forms_give_the_same_rows(self):
        # a breadth-first chunk passes arena.windows' uint32 array (a
        # transposed view), a probe step a list of lists of ints
        params = SearchParams(LIFE, 3, 1, 10, EVEN_MIRROR)
        search, hist = Search(params), history(params)
        for _ in range(3):
            search_mod._expand_head(search)
        arena = search.arena
        nodes = [i for i in range(len(arena)) if arena.depth(i) >= hist + 2]  # those that hold hist + 3 rows
        windows = arena.windows(nodes, hist)
        assert windows.dtype == np.uint32 and not windows.flags.c_contiguous and len(windows) > 100
        want = [successors(params, search.tables, rows) for rows in windows.tolist()]
        assert sum(map(len, want)) > 100
        longer = arena.windows(nodes, hist + 3)[:, 3:]  # a slice of longer windows
        for form in (windows, windows.astype(np.intp), np.ascontiguousarray(windows), windows.tolist(), longer):
            assert _batch_rows(params, search.tables, form) == want
        assert _batch_rows(params, search.tables, windows[::3]) == want[::3]

    def test_arrays_built_on_first_batch_and_kept_off_equality(self):
        params = SearchParams(LIFE, 4, 1, 7, EVEN_MIRROR)
        tables = Search(params).tables
        assert "arrays" not in vars(tables)  # Search() builds no NumPy table
        windows = [[0] * history(params)] * 2
        successors_batch(params, tables, windows)
        arrays = tables.arrays
        successors_batch(params, tables, windows)
        assert tables.arrays is arrays
        assert tables == build_tables(params)  # only the fields are compared

    def test_recorded_windows_give_recorded_rows(self):
        recorded = json.loads((ROOT / "bench" / "windows.json").read_text())
        compared = 0
        for source, rec in recorded.items():
            params, _ = search_from_argv(rec["argv"])
            for width in sorted(set(rec["widths"])):
                picks = [i for i, w in enumerate(rec["widths"]) if w == width]
                narrowed = replace(params, width=width)
                got = _batch_rows(narrowed, build_tables(narrowed), [rec["windows"][i] for i in picks])
                assert got == [rec["successors"][i] for i in picks], (source, width)
                compared += len(picks)
        assert compared == sum(len(rec["windows"]) for rec in recorded.values())


class TestSuccessorsBatchOutput:
    # child_keys ORs the rows into uint64 keys and NodeArena.add_children
    # reads the positions as parents

    def test_zero_windows_give_two_empty_arrays(self):
        params = SearchParams(LIFE, 4, 1, 7, EVEN_MIRROR)
        tables = build_tables(params)
        for windows in (np.zeros((0, history(params)), dtype=np.uint32), []):
            at, rows = successors_batch(params, tables, windows)
            assert (at.dtype, at.shape, rows.dtype, rows.shape) == (np.intp, (0,), np.uint64, (0,))

    def test_width_32_rows_with_cell_31(self):
        # windows found by a seeded random search: each yields a few rows,
        # some with cell 31 live, which the batch's sort key holds in its
        # low 32 bits, under the window's position
        params = SearchParams(LIFE, 2, 1, 32, ASYMMETRIC, ORTHOGONAL)
        tables = build_tables(params)
        windows = [
            [0x08236110, 0xC080546B, 0x5060A050, 0x0010A004],
            [0xA4281002, 0x600A0EB3, 0x00421980, 0x40202014],
        ]
        want = [successors(params, tables, rows) for rows in windows]
        assert all(0 < sum(row >> 31 for row in rows) < len(rows) for rows in want)
        picks = [0, 1, 1, 0, 1]
        assert _batch_rows(params, tables, [windows[i] for i in picks]) == [want[i] for i in picks]

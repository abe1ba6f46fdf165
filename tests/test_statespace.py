"""State-space geometry: params validation, merged-index arithmetic, mode
transforms, goal detection, extraction, and the transposition table.

The two "merged sequence of a real ship" tests are the anchor for the
glide and diagonal conventions: they build the interleaved row sequence of
a known ship by hand, straight from an independent set-of-cells evolver,
and require is_consistent to accept it (and to reject a perturbation).
"""

import math
import random
import tracemalloc
from collections import deque
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shipsearch import statespace
from shipsearch.pattern import Pattern
from shipsearch.rules import ROW_WIDTH_LIMIT, parse_rule
from shipsearch.statespace import (
    ASYMMETRIC,
    DIAGONAL,
    EVEN_MIRROR,
    GLIDE_REFLECT,
    ODD_MIRROR,
    ORTHOGONAL,
    NodeArena,
    NodeQueue,
    SearchParams,
    TranspositionTable,
    constraint_indices,
    debruijn_size,
    filter_flags,
    extract_ship,
    is_goal,
    make_initial_state,
    reverse_row,
    state_key,
    transposition_insert,
    transposition_insert_many,
)

from helpers import GLIDER_CELLS, LWSS_CELLS, evolve_cells, is_consistent, merged_sequence, orient_upward

LIFE = parse_rule("B3/S23")


def params_st():
    def build(p, k, w, sym, tr):
        if math.gcd(k, p) != 1 or not 1 <= k < p:
            return None
        if sym == GLIDE_REFLECT and tr != ORTHOGONAL:
            return None
        if tr == DIAGONAL and sym != ASYMMETRIC:
            return None
        return SearchParams(LIFE, p, k, w, sym, tr)

    return (
        st.builds(
            build,
            st.integers(2, 5),
            st.integers(1, 4),
            st.integers(1, 8),
            st.sampled_from([ASYMMETRIC, EVEN_MIRROR, ODD_MIRROR, GLIDE_REFLECT]),
            st.sampled_from([ORTHOGONAL, DIAGONAL]),
        )
        .filter(lambda p: p is not None)
    )


class TestParamsValidation:
    def test_zero_offset(self):
        with pytest.raises(ValueError, match="oscillators"):
            SearchParams(LIFE, 2, 0, 4)

    def test_offset_at_least_period(self):
        with pytest.raises(ValueError, match="k < p"):
            SearchParams(LIFE, 3, 3, 4)

    def test_gcd(self):
        with pytest.raises(ValueError, match="gcd"):
            SearchParams(LIFE, 4, 2, 4)

    def test_width_bounds(self):
        with pytest.raises(ValueError, match="width"):
            SearchParams(LIFE, 2, 1, 0)
        with pytest.raises(ValueError, match="width"):
            SearchParams(LIFE, 2, 1, 33)

    def test_glide_requires_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            SearchParams(LIFE, 2, 1, 4, GLIDE_REFLECT, DIAGONAL)

    def test_diagonal_requires_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            SearchParams(LIFE, 3, 1, 4, EVEN_MIRROR, DIAGONAL)

    def test_valid_params_accepted(self):
        SearchParams(LIFE, 3, 2, 6, GLIDE_REFLECT, ORTHOGONAL)
        SearchParams(LIFE, 4, 3, 5, ASYMMETRIC, DIAGONAL)


class TestIndexArithmetic:
    def test_debruijn_exponent(self):
        assert debruijn_size(SearchParams(LIFE, 7, 1, 9)) == 126
        assert debruijn_size(SearchParams(LIFE, 3, 1, 6)) == 36

    @given(st.integers(2, 7), st.integers(1, 6), st.integers(0, 200))
    def test_generation_row_bijection(self, p, k, i):
        if math.gcd(k, p) != 1 or k >= p:
            return
        params = SearchParams(LIFE, p, k, 4)
        t, y = params.generation_of(i), params.image_row_of(i)
        assert 0 <= t < p
        assert i == p * y + k * t

    def test_constraint_indices_orthogonal(self):
        ci = constraint_indices(SearchParams(LIFE, 3, 1, 4), 10)
        star, look = ci.star, ci.lookahead
        assert (star.above.index, star.mid.index, star.below.index) == (4, 7, 10)
        assert star.result.index == 8
        assert (look.above.index, look.mid.index, look.below.index) == (6, 9, 12)
        assert look.result.index == 10
        assert all(r.shift == 0 and not r.reversed for r in (star.above, star.mid, star.below, star.result))
        # the ll filter's rows, i - 2k and i - p - 2k
        assert [(r.index, r.shift, r.reversed) for r in ci.filter] == [(8, 0, False), (5, 0, False)]

    def test_constraint_indices_p2(self):
        ci = constraint_indices(SearchParams(LIFE, 2, 1, 4), 6)
        star = ci.star
        assert (star.above.index, star.mid.index, star.below.index) == (2, 4, 6)
        assert star.result.index == 5
        assert [r.index for r in ci.filter] == [4, 5]  # p2's two known rows
        assert constraint_indices(SearchParams(LIFE, 2, 1, 4, GLIDE_REFLECT), 6).filter is None

    def test_diagonal_shifts(self):
        # the stored shear is one cell per image row regardless of k
        params = SearchParams(LIFE, 4, 3, 5, ASYMMETRIC, DIAGONAL)
        ci = constraint_indices(params, 20)
        assert ci.star.above.shift == 1
        assert ci.star.mid.shift == 0
        assert ci.star.below.shift == -1
        assert ci.lookahead.above.shift == 1
        assert [r.shift for r in ci.filter] == [0, 1]

    def test_glide_reversal_flags(self):
        def flags(inst):
            return [r.reversed for r in (inst.above, inst.mid, inst.below, inst.result)]

        kodd = constraint_indices(SearchParams(LIFE, 2, 1, 4, GLIDE_REFLECT), 8)
        assert flags(kodd.star) == [False, True, False, True]
        assert flags(kodd.lookahead) == [True, False, True, False]
        keven = constraint_indices(SearchParams(LIFE, 3, 2, 4, GLIDE_REFLECT), 9)
        assert flags(keven.star) == [False, False, False, True]
        assert flags(keven.lookahead) == [True, True, True, False]
        # ll's rows: the lookahead mid and above flags, both flipped for even k
        assert kodd.filter is None  # period-2 glide runs neither filter
        assert [r.reversed for r in keven.filter] == [False, False]
        p3k1 = constraint_indices(SearchParams(LIFE, 3, 1, 4, GLIDE_REFLECT), 9)
        assert [r.reversed for r in p3k1.filter] == [False, True]


class TestRows:
    @given(st.integers(0, 2**8 - 1))
    def test_reverse_row_involution(self, row):
        assert reverse_row(reverse_row(row, 8), 8) == row

    @given(st.integers(0, (1 << (ROW_WIDTH_LIMIT + 8)) - 1))
    def test_reverse_row_matches_per_bit(self, row):
        for width in range(1, ROW_WIDTH_LIMIT + 1):
            naive = 0
            for j in range(width):
                naive |= ((row >> j) & 1) << (width - 1 - j)
            assert reverse_row(row, width) == naive

    def test_reverse_row(self):
        assert reverse_row(0b001, 3) == 0b100
        assert reverse_row(0b1, 1) == 0b1


class TestInitialAndGoal:
    def test_initial_chain(self):
        params = SearchParams(LIFE, 3, 1, 4)
        arena, tip = make_initial_state(params)
        assert len(arena) == 6
        assert arena.depths[tip] == 5
        assert all(r == 0 for r in arena.rows)
        assert state_key(params, arena, tip) == 0

    def test_initial_not_goal(self):
        params = SearchParams(LIFE, 2, 1, 4)
        arena, tip = make_initial_state(params)
        assert not is_goal(params, arena, tip)

    def test_live_tail_not_goal(self):
        params = SearchParams(LIFE, 2, 1, 4)
        arena, tip = make_initial_state(params)
        tip = arena.add(0b0110, tip)
        assert not is_goal(params, arena, tip)

    def test_goal_after_quiet_suffix(self):
        params = SearchParams(LIFE, 2, 1, 4)
        arena, tip = make_initial_state(params)
        tip = arena.add(0b0110, tip)
        for _ in range(4):
            tip = arena.add(0, tip)
        assert is_goal(params, arena, tip)

    def test_goal_sees_a_live_row_at_any_depth(self):
        # the live row can lie any distance behind the 2p dead ones
        params = SearchParams(LIFE, 2, 1, 4)
        arena, tip = make_initial_state(params)
        for _ in range(12):
            tip = arena.add(0, tip)
            assert not is_goal(params, arena, tip)
        tip = arena.add(0b0110, tip)
        for dead in range(1, 12):
            tip = arena.add(0, tip)
            assert is_goal(params, arena, tip) == (dead >= 4)  # 3 dead rows are fewer than 2p


class TestConsistency:
    def test_initial_rows_consistent(self):
        params = SearchParams(LIFE, 2, 1, 4)
        assert is_consistent(params, [0, 0, 0, 0])

    def test_all_dead_any_length(self):
        for sym in (ASYMMETRIC, EVEN_MIRROR, ODD_MIRROR, GLIDE_REFLECT):
            params = SearchParams(LIFE, 3, 1, 4, sym)
            assert is_consistent(params, [0] * 11)

    def test_birth_mismatch_rejected(self):
        # three live cells in r[4] force a birth in r[3], which is dead
        params = SearchParams(LIFE, 2, 1, 3)
        assert not is_consistent(params, [0, 0, 0, 0, 0b111])

    def test_out_of_width_birth_rejected(self):
        # 111 at the right edge births a cell outside the strip
        params = SearchParams(LIFE, 2, 1, 3)
        rows = [0, 0, 0, 0, 0b110, 0, 0b100]
        # r[6]=001? craft explicitly below instead
        assert not is_consistent(params, [0, 0, 0, 0, 0b111, 0, 0b010])


class TestMergedSequences:
    def test_glide_lwss_sequence_consistent(self):
        # LWSS is a glide-reflect ship of half-period 2: its interleaved
        # rows must satisfy every stored constraint instance
        params = SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT)
        cells = orient_upward(LWSS_CELLS, 4, 0)
        gens = evolve_cells(LIFE, cells, 2)
        xs = [x for x, _ in cells]
        ys = [y for _, y in cells]
        # the reflection axis must sit at the center of the width-5 window
        x0 = min(xs)
        levels = 2 * (max(ys) - min(ys) + 1) + 16
        for y0 in (min(ys) - 3, min(ys) - 4):
            rows = merged_sequence(params, gens, x0, y0, levels)
            assert any(rows), "embedding missed the ship"
            assert is_consistent(params, rows)

    def test_glide_perturbation_rejected(self):
        params = SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT)
        cells = orient_upward(LWSS_CELLS, 4, 0)
        gens = evolve_cells(LIFE, cells, 2)
        xs = [x for x, _ in cells]
        ys = [y for _, y in cells]
        rows = merged_sequence(params, gens, min(xs), min(ys) - 3, 40)
        first = next(i for i, r in enumerate(rows) if r)
        rows[first + 5] ^= 0b00100
        assert not is_consistent(params, rows)

    def diagonal_setup(self):
        # the stored frame encodes ships drifting one cell left per k rows
        # of upward motion, so the glider must be oriented up-left
        params = SearchParams(LIFE, 4, 1, 4, ASYMMETRIC, DIAGONAL)
        cells = orient_upward(GLIDER_CELLS, 4, -1)
        gens = evolve_cells(LIFE, cells, 4)
        sheared = [x - y for t in range(4) for (x, y) in gens[t]]
        assert max(sheared) - min(sheared) + 1 <= params.width
        ys = [y for _, y in cells]
        y0 = min(ys) - 2
        x0 = min(sheared) + y0  # shear uses y relative to the sequence start
        levels = 4 * (max(ys) - min(ys) + 1) + 40
        rows = merged_sequence(params, gens, x0, y0, levels)
        return params, rows

    def test_diagonal_glider_sequence_consistent(self):
        params, rows = self.diagonal_setup()
        assert any(rows), "embedding missed the ship"
        assert is_consistent(params, rows)

    def test_diagonal_perturbation_rejected(self):
        params, rows = self.diagonal_setup()
        first = next(i for i, r in enumerate(rows) if r)
        rows[first + 7] ^= 0b0010
        assert not is_consistent(params, rows)


class TestStateKey:
    @given(
        st.lists(st.integers(0, 15), min_size=4, max_size=10),
        st.lists(st.integers(0, 15), min_size=4, max_size=10),
    )
    def test_key_equality_iff_last_rows_equal(self, rows_a, rows_b):
        params = SearchParams(LIFE, 2, 1, 4)
        arena = NodeArena()
        tip_a = -1
        for r in rows_a:
            tip_a = arena.add(r, tip_a)
        tip_b = -1
        for r in rows_b:
            tip_b = arena.add(r, tip_b)
        same_key = state_key(params, arena, tip_a) == state_key(params, arena, tip_b)
        same_rows = arena.rows_back(tip_a, 4) == arena.rows_back(tip_b, 4)
        assert same_key == same_rows


class TestRowsBack:
    @staticmethod
    def per_step(arena, idx, count):
        out = []
        for _ in range(count):
            out.append(arena.rows[idx] if idx >= 0 else 0)
            idx = arena.parents[idx] if idx >= 0 else -1
        return out[::-1]

    @given(
        st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 10**6)), min_size=1, max_size=40),
        st.integers(0, 10**6),
        st.integers(0, 50),
    )
    def test_matches_per_step_walk(self, nodes, pick, count):
        # a random forest: each node's parent is -1 or an earlier node
        arena = NodeArena()
        for row, parent in nodes:
            arena.add(row, parent % (len(arena) + 1) - 1)
        idx = pick % len(arena)
        assert arena.rows_back(idx, count) == self.per_step(arena, idx, count)


    @given(
        st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 10**6)), min_size=1, max_size=40),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=30),
        st.integers(0, 12),
        st.booleans(),
    )
    def test_windows_match_rows_back(self, nodes, picks, count, ordered):
        # any nodes of a random forest, in queue-like order or not, with
        # repeats; walks that leave the arena read dead rows, never rows[-1]
        arena = NodeArena()
        for row, parent in nodes:
            arena.add(row, parent % (len(arena) + 1) - 1)
        picks = [i % len(arena) for i in picks]
        if ordered:
            picks.sort()
        arena.add(2**32 - 1, 0)  # what a walk would read at index -1
        got = arena.windows(picks, count)
        assert got.dtype == np.uint32 and got.shape == (len(picks), count)
        assert got.tolist() == [arena.rows_back(i, count) for i in picks]


class TestAddChildren:
    @given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 10**6)), min_size=1, max_size=30), st.data())
    def test_matches_add_per_child(self, nodes, data):
        one, bulk = NodeArena(), NodeArena()
        for row, parent in nodes:
            for arena in (one, bulk):
                arena.add(row, parent % (len(arena) + 1) - 1)
        parents = data.draw(st.lists(st.integers(0, len(one) - 1), max_size=10))
        counts = data.draw(st.lists(st.integers(0, 4), min_size=len(parents), max_size=len(parents)))
        rows = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=sum(counts), max_size=sum(counts)))
        it = iter(rows)
        for parent, count in zip(parents, counts):
            for _ in range(count):
                one.add(next(it), parent)
        bulk.add_children(np.repeat(parents, counts), rows)
        assert (bulk.rows, bulk.parents, bulk.depths) == (one.rows, one.parents, one.depths)

    def test_scalar_reads_are_python_ints(self):
        # fold_rows and state keys shift rows left: a NumPy scalar would wrap
        params = SearchParams(LIFE, 3, 1, 6)
        arena, tip = make_initial_state(params)
        n = len(arena)
        arena.add_children(np.repeat([tip, tip], [2, 1]), np.array([5, 0, 63], dtype=np.uint64))

        def reads(arena, idx):
            return [arena.add(7, idx), *arena.rows_back(idx, 7), *arena.all_rows(idx), arena.depths[idx], arena.parents[idx]]

        checked = reads(arena, n + 2)
        arena.truncate(n + 2)
        checked += reads(arena, n + 1)
        arena, tips = arena.ancestry(np.array([n + 1, n + 2]))
        checked += reads(arena, int(tips[1])) + [arena.rows[-1]]
        assert len(checked) == 53 and all(type(value) is int for value in checked)


class TestNodeQueue:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_deque(self, seed):
        # random pops and extends, of one node or several, against a
        # deque, long enough for the popped part to be cut off many times
        rng = random.Random(seed)
        queue, model = NodeQueue([5, 6]), deque([5, 6])
        trims = 0
        for _ in range(3000):
            op = rng.random()
            if op < 0.4:
                n = rng.randrange(len(model) + 1)
                head = queue._head
                queue.pop(n)
                for _ in range(n):
                    model.popleft()
                trims += queue._head < head + n
            elif op < 0.7:
                node = rng.randrange(-1, 2**31)
                queue.extend([node])
                model.append(node)
            else:
                nodes = [rng.randrange(2**31) for _ in range(rng.randrange(12))]
                queue.extend(np.array(nodes, dtype=rng.choice([np.int32, np.int64, np.intp])))
                model.extend(nodes)
            assert len(queue) == len(model) and queue._head <= len(queue._nodes) // 2
            n = rng.randrange(len(model) + 2)
            head = queue.nodes(n)
            assert head.dtype == np.int32 and head.tolist() == list(model)[:n]
            if model:
                assert type(queue[0]) is int and queue[0] == model[0] and queue[len(model) - 1] == model[-1]
        assert queue.nodes().tolist() == list(model)
        assert trims > 20

    def test_bounds(self):
        queue = NodeQueue(np.arange(3))
        with pytest.raises(IndexError):
            queue[3]
        with pytest.raises(IndexError):
            queue.pop(4)
        queue.pop(3)
        assert not queue and queue.nodes().tolist() == []
        with pytest.raises(IndexError):
            queue[0]


class TestFilterFlags:
    # (use_ll, use_p2) per mode: ll at every period but 2, p2 at period 2
    # unless glide or diagonal
    EXPECTED = [
        (2, 1, ASYMMETRIC, ORTHOGONAL, (False, True)),
        (2, 1, EVEN_MIRROR, ORTHOGONAL, (False, True)),
        (2, 1, ODD_MIRROR, ORTHOGONAL, (False, True)),
        (2, 1, GLIDE_REFLECT, ORTHOGONAL, (False, False)),
        (2, 1, ASYMMETRIC, DIAGONAL, (False, False)),
        (3, 1, ASYMMETRIC, ORTHOGONAL, (True, False)),
        (3, 2, EVEN_MIRROR, ORTHOGONAL, (True, False)),
        (4, 1, ODD_MIRROR, ORTHOGONAL, (True, False)),
        (3, 1, GLIDE_REFLECT, ORTHOGONAL, (True, False)),
        (5, 2, GLIDE_REFLECT, ORTHOGONAL, (True, False)),
        (4, 1, ASYMMETRIC, DIAGONAL, (True, False)),
    ]

    @pytest.mark.parametrize("case", EXPECTED, ids=lambda c: f"p{c[0]}k{c[1]}-{c[2]}-{c[3]}")
    def test_flags_per_mode(self, case):
        p, k, sym, tr, flags = case
        params = SearchParams(LIFE, p, k, 4, sym, tr)
        assert filter_flags(params) == flags


class TestTransposition:
    def make(self):
        params = SearchParams(LIFE, 2, 1, 4)
        arena, tip = make_initial_state(params)
        return params, arena, tip, TranspositionTable(params)

    def test_initial_twice_is_duplicate(self):
        params, arena, tip, table = self.make()
        key = state_key(params, arena, tip)
        assert transposition_insert(table, key, tip) == ("fresh", None)
        verdict, kept = transposition_insert(table, key, tip)
        assert verdict == "duplicate" and kept == tip

    def test_same_suffix_is_duplicate(self):
        params, arena, tip, table = self.make()
        a = arena.add(0b1, tip)
        for _ in range(4):
            a = arena.add(0, a)
        b = arena.add(0b10, tip)
        for _ in range(4):
            b = arena.add(0, b)
        assert transposition_insert(table, state_key(params, arena, a), a) == ("fresh", None)
        verdict, kept = transposition_insert(table, state_key(params, arena, b), b)
        assert verdict == "duplicate" and kept == a

    def test_distinct_suffixes_are_fresh(self):
        params, arena, tip, table = self.make()
        a = arena.add(0b1, tip)
        b = arena.add(0b10, tip)
        assert transposition_insert(table, state_key(params, arena, a), a)[0] == "fresh"
        assert transposition_insert(table, state_key(params, arena, b), b)[0] == "fresh"
        assert dict(table.items()) == {state_key(params, arena, a): a, state_key(params, arena, b): b}

    @pytest.mark.parametrize("width", [16, 18], ids=["64-bit-one-limb", "72-bit-two-limbs"])
    @given(
        st.lists(st.tuples(st.integers(0, 2**72 - 1), st.booleans()), max_size=40),
        st.lists(st.integers(0, 2**72 - 1), max_size=10),
        st.integers(0, 10**6),
    )
    def test_many_matches_one_at_a_time(self, width, drawn, before, first):
        # first offer wins, in order, against the table and within the
        # batch; a key may come with its lowest bit flipped next to it,
        # which a pass through float64 would merge above 2^53; the nodes
        # offered are every other one from first, so a node read from a
        # key's position shows
        params = SearchParams(LIFE, 2, 1, width)
        mask = (1 << 4 * width) - 1
        keys = [k & mask for key, pair in drawn for k in ((key, key ^ 1) if pair else (key,))]
        before = [key & mask for key in before]
        nodes = range(first, first + 2 * len(keys), 2)
        one, bulk = TranspositionTable(params), TranspositionTable(params)
        for i, key in enumerate(before):
            transposition_insert(one, key, -1 - i)
            transposition_insert(bulk, key, -1 - i)
        want = [idx for idx, key in zip(nodes, keys) if transposition_insert(one, key, idx)[0] == "fresh"]
        got = transposition_insert_many(bulk, bulk.limbs_of(keys), np.array(nodes))
        assert got.dtype == np.int32 and got.tolist() == want
        assert dict(bulk.items()) == dict(one.items())
        assert all(bulk.get(key) == one.get(key) for key in keys + before)


class TestTranspositionFolds:
    # one, one, two and three limbs: 16-, 64-, 72- and 186-bit keys
    KEY_PARAMS = [
        SearchParams(LIFE, 2, 1, 4),
        SearchParams(LIFE, 2, 1, 16),
        SearchParams(LIFE, 2, 1, 18),
        SearchParams(LIFE, 3, 1, 31),
    ]

    @staticmethod
    def offers(bits):
        # a scalar offer or a chunk; a key is new, or the j-th one drawn
        # before (a repeat, also within its chunk), or that one with its
        # lowest bit flipped
        key = st.one_of(st.integers(0, 2**bits - 1), st.tuples(st.integers(0, 10**6), st.booleans()))
        return st.lists(st.one_of(key, st.lists(key, max_size=12)), min_size=8, max_size=40)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KEY_PARAMS), st.data())
    def test_matches_a_dict(self, params, data):
        # every verdict, kept node and fresh list equals a plain dict's,
        # with the dict folded into the sorted part every few offers
        ops = data.draw(self.offers(2 * params.period * params.width))
        with mock.patch.object(statespace, "RECENT_MIN", 2):
            table, ref, drawn = TranspositionTable(params), {}, []
            node, folds, fresh_calls = 0, 0, 0

            def resolve(key):
                key = drawn[key[0] % len(drawn)] ^ key[1] if isinstance(key, tuple) and drawn else key
                key = 0 if isinstance(key, tuple) else key
                drawn.append(key)
                return key

            for op in ops:
                sorted_before, known = len(table.keys), len(ref)
                if isinstance(op, list):
                    keys = [resolve(key) for key in op]
                    want = [i for i, key in enumerate(keys, node) if ref.setdefault(key, i) == i]
                    assert transposition_insert_many(table, table.limbs_of(keys), np.arange(node, node + len(keys))).tolist() == want
                    node += len(keys)
                else:
                    key = resolve(op)
                    kept = ref.setdefault(key, node)
                    assert transposition_insert(table, key, node) == (("fresh", None) if kept == node else ("duplicate", kept))
                    node += 1
                folds += len(table.keys) > sorted_before
                fresh_calls += len(ref) > known
                # two strictly increasing parts with no key in both, the
                # run folded once it passes RECENT_MIN and an eighth
                run, folded = table.run_keys, table.keys
                assert (run[1:] > run[:-1]).all() and (folded[1:] > folded[:-1]).all()
                assert not set(run.tolist()) & set(folded.tolist())
                assert len(run) <= max(statespace.RECENT_MIN, len(folded) // 8)
                assert len(table) == len(ref)
                assert all(table.get(key) == ref[key] for key in drawn)
            assert dict(table.items()) == ref
            assert folds >= 2 or fresh_calls < 6

    def test_folds_at_recent_min(self):
        # at the real threshold: the run folds once it holds more than
        # RECENT_MIN entries and more than an eighth of the sorted part
        params = SearchParams(LIFE, 2, 1, 8)
        table, rng = TranspositionTable(params), np.random.default_rng(0)
        sizes = []
        for first in range(0, 40000, 1000):
            keys = rng.integers(0, 2**32, size=(1000, 1), dtype=np.uint64)
            transposition_insert_many(table, keys, np.arange(first, first + 1000))
            sizes.append((len(table.keys), len(table.run_keys)))
        folded = [size for size in sizes if size[1] == 0]
        assert len(folded) >= 4 and folded[0] == (5000, 0)  # the fifth chunk passes RECENT_MIN
        assert all(run <= max(statespace.RECENT_MIN, keys // 8) for keys, run in sizes)

    def test_fold_copies_keys_and_nodes_one_after_the_other(self):
        # a sorted part of 200,000 64-bit keys and a run of an eighth of
        # that, folded by one more scalar offer: the fold drops the old
        # keys before it merges the nodes, so the heap never grows by
        # as much as the old sorted part takes (both at once took about
        # 1.5 times that)
        params = SearchParams(LIFE, 2, 1, 16)
        n = 200_000
        tracemalloc.start()
        try:
            table = TranspositionTable(params)
            keys = np.random.default_rng(0).integers(0, 2**63, size=(n + n // 8, 1), dtype=np.uint64)
            transposition_insert_many(table, keys[:n], np.arange(n))
            transposition_insert_many(table, keys[n:], np.arange(n, len(keys)))
            del keys
            assert len(table.keys) == n and len(table.run_keys) == n // 8
            old = table.keys.nbytes + table.nodes.nbytes
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            transposition_insert(table, 1 << 63, -1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.keys) == n + n // 8 + 1 and not len(table.run_keys)
        assert peak - held < old


class TestExtraction:
    def test_even_mirror_rows_doubled(self):
        params = SearchParams(LIFE, 2, 1, 3, EVEN_MIRROR)
        arena, tip = make_initial_state(params)
        tip = arena.add(0b001, tip)
        for _ in range(4):
            tip = arena.add(0, tip)
        ship = extract_ship(params, arena.all_rows(tip))
        # cell 0 lives beside the axis, so it doubles into 11
        assert ship == Pattern((0b11,), 2)

    def test_odd_mirror_rows_doubled(self):
        params = SearchParams(LIFE, 2, 1, 3, ODD_MIRROR)
        arena, tip = make_initial_state(params)
        tip = arena.add(0b011, tip)
        for _ in range(4):
            tip = arena.add(0, tip)
        ship = extract_ship(params, arena.all_rows(tip))
        # cell 0 sits on the axis, cell 1 reflects around it: 111
        assert ship == Pattern((0b111,), 3)

    @pytest.mark.parametrize(
        "sym, want", [(EVEN_MIRROR, Pattern((0b100001, 0b001100), 6)), (ODD_MIRROR, Pattern((0b10001, 0b00100), 5))]
    )
    def test_rows_wider_than_a_narrowed_strip(self, sym, want):
        # the older row uses a third column that a narrowing has since
        # dropped: every row is still mirrored about the same axis
        wide = SearchParams(LIFE, 2, 1, 3, sym)
        arena, tip = make_initial_state(wide)
        for row in (0b100, 0, 0b001):
            tip = arena.add(row, tip)
        for _ in range(4):
            tip = arena.add(0, tip)
        narrowed = replace(wide, width=2)
        assert extract_ship(narrowed, arena.all_rows(tip)) == extract_ship(wide, arena.all_rows(tip)) == want

    def test_phase_rows_every_period(self):
        params = SearchParams(LIFE, 2, 1, 4)
        arena, tip = make_initial_state(params)
        for row in (0b0010, 0b0101, 0b0110, 0b1001):
            tip = arena.add(row, tip)
        for _ in range(4):
            tip = arena.add(0, tip)
        ship = extract_ship(params, arena.all_rows(tip))
        # picks rows 4, 6, 8 = 0010, 0110, 0000 then trims to two columns
        assert ship == Pattern((0b01, 0b11), 2)

    def test_diagonal_shear_applied(self):
        params = SearchParams(LIFE, 2, 1, 3, ASYMMETRIC, DIAGONAL)
        arena, tip = make_initial_state(params)
        for row in (0b001, 0, 0b001, 0):
            tip = arena.add(row, tip)
        for _ in range(4):
            tip = arena.add(0, tip)
        ship = extract_ship(params, arena.all_rows(tip))
        # rows 100 and 100 at shear 0 and 1 line up diagonally
        assert ship == Pattern((0b01, 0b10), 2)

"""State-space geometry: params validation, merged-index arithmetic, mode
transforms, goal detection, extraction, and the transposition table.

The two "merged sequence of a real ship" tests are the anchor for the
glide and diagonal conventions: they build the interleaved row sequence of
a known ship by hand, straight from an independent set-of-cells evolver,
and require is_consistent to accept it (and to reject a perturbation).
"""

import cProfile
import math
import random
import subprocess
import sys
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

from helpers import (
    GLIDER_CELLS,
    LWSS_CELLS,
    evolve_cells,
    int_keys,
    is_consistent,
    level_ordered_forest,
    merged_sequence,
    orient_upward,
    walk_depths,
)

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
        assert arena.depth(tip) == 5
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
        # both chains in one arena, grown a level at a time
        params = SearchParams(LIFE, 2, 1, 4)
        arena = NodeArena()
        tip_a = tip_b = -1
        for level in range(max(len(rows_a), len(rows_b))):
            if level < len(rows_a):
                tip_a = arena.add(rows_a[level], tip_a)
            if level < len(rows_b):
                tip_b = arena.add(rows_b[level], tip_b)
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
        # a random forest in level order
        arena = level_ordered_forest(nodes)
        idx = pick % len(arena)
        assert arena.rows_back(idx, count) == self.per_step(arena, idx, count)


    @given(
        st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 10**6)), min_size=1, max_size=40),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=30),
        st.integers(0, 12),
        st.booleans(),
    )
    def test_windows_match_rows_back(self, nodes, picks, count, ordered):
        # any nodes of a random forest in level order, in queue-like
        # order or not, with repeats: those whose walks stay inside the
        # forest for count rows read what rows_back reads, and a set with
        # one walk that would pass a root raises
        arena = level_ordered_forest(nodes)
        picks = [i % len(arena) for i in picks]
        if ordered:
            picks.sort()
        inside = [i for i in picks if arena.depth(i) >= count - 1]
        got = arena.windows(inside, count)
        assert got.dtype == np.uint32 and got.shape == (len(inside), count)
        assert got.tolist() == [arena.rows_back(i, count) for i in inside]
        if len(inside) < len(picks):
            with pytest.raises(ValueError, match="past a root"):
                arena.windows(picks, count)

    @pytest.mark.parametrize("count", range(1, statespace.history(SearchParams(LIFE, 4, 1, 7)) + 3))
    def test_windows_of_deep_shallow_and_mixed_nodes(self, count):
        # a forest of live rows, its first root among them, levels
        # 0..count + 1 deep, and the arena ancestry() rebuilds from some of
        # its nodes; on each, node sets whose walks all stay inside the
        # arena for count rows (the deep ones) read what rows_back reads,
        # and sets with a walk that would leave it (the shallow ones, or
        # some of each) raise, in any order, with repeats
        rng = random.Random(count)
        arena, level = NodeArena(), [-1]
        for _ in range(count + 2):
            level = [arena.add(rng.randrange(1, 2**32), rng.choice(level)) for _ in range(rng.randint(1, 4))]
        tips = sorted({*rng.sample(range(len(arena)), 4), len(arena) - 1})  # the last is deepest
        for forest in (arena, arena.ancestry(np.array(tips))[0]):
            deep = [i for i in range(len(forest)) if forest.depth(i) >= count - 1]
            shallow = [i for i in range(len(forest)) if forest.depth(i) < count - 1]
            assert forest.rows[0] and deep and (shallow or count == 1)
            picks = rng.choices(deep, k=12)
            got = forest.windows(picks, count)
            assert got.shape == (len(picks), count)
            assert got.tolist() == [forest.rows_back(i, count) for i in picks]
            if shallow:
                for nodes in (rng.choices(shallow, k=12), rng.sample(picks + rng.choices(shallow, k=3), 15)):
                    with pytest.raises(ValueError, match="past a root"):
                        forest.windows(nodes, count)


class TestAddChildren:
    @given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 10**6)), min_size=1, max_size=30), st.data())
    def test_matches_add_per_child(self, nodes, data):
        # the parents, in index order, come from the last two levels of a
        # random forest in level order, so the children keep that order
        one, bulk = level_ordered_forest(nodes), level_ordered_forest(nodes)
        depths = walk_depths(one)
        low = depths.index(max(depths[-1] - 1, 0))
        parents = sorted(data.draw(st.lists(st.integers(low, len(one) - 1), max_size=10)))
        counts = data.draw(st.lists(st.integers(0, 4), min_size=len(parents), max_size=len(parents)))
        rows = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=sum(counts), max_size=sum(counts)))
        it = iter(rows)
        for parent, count in zip(parents, counts):
            for _ in range(count):
                one.add(next(it), parent)
        bulk.add_children(np.repeat(parents, counts), rows)
        assert (bulk.rows, bulk.parents, bulk.starts) == (one.rows, one.parents, one.starts)

    def test_scalar_reads_are_python_ints(self):
        # fold_rows and state keys shift rows left: a NumPy scalar would wrap
        params = SearchParams(LIFE, 3, 1, 6)
        arena, tip = make_initial_state(params)
        n = len(arena)
        arena.add_children(np.repeat([tip, tip], [2, 1]), np.array([5, 0, 63], dtype=np.uint64))

        def reads(arena, idx):
            return [arena.add(7, idx), *arena.rows_back(idx, 7), *arena.all_rows(idx), arena.depth(idx), arena.parents[idx]]

        checked = reads(arena, n + 2)
        arena.truncate(n + 2)
        checked += reads(arena, n + 1)
        arena, tips = arena.ancestry(np.array([n + 1, n + 2]))
        checked += reads(arena, int(tips[1])) + [arena.rows[-1]]
        assert len(checked) == 53 and all(type(value) is int for value in checked)


FORESTS = st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 10**6)), min_size=1, max_size=40)


class TestLevelOrder:
    @staticmethod
    def check(arena):
        assert [arena.depth(i) for i in range(len(arena))] == walk_depths(arena)

    @given(FORESTS, st.data())
    def test_depths_follow_the_parents(self, nodes, data):
        # after every add, add_children, truncate and ancestry, the depth
        # read from the level starts is the one counted along the parents
        arena = level_ordered_forest(nodes)
        self.check(arena)
        depths = walk_depths(arena)
        low = depths.index(max(depths[-1] - 1, 0))
        parents = sorted(data.draw(st.lists(st.integers(low, len(arena) - 1), max_size=12)))
        arena.add_children(parents, np.arange(len(parents), dtype=np.uint64))
        self.check(arena)
        arena.truncate(data.draw(st.integers(0, len(arena))))
        self.check(arena)
        arena.add(1, len(arena) - 1)  # a root, if truncate emptied the arena
        self.check(arena)
        tips = data.draw(st.lists(st.integers(0, len(arena) - 1), min_size=1, unique=True))
        fresh, at = arena.ancestry(np.array(sorted(tips)))
        self.check(fresh)
        assert [fresh.all_rows(i) for i in at.tolist()] == [arena.all_rows(i) for i in sorted(tips)]
        fresh.add(2, len(fresh) - 1)
        self.check(fresh)

    @given(FORESTS, st.integers(0, 10**6))
    def test_appends_out_of_level_order_raise(self, nodes, pick):
        # a child of a node two or more levels above the last node, or a
        # new root once there are two levels, would be shallower than the
        # last node, alone or first in a bulk append; children whose
        # depths fall within one bulk append break the order too; the
        # arena is left as it was
        arena = level_ordered_forest(nodes)
        for _ in range(2):  # the last node two levels below a root at least
            arena.add(0, len(arena) - 1)
        depths = walk_depths(arena)
        before = (arena.rows.tolist(), arena.parents.tolist(), list(arena.starts))
        shallow = [-1, *(i for i, depth in enumerate(depths) if depth < depths[-1] - 1)]
        parent = shallow[pick % len(shallow)]
        with pytest.raises(ValueError, match="level order"):
            arena.add(0, parent)
        with pytest.raises(ValueError, match="level order"):
            arena.add_children([parent, len(arena) - 1], np.zeros(2, dtype=np.uint64))
        with pytest.raises(ValueError, match="level order"):
            arena.add_children([len(arena) - 1, depths.index(depths[-1] - 1)], np.zeros(2, dtype=np.uint64))
        assert (arena.rows.tolist(), arena.parents.tolist(), arena.starts) == before


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
        assert transposition_insert(table, key) == ("fresh",)
        assert transposition_insert(table, key) == ("duplicate",)
        assert int_keys(table) == [key]

    def test_same_suffix_is_duplicate(self):
        # both paths grown a level at a time, as the arena keeps them
        params, arena, tip, table = self.make()
        a, b = arena.add(0b1, tip), arena.add(0b10, tip)
        for _ in range(4):
            a, b = arena.add(0, a), arena.add(0, b)
        assert transposition_insert(table, state_key(params, arena, a)) == ("fresh",)
        assert transposition_insert(table, state_key(params, arena, b)) == ("duplicate",)

    def test_distinct_suffixes_are_fresh(self):
        params, arena, tip, table = self.make()
        a = arena.add(0b1, tip)
        b = arena.add(0b10, tip)
        assert transposition_insert(table, state_key(params, arena, a)) == ("fresh",)
        assert transposition_insert(table, state_key(params, arena, b)) == ("fresh",)
        assert set(int_keys(table)) == {state_key(params, arena, a), state_key(params, arena, b)} and len(table) == 2

    @pytest.mark.parametrize("width", [16, 18], ids=["64-bit-one-limb", "72-bit-two-limbs"])
    @given(
        st.lists(st.tuples(st.integers(0, 2**72 - 1), st.booleans()), max_size=40),
        st.lists(st.integers(0, 2**72 - 1), max_size=10),
    )
    def test_many_matches_one_at_a_time(self, width, drawn, before):
        # first offer wins, in order, against the table and within the
        # batch; a key may come with its lowest bit flipped next to it,
        # which a pass through float64 would merge above 2^53
        params = SearchParams(LIFE, 2, 1, width)
        mask = (1 << 4 * width) - 1
        keys = [k & mask for key, pair in drawn for k in ((key, key ^ 1) if pair else (key,))]
        before = [key & mask for key in before]
        one, bulk = TranspositionTable(params), TranspositionTable(params)
        for key in before:
            transposition_insert(one, key)
            transposition_insert(bulk, key)
        want = [i for i, key in enumerate(keys) if transposition_insert(one, key) == ("fresh",)]
        got = transposition_insert_many(bulk, bulk.limbs_of(keys))
        assert got.dtype == np.intp and got.tolist() == want
        assert sorted(int_keys(bulk)) == sorted(int_keys(one)) == sorted(set(keys + before))


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
        # every verdict and fresh list equals a plain set's, with the set
        # folded into the sorted part every few offers
        ops = data.draw(self.offers(2 * params.period * params.width))
        with mock.patch.object(statespace, "RECENT_MIN", 2):
            table, ref, drawn = TranspositionTable(params), set(), []
            folds, fresh_calls = 0, 0

            def resolve(key):
                key = drawn[key[0] % len(drawn)] ^ key[1] if isinstance(key, tuple) and drawn else key
                key = 0 if isinstance(key, tuple) else key
                drawn.append(key)
                return key

            def fresh(key):
                known = key in ref
                ref.add(key)
                return not known

            for op in ops:
                sorted_before, known = len(table.keys), len(ref)
                if isinstance(op, list):
                    keys = [resolve(key) for key in op]
                    want = [i for i, key in enumerate(keys) if fresh(key)]
                    assert transposition_insert_many(table, table.limbs_of(keys)).tolist() == want
                else:
                    key = resolve(op)
                    assert transposition_insert(table, key) == (("fresh",) if fresh(key) else ("duplicate",))
                folds += len(table.keys) > sorted_before
                fresh_calls += len(ref) > known
                # two strictly increasing parts with no key in both, the
                # run folded once it passes RECENT_MIN and an eighth
                run, folded = table.run_keys, table.keys
                assert (run[1:] > run[:-1]).all() and (folded[1:] > folded[:-1]).all()
                assert not set(run.tolist()) & set(folded.tolist())
                assert len(run) <= max(statespace.RECENT_MIN, len(folded) // 8)
                del run, folded  # a fold resizes the sorted part, which no one else may hold
                assert len(table) == len(ref)
                assert set(drawn) <= set(int_keys(table))
            assert set(int_keys(table)) == ref
            assert folds >= 2 or fresh_calls < 6

    @pytest.mark.parametrize(
        "params, limbs",
        [(SearchParams(LIFE, 2, 1, 16), 1), (SearchParams(LIFE, 2, 1, 18), 2), (SearchParams(LIFE, 5, 1, 22), 5)],
        ids=["one-limb", "two-limbs", "five-limbs"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_chunks_across_folds_match_a_set(self, params, limbs, seed):
        # chunks of offers against a plain set, a fold due every few
        # chunks: a chunk may repeat its own keys, the run's and the sorted
        # part's, bring keys below the sorted part's first and above its
        # last, and fold a run that earlier chunks began (it straddles the
        # fold); every kind comes up
        bits = 2 * params.period * params.width
        rng = random.Random(seed)
        kinds = ["batch", "run", "sorted", "below", "above", "new"]
        seen = dict.fromkeys([*kinds, "straddle"], 0)
        with mock.patch.object(statespace, "RECENT_MIN", 16):
            table, ref = TranspositionTable(params), set()
            assert table.limbs == limbs
            for _ in range(60):
                known = int_keys(table)
                folded, run = known[: len(table.keys)], known[len(table.keys) :]
                chunk = []
                for _ in range(rng.randint(1, 24)):
                    kind = rng.choice(kinds)
                    if kind == "batch" and chunk:
                        key = rng.choice(chunk)
                    elif kind == "run" and run:
                        key = rng.choice(run)
                    elif kind == "sorted" and folded:
                        key = rng.choice(folded)
                    elif kind == "below" and folded:
                        key = rng.randrange(folded[0])
                    elif kind == "above" and folded:
                        key = rng.randrange(folded[-1] + 1, 2**bits)
                    else:  # room below and above
                        kind, key = "new", rng.randrange(2 ** (bits - 2), 2 ** (bits - 1))
                    seen[kind] += 1
                    chunk.append(key)
                want = []
                for i, key in enumerate(chunk):
                    if key not in ref:
                        ref.add(key)
                        want.append(i)
                assert transposition_insert_many(table, table.limbs_of(chunk)).tolist() == want
                seen["straddle"] += bool(run) and len(table.keys) > len(folded)
                assert (table.keys[1:] > table.keys[:-1]).all() and (table.run_keys[1:] > table.run_keys[:-1]).all()
                assert len(table) == len(ref)
            assert set(int_keys(table)) == ref
        assert all(seen.values()), seen

    def test_folds_at_recent_min(self):
        # at the real threshold: the run folds once it holds more than
        # RECENT_MIN keys and more than an eighth of the sorted part
        params = SearchParams(LIFE, 2, 1, 8)
        table, rng = TranspositionTable(params), np.random.default_rng(0)
        sizes = []
        for _ in range(40):
            keys = rng.integers(0, 2**32, size=(1000, 1), dtype=np.uint64)
            transposition_insert_many(table, keys)
            sizes.append((len(table.keys), len(table.run_keys)))
        folded = [size for size in sizes if size[1] == 0]
        assert len(folded) >= 4 and folded[0] == (5000, 0)  # the fifth chunk passes RECENT_MIN
        assert all(run <= max(statespace.RECENT_MIN, keys // 8) for keys, run in sizes)

    @staticmethod
    def refused(table, keys):
        # an offer of fresh keys while a view of the table's keys lives
        # raises BufferError, as the typed array under them may not grow,
        # and leaves the table as it was
        before = len(table), table.keys.copy(), table.run_keys.copy()
        with pytest.raises(BufferError):
            transposition_insert_many(table, keys)
        assert len(table) == before[0]
        assert np.array_equal(table.keys, before[1]) and np.array_equal(table.run_keys, before[2])

    def test_fold_refuses_a_live_view(self):
        # the keys grow in place: a view of them that outlived the offer
        # would dangle, so the offer raises instead
        params = SearchParams(LIFE, 2, 1, 8)
        table, rng = TranspositionTable(params), np.random.default_rng(1)
        transposition_insert_many(table, rng.integers(0, 2**32, size=(5000, 1), dtype=np.uint64))
        assert len(table.keys) == 5000 and not len(table.run_keys)
        view = table.keys[:10]
        self.refused(table, rng.integers(0, 2**32, size=(5000, 1), dtype=np.uint64))
        del view
        transposition_insert_many(table, rng.integers(0, 2**32, size=(5000, 1), dtype=np.uint64))
        assert (table.keys[1:] > table.keys[:-1]).all()

    def test_folds_under_a_profiler(self):
        # a profiler holds one more reference to an array while a method of
        # it runs, which is no view of the keys: the fold still merges, and
        # an offer still refuses a real view
        params = SearchParams(LIFE, 2, 1, 8)
        table, rng = TranspositionTable(params), np.random.default_rng(2)
        keys = rng.integers(0, 2**32, size=(15000, 1), dtype=np.uint64)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            for lo in range(0, 10000, 5000):
                transposition_insert_many(table, keys[lo : lo + 5000])
            assert len(table.keys) == len(np.unique(keys[:10000])) and not len(table.run_keys)
            view = table.run_keys
            self.refused(table, keys[10000:])
            del view
            transposition_insert_many(table, keys[10000:])
        finally:
            profiler.disable()
        assert len(table.keys) == len(np.unique(keys)) and not len(table.run_keys)
        assert (table.keys[1:] > table.keys[:-1]).all() and set(int_keys(table)) == set(keys[:, 0].tolist())

    @pytest.mark.parametrize("width", [16, 18], ids=["64-bit-one-limb", "72-bit-two-limbs"])
    def test_fold_holds_one_merged_copy(self, width):
        # a sorted part of 200,000 keys and a run of an eighth of that,
        # folded by one more scalar offer. This is tracemalloc's view
        # only: the run already sits after the sorted part in the table's
        # one array, and the fold sorts that array in place, so tracemalloc
        # sees only the offer's own scratch (0.002 times the old sorted
        # part, against 0.13 for growing a separate sorted part by the
        # run's slots, 0.52 and 0.38 for the slice-by-slice merge that the
        # bound was set for and 1.64 and 1.38 for a merge into a new
        # array). It does not see the stable sort's merge buffer, of up to
        # the run's size, which NumPy allocates outside tracemalloc;
        # test_fold_peak_resident_memory bounds the resident peak
        params = SearchParams(LIFE, 2, 1, width)
        n = 200_000
        tracemalloc.start()
        try:
            table = TranspositionTable(params)
            rng = np.random.default_rng(0)
            # limbs of table.bits bits each but the first, which holds the rest
            top = 4 * width - (table.limbs - 1) * table.bits
            limbs = [rng.integers(0, 2**bits, size=n + n // 8, dtype=np.uint64) for bits in [top - 1] + [table.bits] * (table.limbs - 1)]
            keys = np.stack(limbs, axis=1)
            del limbs
            transposition_insert_many(table, keys[:n])
            transposition_insert_many(table, keys[n:])
            del keys
            assert len(table.keys) == n and len(table.run_keys) == n // 8
            old = table.keys.nbytes
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            transposition_insert(table, 1 << 4 * width - 1)  # above every key drawn
            peak = tracemalloc.get_traced_memory()[1]
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table.keys) == n + n // 8 + 1 and not len(table.run_keys)
        run, step, size = n // 8 + 1, max(statespace.RECENT_MIN, n // 8 + 1), table.keys.itemsize
        assert peak - held < (size + 8) * (run + step) + 8 * step < old
        assert after - held < old // 16  # the fold leaves the array as it found it

    # in a fresh process: a table of 2^22 sorted keys, then a run of
    # 2^19 + 1 keys between them, whose last offer folds it. Both parts
    # are offered in chunks of 2^16 keys, and the first is then marked
    # folded with no fold (RECENT_MIN is raised while it is offered), so
    # that set-up neither copies nor sorts it whole and does not set the
    # peak. Prints the fold's rise of ru_maxrss and the sorted part's bytes
    FOLD_PEAK = """
import resource, sys
import numpy as np
from shipsearch import statespace
from shipsearch.rules import parse_rule
from shipsearch.statespace import SearchParams, TranspositionTable, transposition_insert_many

table = TranspositionTable(SearchParams(parse_rule("B3/S23"), 2, 1, int(sys.argv[1])))
n, run, chunk, recent_min = 1 << 22, (1 << 19) + 1, 1 << 16, statespace.RECENT_MIN

def offer(lo, hi, scale, plus):
    limbs = np.zeros((hi - lo, table.limbs), dtype=np.uint64)
    limbs[:, -1] = np.arange(lo, hi, dtype=np.uint64) * np.uint64(scale) + np.uint64(plus)
    transposition_insert_many(table, limbs)

statespace.RECENT_MIN = n
for lo in range(0, n, chunk):
    offer(lo, lo + chunk, 2, 0)  # the even keys below 2n, the run sorted after each
table.folded, statespace.RECENT_MIN = n, recent_min
for lo in range(0, run - 1, chunk):
    offer(lo, lo + chunk, 16, 1)  # odd keys among them
assert len(table.keys) == n and len(table.run_keys) == run - 1
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
offer(run - 1, run, 16, 1)
assert len(table.keys) == n + run and not len(table.run_keys)
print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before), n * table.dtype.itemsize)
"""

    @pytest.mark.parametrize("width", [16, 18], ids=["64-bit-one-limb", "72-bit-two-limbs"])
    def test_fold_peak_resident_memory(self, width):
        # the fold sorts the run in place after the sorted part, so the
        # resident peak rises by the merge buffer (up to the run's bytes,
        # an eighth of the sorted part's) and never by a copy of the
        # sorted part, as a resize into a new block raised it
        proc = subprocess.run([sys.executable, "-c", self.FOLD_PEAK, str(width)], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rise, sorted_bytes = map(int, proc.stdout.split())
        assert rise < sorted_bytes // 2


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

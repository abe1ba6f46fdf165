"""Tests for the breadth-first search driver.

These are integration tests: the row-constraint machinery is covered by
the successor and oracle suites, so here we check orchestration, i.e.
outcomes, deepening, narrowing, dedup and progress reporting.
"""

import inspect
import random
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import bench_module, search_from_argv, sequential_expand, sequential_probes
from shipsearch import search as search_mod
from shipsearch.pattern import classify_ship
from shipsearch.rules import parse_rule
from shipsearch.search import (
    EXHAUSTED,
    RUNNING,
    SHIP_FOUND,
    WIDTH_EXHAUSTED,
    Search,
    SearchConfig,
    reduce_width,
    run_search,
)
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
    child_keys,
    extract_ship,
    fold_rows,
    history,
    is_goal,
    make_initial_state,
    state_key,
    transposition_insert,
)
from shipsearch.successor import successors

LIFE = parse_rule("B3/S23")


class TestConfigValidation:
    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="node_capacity"):
            Search(SearchParams(LIFE, 3, 1, 4), SearchConfig(node_capacity=11))

    def test_max_deepening_sign(self):
        with pytest.raises(ValueError, match="max_deepening"):
            Search(SearchParams(LIFE, 2, 1, 4), SearchConfig(max_deepening=-1))

    def test_progress_interval_sign(self):
        with pytest.raises(ValueError, match="progress_interval"):
            Search(SearchParams(LIFE, 2, 1, 4), SearchConfig(progress_interval=-1))


class TestOutcomes:
    def test_lwss_glide_found(self):
        params = SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT)
        res = run_search(params)
        assert res.status.outcome == SHIP_FOUND
        ship, desc = res.ships[0]
        assert (desc.period, desc.dx, abs(desc.dy)) == (4, 0, 2)
        # the stored descriptor is exactly what reclassification yields
        assert classify_ship(LIFE, ship, 4) == desc

    def test_glider_diagonal_found(self):
        params = SearchParams(LIFE, 4, 1, 4, translation=DIAGONAL)
        res = run_search(params)
        assert res.status.outcome == SHIP_FOUND
        ship, desc = res.ships[0]
        assert desc.period == 4
        assert abs(desc.dx) == abs(desc.dy) == 1
        assert ship.population() == 5

    def test_turtle_even_mirror_found(self):
        params = SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR)
        res = run_search(params)
        assert res.status.outcome == SHIP_FOUND
        ship, desc = res.ships[0]
        assert (desc.period, desc.dx, abs(desc.dy)) == (3, 0, 1)
        assert ship.width == 10

    def test_tiny_capacity_still_finds(self):
        # minimum legal arena forces a deepening round on every iteration,
        # so the search degenerates to iterative deepening and must still
        # converge on the same ship
        params = SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT)
        res = run_search(params, SearchConfig(node_capacity=8))
        assert res.status.outcome == SHIP_FOUND
        _, desc = res.ships[0]
        assert (desc.period, desc.dx, abs(desc.dy)) == (4, 0, 2)
        assert res.status.deepening_limit > 0

    def test_exhausts_when_no_ship(self):
        res = run_search(SearchParams(LIFE, 2, 1, 3))
        assert res.status.outcome == EXHAUSTED
        assert res.ships == []

    def test_narrowing_cascade_then_exhausts(self):
        # max_deepening=0 turns every capacity squeeze into a narrowing;
        # the strip shrinks until the frontier dies out
        res = run_search(SearchParams(LIFE, 2, 1, 4), SearchConfig(node_capacity=8, max_deepening=0))
        assert res.status.outcome == EXHAUSTED
        assert res.status.current_width == 2
        assert res.ships == []

    def test_narrowing_bottoms_out(self):
        search = Search(SearchParams(LIFE, 2, 1, 3))
        rounds = 0
        while search.status.outcome == RUNNING:
            reduce_width(search)
            rounds += 1
        assert search.status.outcome == WIDTH_EXHAUSTED
        assert search.params.width == 1
        assert rounds == 3

    def test_continue_after_find_collects_distinct_ships(self):
        params = SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT)
        cfg = SearchConfig(node_capacity=1 << 14, max_deepening=4, continue_after_find=True)
        res = run_search(params, cfg)
        assert res.status.outcome == EXHAUSTED
        assert len(res.ships) >= 2
        assert len({ship.rows for ship, _ in res.ships}) == len(res.ships)
        for _, desc in res.ships:
            assert (desc.period, desc.dx, abs(desc.dy)) == (4, 0, 2)


CARRIED_KEY_CASES = pytest.mark.parametrize(
    "params, config",
    [
        (SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT), SearchConfig(continue_after_find=True)),
        (SearchParams(LIFE, 4, 1, 4, translation=DIAGONAL), SearchConfig()),
        # compaction and narrowing (width 6 down to 4), ships found
        (
            SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR),
            SearchConfig(node_capacity=256, max_deepening=6, continue_after_find=True),
        ),
    ],
    ids=["c2-glide", "c4-diagonal", "c3-even-deepen"],
)


class TestCarriedKeys:
    def run_offering(self, monkeypatch, params, config, check):
        """Run a search, calling check(search, key, idx, verdict) on every
        node offered to the transposition table, one at a time or in bulk;
        verdict is what transposition_insert returns for that offer."""
        searches = []
        original_init = Search.__init__
        original_insert, original_many = search_mod.transposition_insert, search_mod.transposition_insert_many

        def init(self, *args, **kwargs):
            searches.append(self)
            original_init(self, *args, **kwargs)

        def checked(table, key, idx):
            verdict = original_insert(table, key, idx)
            check(searches[-1], key, idx, verdict)
            return verdict

        def checked_many(table, keys, nodes):
            fresh = original_many(table, keys, nodes)
            recorded = set(fresh.tolist())
            for idx, key in zip(np.asarray(nodes).tolist(), table.ints_of(keys)):
                verdict = ("fresh", None) if idx in recorded else ("duplicate", table.get(key))
                check(searches[-1], key, idx, verdict)
            return fresh

        monkeypatch.setattr(Search, "__init__", init)
        monkeypatch.setattr(search_mod, "transposition_insert", checked)
        monkeypatch.setattr(search_mod, "transposition_insert_many", checked_many)
        return run_search(params, config)

    @CARRIED_KEY_CASES
    def test_table_keys_are_state_keys_and_goals_are_caught(self, monkeypatch, params, config):
        # every child the breadth-first loop adds is offered to the
        # transposition table, but for one whose ship ends the search; a
        # key that differs from state_key shows here, and so does a goal
        # that is not recorded as a ship or that the table takes: the
        # seed's entry for key 0 must turn every goal away
        offered, goals = [], []

        def check(search, key, idx, verdict):
            params, arena = search.params, search.arena
            assert key == state_key(params, arena, idx)
            if is_goal(params, arena, idx):
                assert verdict == ("duplicate", 2 * params.period - 1)
                assert extract_ship(params, arena.all_rows(idx)).rows in {ship.rows for ship, _ in search.ships}
                goals.append(idx)
            offered.append(idx)

        res = self.run_offering(monkeypatch, params, config, check)
        assert res.ships
        assert len(offered) > res.status.states_expanded // 2
        assert bool(goals) == config.continue_after_find  # only a ship that ends the search is not offered

    @CARRIED_KEY_CASES
    def test_duplicates_keep_a_node_no_deeper(self, monkeypatch, params, config):
        # nodes reach the table in nondecreasing depth, so keeping the first
        # node of a state keeps a shallowest one
        dups = []

        def check(search, key, idx, verdict):
            if verdict[0] == "duplicate":
                assert search.arena.depths[verdict[1]] <= search.arena.depths[idx]
                dups.append(idx)

        self.run_offering(monkeypatch, params, config, check)
        assert dups


class TestGoalRule:
    # a key-0 child finishes a ship when a row anywhere in its parent's
    # window lives, not only the oldest or the newest: with 2k > p the
    # window reaches back past the 2p rows of the state key. In Life no
    # ship is faster than c/2, so no search reaches such a goal; here a
    # parent is built whose one live row lies `back` rows before the child
    @pytest.mark.parametrize(
        "params",
        [SearchParams(LIFE, 3, 2, 5), SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR)],
        ids=["history-7", "history-6"],
    )
    def test_a_live_row_anywhere_in_the_window_makes_a_goal(self, monkeypatch, params):
        n, hist = 2 * params.period, history(params)
        recorded = []
        monkeypatch.setattr(Search, "_record_ship", lambda search, rows: recorded.append(rows) or True)
        for back in range(n, hist + 1):
            for expand in (search_mod._expand_head, lambda search: search_mod._dfs_probe(search, [search.queue[0]], 99)):
                search = Search(params)
                arena, parent = search.arena, search.queue[0]
                for row in [1] + [0] * (back - 1):
                    parent = arena.add(row, parent)
                window = arena.rows_back(parent, hist)
                assert successors(params, search.tables, window)[0] == 0  # the key-0 child comes first
                rows = arena.all_rows(parent) + [0]
                assert is_goal(params, arena, arena.add(0, parent))  # the reference, on a scratch child
                arena.truncate(parent + 1)
                search.queue = NodeQueue([parent])
                recorded.clear()
                expand(search)
                assert recorded == [rows], (back, window)


class TestChildKeys:
    @pytest.mark.parametrize("p, k, w", [(2, 1, 5), (4, 1, 8), (3, 1, 11), (3, 2, 13), (4, 1, 32), (5, 2, 31)])
    def test_keys_are_state_keys(self, p, k, w):
        # one limb up to 2pw = 64 bits, then two, three and four limbs;
        # sparse rows, so that some keys are 0 and some limbs are empty
        rng = random.Random(repr((p, k, w)))
        params = SearchParams(LIFE, p, k, w)
        arena, tip = make_initial_state(params)
        nodes = [tip]
        for _ in range(60):
            nodes.append(arena.add(rng.getrandbits(w) if rng.random() < 0.4 else 0, rng.choice(nodes)))
        parents = sorted(rng.sample(nodes, 24))
        at = np.sort(np.array([rng.randrange(len(parents)) for _ in range(80)], dtype=np.intp))
        rows = np.array([rng.getrandbits(w) if rng.random() < 0.5 else 0 for _ in at], dtype=np.uint64)
        limbs = child_keys(params, arena.windows(parents, history(params)), at, rows)
        keys = TranspositionTable(params).ints_of(limbs)
        want = [state_key(params, arena, arena.add(row, parents[i])) for i, row in zip(at.tolist(), rows.tolist())]
        assert keys == want and 0 in want


class TestSetupMemory:
    def test_capacity_reserves_nothing(self):
        params = SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR)
        Search(params, SearchConfig(node_capacity=64))  # warm the per-rule table caches
        tracemalloc.start()
        try:
            Search(params, SearchConfig(node_capacity=1 << 23))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestStoreMemory:
    def test_arena_and_table_take_at_most_48_bytes_a_node(self):
        # Life c/4 even w6 to exhaustion: 34,205 nodes, and a table whose
        # recent entries have been folded into its sorted part; what the
        # two stores hold is what freeing them returns
        params = SearchParams(LIFE, 4, 1, 6, EVEN_MIRROR)
        tracemalloc.start()
        try:
            search = Search(params)
            while search.queue:
                search_mod._expand_head(search)
            nodes, folded = len(search.arena), len(search.tt.keys)
            held = tracemalloc.get_traced_memory()[0]
            del search.arena, search.tt
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert nodes == 34205 and folded > 4096
        assert 12 * nodes < freed <= 48 * nodes


class TestWeekenderFill:
    def test_bulk_offers_match_one_at_a_time(self, monkeypatch):
        # the weekender profile of scripts/long_searches.py (126-bit keys,
        # two limbs) at capacity 2^15, up to its first deepening round:
        # queue, arena and table equal those of a run whose bulk offers
        # go through transposition_insert one key at a time
        params = SearchParams(LIFE, 7, 2, 9, EVEN_MIRROR)

        def fill():
            search = Search(params, SearchConfig(node_capacity=1 << 15, max_deepening=42))
            while search.queue and not search.arena_full():
                search_mod._expand_head(search)
            arena = search.arena
            return search.queue.nodes().tolist(), (arena.rows, arena.parents, arena.depths), dict(search.tt.items())

        def sequential(table, keys, nodes):
            offers = zip(np.asarray(nodes).tolist(), table.ints_of(keys))
            fresh = [idx for idx, key in offers if transposition_insert(table, key, idx)[0] == "fresh"]
            return np.array(fresh, dtype=np.int32)

        bulk = fill()
        monkeypatch.setattr(search_mod, "transposition_insert_many", sequential)
        one = fill()
        assert bulk == one
        assert len(bulk[0]) > 1 << 14 and len(bulk[2]) > 1 << 14


class TestReseed:
    @pytest.mark.parametrize(
        "params, capacity",
        [(SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR), 1 << 12), (SearchParams(LIFE, 7, 2, 9, EVEN_MIRROR), 1 << 15)],
        ids=["c3-one-limb", "weekender-two-limbs"],
    )
    def test_bulk_reseed_matches_one_at_a_time(self, params, capacity):
        # filled to capacity, then compacted, then narrowed: each time
        # the table holds what offering the seed and then the frontier
        # one key at a time gives (the weekender's table folds)
        search = Search(params, SearchConfig(node_capacity=capacity, continue_after_find=True))
        while search.queue and not search.arena_full():
            search_mod._expand_head(search)
        for step in (search_mod.compact, reduce_width):
            step(search)
            params, arena = search.params, search.arena
            one = TranspositionTable(params)
            for idx in [2 * params.period - 1, *search.queue.nodes().tolist()]:
                transposition_insert(one, state_key(params, arena, idx), idx)
            assert dict(search.tt.items()) == dict(one.items())
            assert len(search.queue) > 100 and search.tt.limbs == (1 if params.period == 3 else 2)


class TestProbeDedup:
    @pytest.mark.parametrize(
        "params, config, expanded",
        [
            (SearchParams(LIFE, 4, 1, 4, translation=DIAGONAL), SearchConfig(node_capacity=64), 324),
            (SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT), SearchConfig(node_capacity=64, continue_after_find=True), 101),
        ],
        ids=["c4-diagonal", "c2-glide"],
    )
    def test_probe_keys_cover_the_last_2p_rows(self, params, config, expanded):
        # depth-first probes skip a state already seen at no greater level
        # within the same probe; keys over one row fewer (or more) than 2p
        # expand 323 (325) and 101 (105) states here
        assert run_search(params, config).status.states_expanded == expanded

    @pytest.mark.parametrize(
        "params, capacity",
        [
            (SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT), 8),
            (SearchParams(LIFE, 4, 1, 4, translation=DIAGONAL), 16),
        ],
        ids=["c2-glide", "c4-diagonal"],
    )
    def test_seen_stays_within_node_capacity(self, params, capacity):
        # unbounded, one probe's seen dict grows to 35 and 114 entries
        # here; kept to the node capacity, it still lets the probes find
        # the ship the default capacity finds. Every probe of a block
        # keeps its own seen dict.
        largest = 0
        probe_code = search_mod._dfs_probe.__code__

        def in_probe(frame, event, arg):
            nonlocal largest
            largest = max(largest, *map(len, frame.f_locals.get("seens", [()])))
            return in_probe

        sys.settrace(lambda frame, event, arg: in_probe if frame.f_code is probe_code else None)
        try:
            res = run_search(params, SearchConfig(node_capacity=capacity))
        finally:
            sys.settrace(None)
        assert largest == capacity  # reached, and held there
        assert res.status.outcome == SHIP_FOUND
        assert res.ships == run_search(params).ships

    def test_probe_skips_a_state_met_again_at_its_level(self):
        # in B256/S at c/2, even width 5, capacity 26, probes reach states
        # a second time at exactly the level seen holds for them and skip
        # them; expanding those again (skipping only deeper ones) expands
        # 96 states instead of 92
        params = SearchParams(parse_rule("B256/S"), 2, 1, 5, EVEN_MIRROR)
        probe = search_mod._dfs_probe
        lines, start = inspect.getsourcelines(probe)
        check = start + next(i for i, text in enumerate(lines) if "prev = seen.get(key)" in text) + 1
        met = 0

        def in_probe(frame, event, arg):
            nonlocal met
            if event == "line" and frame.f_lineno == check:
                met += frame.f_locals["prev"] == frame.f_locals["level"]
            return in_probe

        sys.settrace(lambda frame, event, arg: in_probe if frame.f_code is probe.__code__ else None)
        try:
            res = run_search(params, SearchConfig(node_capacity=26, continue_after_find=True))
        finally:
            sys.settrace(None)
        assert met == 2
        assert res.status.states_expanded == 92


# small searches that compact and narrow: (p, k, w, symmetry, translation)
HISTORY_MODES = [
    (2, 1, 5, GLIDE_REFLECT, ORTHOGONAL),
    (2, 1, 6, ODD_MIRROR, ORTHOGONAL),
    (3, 1, 5, ASYMMETRIC, ORTHOGONAL),
    (3, 1, 6, EVEN_MIRROR, ORTHOGONAL),
    (3, 2, 5, GLIDE_REFLECT, ORTHOGONAL),
    (4, 1, 4, ASYMMETRIC, DIAGONAL),
]


class TestFrontierHistory:
    def test_compaction_and_narrowing_keep_each_history(self, monkeypatch):
        # random node capacities (at least 4p) and deepening caps; after
        # every compact and reduce_width the frontier's row histories are
        # those before it, in order, less the states a narrowing drops,
        # and the table's keys are its nodes' state keys
        original_compact, original_reduce = search_mod.compact, search_mod.reduce_width
        done = {"compact": 0, "narrow": 0}

        def histories(search):
            return [search.arena.all_rows(idx) for idx in search.queue.nodes().tolist()]

        def checked_compact(search):
            before = histories(search)
            original_compact(search)
            assert histories(search) == before
            for key, idx in search.tt.items():
                assert key == state_key(search.params, search.arena, idx)
            done["compact"] += 1

        def checked_reduce(search):
            before, width = histories(search), search.params.width
            original_reduce(search)
            after = histories(search)
            rest = iter(before)
            assert all(h in rest for h in after)  # a subsequence of before
            if search.params.width < width:
                # the window successors() reads holds no cell of the
                # dropped column (under glide, no live cell at all)
                glide = search.params.symmetry == GLIDE_REFLECT
                for h in after:
                    assert not any(r if glide else r >> search.params.width for r in h[-search.hist :])
                done["narrow"] += 1

        monkeypatch.setattr(search_mod, "compact", checked_compact)
        monkeypatch.setattr(search_mod, "reduce_width", checked_reduce)
        rng = random.Random(0)
        for p, k, w, sym, tr in HISTORY_MODES * 8:
            params = SearchParams(LIFE, p, k, w, sym, tr)
            cap = rng.choice([None, rng.randint(0, 3 * p)])
            config = SearchConfig(
                node_capacity=rng.randint(4 * p, 300),
                max_deepening=cap,
                # without narrowing, a search that continues runs for minutes
                continue_after_find=cap is not None and rng.random() < 0.5,
            )
            search = run_search(params, config)
            assert search.status.outcome != RUNNING
        assert done["compact"] and done["narrow"]

    def test_narrowing_to_an_empty_frontier_restarts_the_table(self):
        # a narrowing that drops every frontier state: exhaustion follows,
        # but the table must already hold keys of the new width
        params = SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR)
        search = Search(params)
        while search.level_of(search.queue[0]) < 3:
            search_mod._expand_head(search)
        top = params.width - 1
        search.queue = NodeQueue([i for i in search.queue.nodes().tolist() if any(r >> top for r in search.arena.rows_back(i, search.hist))])
        assert search.queue
        reduce_width(search)
        assert not search.queue and search.params.width == top
        assert dict(search.tt.items()) == {0: 2 * params.period - 1}  # the seed's state
        for key, idx in search.tt.items():
            assert key == state_key(search.params, search.arena, idx)


PROBE_CASES = pytest.mark.parametrize(
    "params, config",
    [
        # compaction, narrowing and ships recorded inside probes
        (
            SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR),
            SearchConfig(node_capacity=256, max_deepening=6, continue_after_find=True),
        ),
        # every step is a deepening round, and a probe's ship ends the search
        (SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT), SearchConfig(node_capacity=8)),
    ],
    ids=["c3-even-deepen", "c2-glide-probe-finds"],
)


class TestProbeArena:
    @PROBE_CASES
    def test_blocks_add_nothing_and_the_arena_stays_within_capacity(self, monkeypatch, params, config):
        # the arena holds the breadth-first tree alone: no node reaches it
        # while a block of probes runs, also when the block records a ship
        # or its ship ends the search, and after every append anywhere in
        # the search it holds at most node_capacity nodes
        original_probe, original_add, original_extend = search_mod._dfs_probe, NodeArena.add, NodeArena._extend
        original_record = Search._record_ship
        probing, appends, recorded = [], [], []

        def check(arena):
            assert not probing
            assert len(arena) <= config.node_capacity
            appends.append(len(arena))

        def checked_add(arena, row, parent):
            idx = original_add(arena, row, parent)
            check(arena)
            return idx

        def checked_extend(arena, rows, parents, depths):
            original_extend(arena, rows, parents, depths)
            check(arena)

        def checked_record(search, rows):
            recorded.append(bool(probing))
            return original_record(search, rows)

        def checked_probe(search, roots, limit):
            probing.append(limit)
            try:
                return original_probe(search, roots, limit)
            finally:
                probing.pop()

        monkeypatch.setattr(NodeArena, "add", checked_add)
        monkeypatch.setattr(NodeArena, "_extend", checked_extend)
        monkeypatch.setattr(Search, "_record_ship", checked_record)
        monkeypatch.setattr(search_mod, "_dfs_probe", checked_probe)
        res = run_search(params, config)
        assert res.ships
        assert any(recorded)  # some ship is recorded inside a block
        assert len(appends) > 2 * params.period  # the tree grew past its seed chain

    @PROBE_CASES
    def test_probe_children_carry_their_state_keys(self, monkeypatch, params, config):
        # every child a probe checks against seen carries the state key of
        # its path (the root's rows in the arena, then the rows of the
        # probe's frames, then its own row) and is no goal, and its
        # parent's frame carries the window successors() reads
        probe = search_mod._dfs_probe
        lines, start = inspect.getsourcelines(probe)
        check = start + next(i for i, text in enumerate(lines) if "prev = seen.get(key)" in text) + 1
        checked = []

        def in_probe(frame, event, arg):
            if event == "line" and frame.f_lineno == check:
                f = frame.f_locals
                search, stack = f["search"], f["stack"]
                n, hist = 2 * search.params.period, search.hist
                rows = search.arena.all_rows(f["roots"][f["i"]]) + [top[0][-1] for top in stack[1:]] + [f["c"]]
                assert f["key"] == fold_rows(rows[-n:], search.params.width)
                assert f["key"] or not any(rows)  # a goal's last 2p rows are dead, and some before are not
                assert stack[-1][0] == ([0] * hist + rows[:-1])[-hist:]
                checked.append(f["key"])
            return in_probe

        sys.settrace(lambda frame, event, arg: in_probe if frame.f_code is probe.__code__ else None)
        try:
            res = run_search(params, config)
        finally:
            sys.settrace(None)
        assert res.ships
        assert len(checked) > res.status.states_expanded // 2


class TestSeedChain:
    def test_seed_chain_survives_compaction_and_narrowing(self, monkeypatch):
        # level_of counts from node 2p-1: every compaction, also the one
        # after a narrowing, keeps the dead seed chain as nodes 0..2p-1
        params = SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR)
        n = 2 * params.period
        original = search_mod.compact
        widths = []

        def checked(search):
            original(search)
            assert search.arena.rows[:n].tolist() == [0] * n
            assert search.arena.parents[:n].tolist() == [-1, *range(n - 1)]
            assert search.level_of(n - 1) == 0
            assert search.tt.get(0) == n - 1  # the seed's state, recorded first
            widths.append(search.params.width)

        monkeypatch.setattr(search_mod, "compact", checked)
        res = run_search(params, SearchConfig(node_capacity=256, max_deepening=6, continue_after_find=True))
        assert res.ships
        assert len(widths) > 2 and widths[-1] < params.width


class TestDeterminism:
    def test_repeat_runs_identical(self):
        params = SearchParams(LIFE, 4, 1, 4, translation=DIAGONAL)
        a = run_search(params)
        b = run_search(params)
        assert [s.rows for s, _ in a.ships] == [s.rows for s, _ in b.ships]
        assert a.status.states_expanded == b.status.states_expanded


class TestProgress:
    def test_interval_callbacks(self):
        seen = []
        params = SearchParams(LIFE, 2, 1, 3)
        run_search(params, SearchConfig(progress_interval=1), progress=seen.append)
        assert seen
        expanded = [s.states_expanded for s in seen]
        assert expanded == sorted(expanded)
        assert seen[-1].outcome == EXHAUSTED
        # callbacks get snapshots, not the live status object
        assert seen[0] is not seen[-1]

    def test_zero_interval_still_reports_terminal(self):
        seen = []
        run_search(SearchParams(LIFE, 2, 1, 3), SearchConfig(), progress=seen.append)
        assert seen
        assert seen[-1].outcome == EXHAUSTED


def _refresh_on_every_call(self, force=False):
    # Search._tick as it was before the status refresh was gated on a
    # report: every call refreshes it
    self.status.nodes_in_arena = len(self.arena)
    if self.queue:
        self.status.frontier_level = self.level_of(self.queue[0])
    if self.progress is None:
        return
    interval = self.config.progress_interval
    due = interval and self.status.states_expanded - self._last_progress >= interval
    if force or due:
        self._last_progress = self.status.states_expanded
        self.progress(replace(self.status))


class TestGatedRefresh:
    @pytest.mark.parametrize(
        "params, config",
        [
            (SearchParams(LIFE, 4, 1, 5, EVEN_MIRROR), SearchConfig(progress_interval=1)),
            (SearchParams(LIFE, 4, 1, 5, EVEN_MIRROR), SearchConfig(progress_interval=97)),
            (SearchParams(LIFE, 4, 1, 5, EVEN_MIRROR), SearchConfig()),
            (SearchParams(LIFE, 4, 1, 4, translation=DIAGONAL), SearchConfig(progress_interval=5)),
            # deepening rounds, compaction, narrowing and a drained queue
            (
                SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR),
                SearchConfig(node_capacity=256, max_deepening=6, continue_after_find=True, progress_interval=3),
            ),
        ],
        ids=["exhaust-every", "exhaust-97", "exhaust-final-only", "diagonal-find", "c3-even-deepen"],
    )
    def test_reports_and_final_status_unchanged(self, monkeypatch, params, config):
        def run(progress):
            seen = []
            res = run_search(params, config, progress=seen.append if progress else None)
            return seen, res.status

        gated = run(True), run(False)
        monkeypatch.setattr(Search, "_tick", _refresh_on_every_call)
        assert gated == (run(True), run(False))
        assert gated[0][0][-1] == gated[1][1]


NEVER = 1 << 62  # a batch minimum no level reaches
DEFAULT_BATCH_MIN = search_mod.BATCH_MIN  # read before any test patches it


class BatchLog:
    """Wraps successors_batch and _expand_head: how many windows and rows
    went through the kernel, at which widths, and how many chunks stopped
    before their last parent for a ship or for a full arena. Nothing is
    logged while paused."""

    def __init__(self, monkeypatch):
        self.windows, self.rows, self.widths, self.ship_stops, self.full_stops = 0, 0, set(), 0, 0
        self.last, self.paused = 0, False
        kernel, expand = search_mod.successors_batch, search_mod._expand_head

        def logged_kernel(params, tables, windows):
            at, rows = kernel(params, tables, windows)
            if not self.paused:
                self.windows += len(windows)
                self.rows += len(rows)
                self.widths.add(params.width)
                self.last = len(windows)
            return at, rows

        def logged_expand(search):
            self.last, before = 0, search.status.states_expanded
            expand(search)
            if search.status.states_expanded - before < self.last:
                if search.status.outcome != RUNNING:
                    self.ship_stops += 1
                else:
                    assert search.arena_full()
                    self.full_stops += 1

        monkeypatch.setattr(search_mod, "successors_batch", logged_kernel)
        monkeypatch.setattr(search_mod, "_expand_head", logged_expand)


def _reports(monkeypatch, minimum, params, config, interval=1):
    """Every progress report, the final status and the ships of one
    search with the given batch minimum and progress interval."""
    monkeypatch.setattr(search_mod, "BATCH_MIN", minimum)
    seen = []
    res = run_search(params, replace(config, progress_interval=interval), progress=seen.append)
    return seen, res.status, res.ships


class TestBatchedLevels:
    # a level expanded through successors_batch must be indistinguishable
    # from one expanded a state at a time: the same expansions, reports,
    # arena sizes, compaction points and ships, in the same order

    def check_same(self, monkeypatch, log, params, config):
        batched = _reports(monkeypatch, 1, params, config)
        kernel_windows = log.windows
        assert _reports(monkeypatch, NEVER, params, config) == batched
        assert log.windows == kernel_windows  # none at all with batching off
        log.paused = True  # the log describes the run with every state batched
        assert _reports(monkeypatch, DEFAULT_BATCH_MIN, params, config) == batched
        log.paused = False
        return batched[1]

    @pytest.mark.parametrize("name", list(bench_module("workloads").QUICK))
    def test_quick_workloads(self, monkeypatch, name):
        params, config = search_from_argv(bench_module("workloads").QUICK[name].argv())
        log = BatchLog(monkeypatch)
        status = self.check_same(monkeypatch, log, params, config)
        assert log.windows > 0 and log.rows > 0
        if status.outcome == SHIP_FOUND:
            assert log.ship_stops == 1  # the first ship ends the search inside a chunk
        if config.node_capacity < 1 << 10:
            assert log.full_stops > 0
            assert len(log.widths) > 1  # narrowed, and batched again at the new width

    @pytest.mark.parametrize("interval", [7, 97, 1000])
    @pytest.mark.parametrize("name", list(bench_module("workloads").QUICK))
    def test_reports_due_inside_a_chunk(self, monkeypatch, name, interval):
        # a chunk expands its parents in runs, and a run ends at the parent
        # after which a report falls due; a run that ends one parent late
        # or early reports other counts
        params, config = search_from_argv(bench_module("workloads").QUICK[name].argv())
        single = _reports(monkeypatch, NEVER, params, config, interval)
        for minimum in (1, DEFAULT_BATCH_MIN):
            assert _reports(monkeypatch, minimum, params, config, interval) == single

    @pytest.mark.parametrize("minimum", [1, 3, 5])
    def test_drained_queue_keeps_the_last_head(self, monkeypatch, minimum):
        # c/3 odd width 4 exhausts in a chunk whose last run spans two
        # levels with no fresh child: the final status still gives the
        # level of the head noted last, 29 (28 if it kept the run's first)
        params = SearchParams(LIFE, 3, 1, 4, ODD_MIRROR)
        batched = _reports(monkeypatch, minimum, params, SearchConfig(), interval=0)
        assert batched == _reports(monkeypatch, NEVER, params, SearchConfig(), interval=0)
        assert batched[1].frontier_level == 29

    def test_history_modes_with_random_capacities(self, monkeypatch):
        rng = random.Random(1)
        log = BatchLog(monkeypatch)
        for p, k, w, sym, tr in HISTORY_MODES * 2:
            params = SearchParams(LIFE, p, k, w, sym, tr)
            cap = rng.choice([None, rng.randint(0, 3 * p)])
            config = SearchConfig(
                node_capacity=rng.randint(4 * p, 300),
                max_deepening=cap,
                continue_after_find=cap is not None and rng.random() < 0.5,
            )
            self.check_same(monkeypatch, log, params, config)
        assert log.windows > 0 and log.full_stops > 0

    def test_state_keys_wider_than_64_bits(self, monkeypatch):
        # c/3 even width 11: 2pw = 66 bits, narrowed to width 5 where the
        # ship is found
        params = SearchParams(LIFE, 3, 1, 11, EVEN_MIRROR)
        log = BatchLog(monkeypatch)
        status = self.check_same(monkeypatch, log, params, SearchConfig(node_capacity=2100, max_deepening=0))
        assert status.outcome == SHIP_FOUND
        assert 11 in log.widths and 2 * params.period * 11 > 64


class TestSequentialExpansion:
    # a chunk expanded in bulk runs must be indistinguishable from
    # expanding its states one queue head at a time: the same reports,
    # final status (arena size and frontier level too) and ships, in the
    # same order

    def check_same(self, monkeypatch, params, config):
        bulk = search_mod._expand_head
        monkeypatch.setattr(search_mod, "_expand_head", sequential_expand)
        sequential = _reports(monkeypatch, DEFAULT_BATCH_MIN, params, config)
        monkeypatch.setattr(search_mod, "_expand_head", bulk)
        assert _reports(monkeypatch, DEFAULT_BATCH_MIN, params, config) == sequential
        return sequential[1]

    @pytest.mark.parametrize("name", list(bench_module("workloads").QUICK))
    def test_quick_workloads(self, monkeypatch, name):
        params, config = search_from_argv(bench_module("workloads").QUICK[name].argv())
        self.check_same(monkeypatch, params, config)

    def test_history_modes_with_random_capacities(self, monkeypatch):
        rng = random.Random(3)
        outcomes = set()
        for p, k, w, sym, tr in HISTORY_MODES * 2:
            params = SearchParams(LIFE, p, k, w, sym, tr)
            for continue_after_find in (False, True):
                # without narrowing, a search that continues runs for minutes
                cap = rng.randint(0, 3 * p) if continue_after_find else rng.choice([None, rng.randint(0, 3 * p)])
                config = SearchConfig(rng.randint(4 * p, 300), cap, continue_after_find)
                outcomes.add(self.check_same(monkeypatch, params, config).outcome)
        assert outcomes == {SHIP_FOUND, EXHAUSTED}

    def test_ship_that_drains_the_queue(self):
        # the LWSS's goal parent queued behind the seed's tip, whose
        # children are all known by then: the one run that expands both
        # ends at the ship with the queue drained, and the final status
        # gives the goal parent's level, that of the head at the last tick
        # of a one-at-a-time expansion
        params = SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT)
        search = Search(params)
        while search.status.outcome == RUNNING:
            sequential_expand(search)
        goal_parent = search.arena.parents[-1]  # the ship's last row is the last node added

        def drained(expand):
            search = Search(params)
            while search.queue[0] != goal_parent:
                sequential_expand(search)
            search.queue = NodeQueue([2 * params.period - 1, goal_parent])
            search._tick()
            while search.queue and search.status.outcome == RUNNING:
                expand(search)
            search._tick(force=True)
            return search.status, search.ships, len(search.queue)

        sequential = drained(sequential_expand)
        assert drained(search_mod._expand_head) == sequential
        assert sequential[0].outcome == SHIP_FOUND and not sequential[2]
        assert sequential[0].frontier_level == search.level_of(goal_parent) > 0


def _probe_run(monkeypatch, probe, minimum, params, config):
    """One search with the given block probe and batch minimum: each
    block's limit, roots and verdicts, the final status and the ships."""
    monkeypatch.setattr(search_mod, "BATCH_MIN", minimum)
    blocks = []

    def logged(search, roots, limit):
        keep = probe(search, roots, limit)
        blocks.append((limit, list(roots), keep))
        return keep

    monkeypatch.setattr(search_mod, "_dfs_probe", logged)
    res = run_search(params, config)
    return blocks, res.status, [(ship.rows, ship.width, desc) for ship, desc in res.ships]


class TestLockstepProbes:
    # a block of probes run in lockstep must be indistinguishable from
    # probing its roots one after another: the same verdicts, expansions,
    # ships in the same order, outcome and final status

    def check_same(self, monkeypatch, params, config):
        lockstep = search_mod._dfs_probe
        sequential = _probe_run(monkeypatch, sequential_probes, NEVER, params, config)
        for minimum in (1, DEFAULT_BATCH_MIN, NEVER):
            assert _probe_run(monkeypatch, lockstep, minimum, params, config) == sequential
        return sequential

    def test_history_modes_with_random_capacities(self, monkeypatch):
        rng = random.Random(2)
        outcomes, sizes = set(), []
        for p, k, w, sym, tr in HISTORY_MODES * 3:
            params = SearchParams(LIFE, p, k, w, sym, tr)
            for continue_after_find in (False, True):
                # without narrowing, a search that continues runs for minutes
                cap = rng.randint(0, 3 * p) if continue_after_find else rng.choice([None, rng.randint(0, 3 * p)])
                config = SearchConfig(rng.randint(4 * p, 300), cap, continue_after_find)
                run = self.check_same(monkeypatch, params, config)
                outcomes.add(run[1].outcome)
                sizes += [len(roots) for _, roots, _ in run[0]]
        assert outcomes == {SHIP_FOUND, EXHAUSTED}
        # 86 blocks, 28 of them starting through the kernel at the default minimum
        assert len(sizes) > 50 and sum(size >= DEFAULT_BATCH_MIN for size in sizes) > 10

    @pytest.mark.parametrize("interval", [1, 97])
    def test_reports_fall_between_steps(self, monkeypatch, interval):
        # quick c/3: whatever the batch minimum, the same reports, some of
        # them made between the steps of a block, each of those counting
        # the arena as the block found it
        params, config = search_from_argv(bench_module("workloads").QUICK["quick-c3-even-w6-deepen"].argv())
        lockstep = search_mod._dfs_probe

        def run(minimum):
            monkeypatch.setattr(search_mod, "BATCH_MIN", minimum)
            start, reports, inside = [], [], []

            def probe(search, roots, limit):
                start.append(len(search.arena))
                try:
                    return lockstep(search, roots, limit)
                finally:
                    start.pop()

            def report(status):
                reports.append(status)
                if start:
                    inside.append(status.nodes_in_arena == start[0])

            monkeypatch.setattr(search_mod, "_dfs_probe", probe)
            res = run_search(params, replace(config, progress_interval=interval), progress=report)
            return reports, res.status, inside

        single = run(NEVER)
        assert single[2] and all(single[2])
        for minimum in (1, DEFAULT_BATCH_MIN):
            assert run(minimum) == single

    def test_ended_probes_free_their_seen_states(self, monkeypatch):
        # quick c/3: at every tick inside a block, each probe that has
        # ended holds an empty seen dict, also while others run on
        params, config = search_from_argv(bench_module("workloads").QUICK["quick-c3-even-w6-deepen"].argv())
        tick, probe_code = Search._tick, search_mod._dfs_probe.__code__
        checks = 0

        def checked_tick(search, force=False):
            nonlocal checks
            caller = sys._getframe(1)
            if caller.f_code is probe_code:
                stacks, seens = caller.f_locals["stacks"], caller.f_locals["seens"]
                ended = [seen for stack, seen in zip(stacks, seens) if not stack]
                assert not any(ended)
                checks += bool(ended) and any(stacks)
            tick(search, force)

        monkeypatch.setattr(Search, "_tick", checked_tick)
        run_search(params, config)
        assert checks > 0

    @pytest.mark.parametrize("continue_after_find", [False, True], ids=["first-find", "continue"])
    def test_earlier_roots_ship_comes_first(self, monkeypatch, continue_after_find):
        # LWSS at capacity 64: in one block the fourth root's probe meets
        # a ship before the second root's does. The second root's ship is
        # recorded first; it ends the search with the expansions of
        # probing the first two roots one after the other, or, when the
        # search continues, the fourth root's follows it.
        params = SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT)
        config = SearchConfig(64, 4 if continue_after_find else None, continue_after_find)
        lockstep, original_record = search_mod._dfs_probe, Search._record_ship
        lines, start = inspect.getsourcelines(lockstep)
        goal = start + next(i for i, text in enumerate(lines) if "ships[i].append(" in text)
        block, met, recorded = [], [], []  # the roots being probed; per block, the roots of goals met, of ships recorded

        def in_probe(frame, event, arg):
            if event == "line" and frame.f_lineno == goal:
                met[-1].append(frame.f_locals["i"])
            return in_probe

        def logged_record(search, rows):
            if block:
                # a ship's rows are its root's, then its probe's
                arena = search.arena
                (root,) = [r for r, idx in enumerate(block) if rows[: arena.depths[idx] + 1] == arena.all_rows(idx)]
                recorded[-1].append(root)
            return original_record(search, rows)

        def logged_probe(search, roots, limit):
            block[:] = roots
            met.append([])
            recorded.append([])
            sys.settrace(lambda frame, event, arg: in_probe if frame.f_code is lockstep.__code__ else None)
            try:
                return lockstep(search, roots, limit)
            finally:
                sys.settrace(None)
                block.clear()

        monkeypatch.setattr(Search, "_record_ship", logged_record)
        sequential = self.check_same(monkeypatch, params, config)
        run = _probe_run(monkeypatch, logged_probe, DEFAULT_BATCH_MIN, params, config)
        assert run == sequential
        met, recorded = next((m, r) for m, r in zip(met, recorded) if m)
        assert met == [3, 1]
        assert recorded == ([1, 3] if continue_after_find else [1])
        if not continue_after_find:
            assert run[0][-1][2] == [False, False]  # the verdicts end at the second root
            assert run[1].outcome == SHIP_FOUND and run[1].states_expanded == 85


class TestCarriedKeysForcedBatches(TestCarriedKeys):
    """TestCarriedKeys with every level expanded through successors_batch."""

    @pytest.fixture(autouse=True)
    def forced(self, monkeypatch):
        monkeypatch.setattr(search_mod, "BATCH_MIN", 1)


class TestProbeArenaForcedBatches(TestProbeArena):
    """TestProbeArena with every level expanded through successors_batch."""

    @pytest.fixture(autouse=True)
    def forced(self, monkeypatch):
        monkeypatch.setattr(search_mod, "BATCH_MIN", 1)

"""Tests for the breadth-first search driver.

These are integration tests: the row-constraint machinery is covered by
the successor and oracle suites, so here we check orchestration, i.e.
outcomes, deepening, narrowing, dedup and progress reporting.
"""

import cProfile
import random
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    bench_module,
    frontier,
    int_keys,
    search_from_argv,
    sequential_expand,
    sequential_probes,
    truncate,
    walk_depths,
)
from shipsearch import search as search_mod
from shipsearch.pattern import classify_ship
from shipsearch.rules import parse_rule
from shipsearch.search import (
    BATCH_CHUNK,
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
        verdict is what transposition_insert returns for that offer. The
        seed's tip is the node of the one scalar offer, key 0; a bulk
        offer's nodes are the frontier that _new_table reseeds from, or
        the children that _expand_head grew, which are not in the arena
        yet: each is added for its check and cut back after."""
        searches = []
        original_init = Search.__init__
        original_insert, original_many = search_mod.transposition_insert, search_mod.transposition_insert_many

        def init(self, *args, **kwargs):
            searches.append(self)
            original_init(self, *args, **kwargs)

        def checked(table, key):
            verdict = original_insert(table, key)
            check(searches[-1], key, searches[-1].hist - 1, verdict)
            return verdict

        def checked_many(table, keys):
            fresh = original_many(table, keys)
            caller, search = sys._getframe(1).f_locals, searches[-1]
            recorded = set(fresh.tolist())
            for i, key in enumerate(int_keys(table, keys)):
                verdict = ("fresh",) if i in recorded else ("duplicate",)
                if "frontier" in caller:
                    check(search, key, int(caller["frontier"][i]), verdict)
                else:
                    idx = search.arena.add(int(caller["rows"][i]), int(caller["chunk"][caller["at"][i]]))
                    check(search, key, idx, verdict)
                    truncate(search.arena, idx)
            return fresh

        monkeypatch.setattr(Search, "__init__", init)
        monkeypatch.setattr(search_mod, "transposition_insert", checked)
        monkeypatch.setattr(search_mod, "transposition_insert_many", checked_many)
        return run_search(params, config)

    @CARRIED_KEY_CASES
    def test_table_keys_are_state_keys_and_goals_are_caught(self, monkeypatch, params, config):
        # every child the breadth-first loop grows is offered to the
        # transposition table, one whose ship ends the search too; a key
        # that differs from state_key shows here, and so does a goal that
        # is not recorded as a ship or that the table takes: the seed's
        # key 0 must turn every goal away
        offered, goals = [], []

        def check(search, key, idx, verdict):
            params, arena = search.params, search.arena
            assert key == state_key(params, arena, idx)
            if is_goal(params, arena, idx):
                assert verdict == ("duplicate",)
                assert extract_ship(params, arena.all_rows(idx)).rows in {ship.rows for ship, _ in search.ships}
                goals.append(idx)
            offered.append(idx)

        res = self.run_offering(monkeypatch, params, config, check)
        assert res.ships
        assert len(offered) > res.status.states_expanded // 2
        assert goals

    @CARRIED_KEY_CASES
    def test_duplicates_keep_a_node_no_deeper(self, monkeypatch, params, config):
        # nodes reach the table in nondecreasing depth, so the first node
        # offered fresh for a state is a shallowest one; the depth of each
        # table's first nodes is noted here, since the table keeps keys
        # alone and a grown child is in the arena only for its check
        dups, first, table = [], {}, None

        def check(search, key, idx, verdict):
            nonlocal table
            if table is not search.tt:  # compaction started a new one
                table = search.tt
                first.clear()
            if verdict == ("fresh",):
                assert key not in first
                first[key] = search.arena.depth(idx)
            else:
                assert first[key] <= search.arena.depth(idx)
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
            for expand in (search_mod._expand_head, lambda search: search_mod._dfs_probe(search, [search.head], 99)):
                search = Search(params)
                arena, parent = search.arena, search.head
                for row in [1] + [0] * (back - 1):
                    parent = arena.add(row, parent)
                window = arena.rows_back(parent, hist)
                assert successors(params, search.tables, window)[0] == 0  # the key-0 child comes first
                rows = arena.all_rows(parent) + [0]
                assert is_goal(params, arena, arena.add(0, parent))  # the reference, on a scratch child
                truncate(arena, parent + 1)
                search.head = parent  # the parent is the whole frontier
                recorded.clear()
                expand(search)
                assert recorded == [rows], (back, window)


class TestChildKeys:
    @pytest.mark.parametrize("p, k, w", [(2, 1, 5), (4, 1, 8), (3, 1, 11), (3, 2, 13), (4, 1, 32), (5, 2, 31)])
    def test_keys_are_state_keys(self, p, k, w):
        # one limb up to 2pw = 64 bits, then two, three and four limbs;
        # sparse rows, so that some keys are 0 and some limbs are empty;
        # the tree grows a level at a time, as the arena keeps it
        rng = random.Random(repr((p, k, w)))
        params = SearchParams(LIFE, p, k, w)
        arena, tip = make_initial_state(params)
        nodes = level = [tip]
        for _ in range(6):
            level = [arena.add(rng.getrandbits(w) if rng.random() < 0.4 else 0, rng.choice(level)) for _ in range(10)]
            nodes = nodes + level
        parents = sorted(rng.sample(nodes, 24))
        at = np.sort(np.array([rng.randrange(len(parents)) for _ in range(80)], dtype=np.intp))
        rows = np.array([rng.getrandbits(w) if rng.random() < 0.5 else 0 for _ in at], dtype=np.uint64)
        limbs = child_keys(params, arena.windows(parents, history(params)), at, rows)
        keys = int_keys(TranspositionTable(params), limbs)
        # a child's state key: its parent's last 2p - 1 rows, then its own
        want = [fold_rows(arena.rows_back(parents[i], 2 * p - 1) + [row], w) for i, row in zip(at.tolist(), rows.tolist())]
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


def queued_keys(search, nodes=None):
    """The seed's state key, 0, and the state keys of nodes (by default
    the frontier, which holds the seed's tip itself until a first
    expansion), each once and sorted: what a table started from them
    holds."""
    params, arena = search.params, search.arena
    nodes = frontier(search) if nodes is None else nodes
    return sorted({0, *(state_key(params, arena, idx) for idx in nodes)})


class TestStoreMemory:
    @pytest.mark.parametrize(
        "params, config, nodes, generated, most",
        [
            # the one-limb table of Life c/4 even w6 to exhaustion
            (SearchParams(LIFE, 4, 1, 6, EVEN_MIRROR), SearchConfig(), 34168, 34205, 22),
            # the two-limb weekender, filled to its first deepening round
            (SearchParams(LIFE, 7, 2, 9, EVEN_MIRROR), SearchConfig(node_capacity=1 << 15, max_deepening=42), 32281, 32282, 30),
        ],
        ids=["c4-one-limb-exhaust", "weekender-two-limbs-fill"],
    )
    def test_arena_and_table_bytes_a_node(self, params, config, nodes, generated, most):
        # the arena takes 8 bytes a node and the table 8 a key limb,
        # with its recent keys folded into its sorted part; what the two
        # stores hold is what freeing them returns. The arena stores the
        # fresh children alone; generated counts the others too
        tracemalloc.start()
        try:
            search = Search(params, config)
            while frontier(search) and not search.arena_full():
                search_mod._expand_head(search)
            size, folded = len(search.arena), len(search.tt.keys)
            assert search.generated == generated
            held = tracemalloc.get_traced_memory()[0]
            del search.arena, search.tt
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert size == nodes and folded > 4096
        assert 12 * size < freed <= most * size


class TestWeekenderFill:
    def test_bulk_offers_match_one_at_a_time(self, monkeypatch):
        # the weekender profile of scripts/long_searches.py (126-bit keys,
        # two limbs) at capacity 2^15, up to its first deepening round:
        # frontier, arena and table equal those of a run whose bulk offers
        # go through transposition_insert one key at a time, and the
        # table holds the state key of every node the run added
        params = SearchParams(LIFE, 7, 2, 9, EVEN_MIRROR)

        def fill():
            search = Search(params, SearchConfig(node_capacity=1 << 15, max_deepening=42))
            while frontier(search) and not search.arena_full():
                search_mod._expand_head(search)
            arena = search.arena
            return search, (frontier(search), (arena.rows, arena.parents, arena.starts), sorted(int_keys(search.tt)))

        def sequential(table, keys):
            fresh = [i for i, key in enumerate(int_keys(table, keys)) if transposition_insert(table, key) == ("fresh",)]
            return np.array(fresh, dtype=np.intp)

        search, bulk = fill()
        monkeypatch.setattr(search_mod, "transposition_insert_many", sequential)
        assert bulk == fill()[1]
        assert len(bulk[0]) > 1 << 14 and len(bulk[2]) > 1 << 14
        # the arena stores only fresh children, so it holds a node for
        # each key the table took past the seed's
        added = range(search.hist, len(search.arena))
        assert bulk[2] == queued_keys(search, added)


class TestReseed:
    @pytest.mark.parametrize(
        "params, capacity",
        [(SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR), 1 << 12), (SearchParams(LIFE, 7, 2, 9, EVEN_MIRROR), 1 << 15)],
        ids=["c3-one-limb", "weekender-two-limbs"],
    )
    def test_bulk_reseed_holds_the_frontier_keys(self, params, capacity):
        # filled to capacity, then compacted, then narrowed: each time
        # the table holds the keys of the seed's tip and the frontier,
        # each once (the weekender's table folds)
        search = Search(params, SearchConfig(node_capacity=capacity, continue_after_find=True))
        while frontier(search) and not search.arena_full():
            search_mod._expand_head(search)
        for step in (search_mod.compact, reduce_width):
            step(search)
            assert sorted(int_keys(search.tt)) == queued_keys(search)
            assert len(frontier(search)) > 100 and search.tt.limbs == (1 if search.params.period == 3 else 2)


def _watch_walks(monkeypatch, watch):
    """Make every walk _dfs_probe starts a relay of the real
    _probe_walk: it yields what the walk yields, sends it what it is
    sent and returns its verdict. watch is called with the walk's
    arguments as the walk starts and returns step, and step(walk) runs
    each time the walk stops, at a yield or at its end."""
    original = search_mod._probe_walk

    def relay(*args):
        step, walk, rows = watch(*args), original(*args), None
        while True:
            try:
                window = walk.send(rows)
            except StopIteration as end:
                step(walk)
                return end.value
            step(walk)
            rows = yield window

    monkeypatch.setattr(search_mod, "_probe_walk", relay)


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
    def test_seen_stays_within_node_capacity(self, monkeypatch, params, capacity):
        # unbounded, one probe's seen dict grows to 35 and 114 entries
        # here; kept to the node capacity, it still lets the probes find
        # the ship the default capacity finds. Every walk keeps its own
        # seen dict, held here past the walk's end to read its last size.
        seens = {}

        def hold(walk):
            if walk.gi_frame is not None:
                seen = walk.gi_frame.f_locals["seen"]
                seens[id(seen)] = seen

        _watch_walks(monkeypatch, lambda *args: hold)
        res = run_search(params, SearchConfig(node_capacity=capacity))
        assert max(map(len, seens.values())) == capacity  # reached, and held there
        assert res.status.outcome == SHIP_FOUND
        assert res.ships == run_search(params).ships

    def test_probe_skips_a_state_met_again_at_its_level(self):
        # a walk driven with made-up rows: from an all-dead root, rows 1
        # and 2, then row 3 under every other node. Both branches reach the
        # state of rows 3, 3, 3, 3 at level 5; the second branch meets it
        # again at the level seen holds for it and skips it, as the first
        # branch skips it one level deeper, so the limit is never reached
        search = Search(SearchParams(LIFE, 2, 1, 5))
        hist = search.hist
        walk = search_mod._probe_walk(search, [0] * hist, 0, 6, [])
        windows = [next(walk)]
        with pytest.raises(StopIteration) as end:
            while True:
                windows.append(walk.send([3] if any(windows[-1]) else [1, 2]))
        assert end.value.value is False
        paths = [[], [1], [1, 3], [1, 3, 3], [1, 3, 3, 3], [1, 3, 3, 3, 3], [2], [2, 3], [2, 3, 3], [2, 3, 3, 3]]
        assert windows == [([0] * hist + path)[-hist:] for path in paths]
        # in B256/S at c/2, even width 5, capacity 26, probes meet states
        # again at the level seen holds for them; expanding those again
        # (skipping only deeper ones) expands 96 states instead of 92
        params = SearchParams(parse_rule("B256/S"), 2, 1, 5, EVEN_MIRROR)
        res = run_search(params, SearchConfig(node_capacity=26, continue_after_find=True))
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
        # and the table holds the keys of the seed's tip and the frontier
        original_compact, original_reduce = search_mod.compact, search_mod.reduce_width
        done = {"compact": 0, "narrow": 0}

        def histories(search):
            return [search.arena.all_rows(idx) for idx in frontier(search)]

        def checked_compact(search):
            before = histories(search)
            original_compact(search)
            assert histories(search) == before
            assert sorted(int_keys(search.tt)) == queued_keys(search)
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
        while search.level_of(search.head) < 3:
            search_mod._expand_head(search)
        top = params.width - 1
        search.arena.keep_tail(search.head, [any(r >> top for r in search.arena.rows_back(i, search.hist)) for i in frontier(search)])
        assert frontier(search)
        reduce_width(search)
        assert not frontier(search) and search.params.width == top
        assert int_keys(search.tt) == queued_keys(search) == [0]  # the seed's state


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
        original_probe, original_extend = search_mod._dfs_probe, NodeArena._extend
        original_record = Search._record_ship
        probing, appends, recorded = [], [], []

        def check(arena):
            assert not probing
            assert len(arena) <= config.node_capacity
            appends.append(len(arena))

        def checked_extend(arena, rows, parents):
            original_extend(arena, rows, parents)
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

        monkeypatch.setattr(NodeArena, "_extend", checked_extend)
        monkeypatch.setattr(Search, "_record_ship", checked_record)
        monkeypatch.setattr(search_mod, "_dfs_probe", checked_probe)
        res = run_search(params, config)
        assert res.ships
        assert any(recorded)  # some ship is recorded inside a block
        assert len(appends) > history(params)  # the tree grew past its seed chain, one append a seed node

    @PROBE_CASES
    def test_probe_children_carry_their_state_keys(self, monkeypatch, params, config):
        # each walk starts from its root's window and level. Every child it
        # draws from its rows has the rows of its path: the root's rows in
        # the arena, then those of the nodes the walk went down through,
        # then its own. The ships the walk notes are exactly the drawn
        # children with key 0 and a live row in the parent's window. Of the
        # others, the child the walk goes down to (or stops at, at the
        # limit) is in seen at its level, unless seen is full and lacks it,
        # and those it skips are in seen at no greater level, all under the
        # state key of their last 2p rows; the child it goes down to is no
        # goal and carries the window successors() reads on its path
        original_probe, original_walk = search_mod._dfs_probe, search_mod._probe_walk
        block, checked = [], []  # the roots being probed and how many walks have started; the keys checked

        def probe(search, roots, limit):
            block[:] = [roots, 0]
            return original_probe(search, roots, limit)

        def checked_walk(search, window, level, limit, ships):
            roots, i = block
            block[1] += 1
            arena, hist, n, w = search.arena, search.hist, 2 * search.params.period, search.params.width
            root_rows = arena.all_rows(roots[i])
            assert level == search.level_of(roots[i])
            drawn = []  # since the walk last stopped: the rows of the path to each child it drew

            def draw(path, rows):
                for c in rows:
                    drawn.append([*path, c])
                    yield c

            def is_goal(path):
                return not fold_rows(path[-n:], w) and any(([0] * hist + path[:-1])[-hist:])

            walk = original_walk(search, window, level, limit, ships)
            window, path = next(walk), root_rows
            seen = walk.gi_frame.f_locals["seen"]
            while True:
                assert window == ([0] * hist + path)[-hist:]
                assert path is root_rows or not is_goal(path)
                noted = len(ships)
                drawn.clear()
                try:
                    window = walk.send(draw(path, (yield window)))
                    verdict = None
                except StopIteration as end:
                    verdict = end.value
                assert ships[noted:] == [d[len(root_rows) :] for d in drawn if is_goal(d)]
                chosen = drawn[-1] if verdict is not False else None  # gone down to, or at the limit
                for d in drawn:
                    if not is_goal(d):
                        key, depth = fold_rows(d[-n:], w), level + len(d) - len(root_rows)
                        if d is chosen:
                            full = len(seen) == search.config.node_capacity
                            assert seen.get(key) == depth or key not in seen and full
                        else:
                            assert seen.get(key, depth + 1) <= depth
                        checked.append(key)
                if verdict is not None:
                    assert not verdict or len(chosen) - len(root_rows) == limit - level
                    return verdict
                path = chosen

        monkeypatch.setattr(search_mod, "_dfs_probe", probe)
        monkeypatch.setattr(search_mod, "_probe_walk", checked_walk)
        res = run_search(params, config)
        assert res.ships
        assert len(checked) > res.status.states_expanded // 2


class TestLevelOrder:
    @pytest.mark.parametrize("name", list(bench_module("workloads").QUICK))
    def test_depths_follow_the_parents(self, monkeypatch, name):
        # the arena reads a node's depth from its level starts, which hold
        # only while nodes come in level order: after every breadth-first
        # chunk and every compaction (those after narrowings among them),
        # each node's depth is the one counted along its parents
        workload = bench_module("workloads").QUICK[name]
        params, config = search_from_argv(workload.argv())
        checked = {"_expand_head": 0, "compact": 0}

        def checking(step):
            original = getattr(search_mod, step)

            def run(search):
                original(search)
                arena = search.arena
                assert [arena.depth(i) for i in range(len(arena))] == walk_depths(arena)
                checked[step] += 1

            monkeypatch.setattr(search_mod, step, run)

        checking("_expand_head")
        checking("compact")
        status = run_search(params, config).status
        assert status.states_expanded == workload.reference["states_expanded"]
        assert checked["_expand_head"] and checked["compact"] == workload.reference["compactions"]


class TestSeedChain:
    @staticmethod
    def check_chain(search):
        # the seed chain is one successor window of dead rows, nodes
        # 0..hist-1, its tip at level 0; a window reaching past it raises
        n, arena = history(search.params), search.arena
        assert search.hist == n
        assert arena.rows[:n].tolist() == [0] * n
        assert arena.parents[:n].tolist() == [-1, *range(n - 1)]
        assert search.level_of(n - 1) == 0
        assert arena.windows([n - 1], n).tolist() == [[0] * n]
        with pytest.raises(ValueError, match="past a root"):
            arena.windows([0], 2)

    def run_checked(self, monkeypatch, params, config):
        """run_search's result, and the width at each compaction, after
        each of which the seed chain and the table are checked."""
        original = search_mod.compact
        widths = []

        def checked(search):
            original(search)
            self.check_chain(search)
            assert sorted(int_keys(search.tt)) == queued_keys(search)  # the seed's state and the frontier's
            widths.append(search.params.width)

        monkeypatch.setattr(search_mod, "compact", checked)
        return run_search(params, config), widths

    def test_seed_chain_survives_compaction_and_narrowing(self, monkeypatch):
        # level_of counts from node hist-1: every compaction, also the one
        # after a narrowing, keeps the dead seed chain as nodes 0..hist-1
        params = SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR)
        config = SearchConfig(node_capacity=256, max_deepening=6, continue_after_find=True)
        res, widths = self.run_checked(monkeypatch, params, config)
        assert res.ships
        assert len(widths) > 2 and widths[-1] < params.width

    def test_seed_chain_holds_a_whole_window(self, monkeypatch):
        # Life p3 k2 glide w5 reads p + 2k = 7 rows, one more than 2p: its
        # seed chain holds all 7, from Search() on and through every
        # compaction, also those after narrowings (capacity 4p fills at
        # once, and the cap narrows the strip down to width 2)
        params = SearchParams(LIFE, *next(mode for mode in HISTORY_MODES if mode[:2] == (3, 2)))
        assert history(params) == 7 > 2 * params.period
        search = Search(params)
        self.check_chain(search)
        assert len(search.arena) == search.generated == 7 and frontier(search) == [6]
        res, widths = self.run_checked(monkeypatch, params, SearchConfig(node_capacity=4 * params.period, max_deepening=2))
        assert res.status.outcome == EXHAUSTED
        assert len(widths) > 2 and widths[-1] < params.width


class TestDeterminism:
    def test_repeat_runs_identical(self):
        params = SearchParams(LIFE, 4, 1, 4, translation=DIAGONAL)
        a = run_search(params)
        b = run_search(params)
        assert [s.rows for s, _ in a.ships] == [s.rows for s, _ in b.ships]
        assert a.status.states_expanded == b.status.states_expanded

    def test_folding_search_runs_under_a_profiler(self, monkeypatch):
        # c/3 even w7 folds its duplicate table into a non-empty sorted
        # part before its first ship; a profiler's reference to the table's
        # array during a method call must not make that fold raise
        params = SearchParams(LIFE, 3, 1, 7, EVEN_MIRROR)
        plain = run_search(params)
        folds, fold = [], TranspositionTable._fold

        def counted(table):
            folds.append(len(table.keys))
            fold(table)

        monkeypatch.setattr(TranspositionTable, "_fold", counted)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            profiled = run_search(params)
        finally:
            profiler.disable()
        assert any(folds) and profiled.status == plain.status
        assert [s.rows for s, _ in profiled.ships] == [s.rows for s, _ in plain.ships]


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
        # at every interval chunks span many parents, and a report comes
        # at the end of a chunk or a probe step
        log.paused = True
        for interval in (1, 7, 97):
            single = _reports(monkeypatch, NEVER, params, config, interval)
            for minimum in (1, DEFAULT_BATCH_MIN):
                assert _reports(monkeypatch, minimum, params, config, interval) == single
        log.paused = False
        # the log's stops come from a run with every state batched and
        # reports off, whose chunks only a full arena or a ship cuts
        batched = _reports(monkeypatch, 1, params, config, interval=0)
        kernel_windows = log.windows
        assert _reports(monkeypatch, NEVER, params, config, interval=0) == batched
        assert log.windows == kernel_windows  # none at all with batching off
        log.paused = True
        assert _reports(monkeypatch, DEFAULT_BATCH_MIN, params, config, interval=0) == batched
        log.paused = False
        assert batched[1:] == single[1:]  # the same final status and ships with reports on
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
        # a report comes at the end of the first chunk or probe step past
        # its due count, whether the chunk's rows come from the kernel or
        # from successors() on each state
        params, config = search_from_argv(bench_module("workloads").QUICK[name].argv())
        single = _reports(monkeypatch, NEVER, params, config, interval)
        for minimum in (1, DEFAULT_BATCH_MIN):
            assert _reports(monkeypatch, minimum, params, config, interval) == single

    @pytest.mark.parametrize("interval", [1, 7, 50])  # the shortest search makes 78 expansions
    @pytest.mark.parametrize("name", list(bench_module("workloads").QUICK))
    def test_reports_leave_the_work_unchanged(self, monkeypatch, name, interval):
        # with reports on, even one due after every expansion, the chunks and the kernel calls are those with
        # reports off, and a report comes less than BATCH_CHUNK
        # expansions after it falls due: at most one chunk or probe step.
        # A chunk falls short of BATCH_CHUNK parents only where the frontier
        # runs out, the arena has no more room or a ship ends the search
        params, config = search_from_argv(bench_module("workloads").QUICK[name].argv())
        expand, kernel = search_mod._expand_head, search_mod.successors_batch

        def work(interval):
            chunks, calls = [], []

            def logged_expand(search):
                before, queued = search.status.states_expanded, len(frontier(search))
                room = search.config.node_capacity - (1 << search.params.width) - search.generated
                expand(search)
                size = search.status.states_expanded - before
                short = size < BATCH_CHUNK and size not in (queued, max(1, room))
                assert not short or search.arena_full() or search.status.outcome != RUNNING
                chunks.append(size)

            def logged_kernel(*args):
                calls.append(1)
                return kernel(*args)

            monkeypatch.setattr(search_mod, "_expand_head", logged_expand)
            monkeypatch.setattr(search_mod, "successors_batch", logged_kernel)
            reports = _reports(monkeypatch, DEFAULT_BATCH_MIN, params, config, interval)[0]
            return reports, (chunks, len(calls))

        reports, on = work(interval)
        assert on == work(0)[1]
        counts = [0] + [status.states_expanded for status in reports]
        assert all(count - (last + interval) < BATCH_CHUNK for last, count in zip(counts, counts[1:]))

    @pytest.mark.parametrize("minimum", [1, 3, 5])
    def test_drained_queue_keeps_the_last_head(self, monkeypatch, minimum):
        # c/3 odd width 4 exhausts at level 29, its states there having
        # no fresh child. The level-28 state expanded last (its children
        # all known by then) is put back at the frontier's head, and the
        # frontier cut back to it and the first level-29 state: one chunk
        # of two levels drains it, and the final status gives the level of
        # the chunk's last parent, 29, as expanding one state at a time
        # does (28 if it kept the chunk's first)
        monkeypatch.setattr(search_mod, "BATCH_MIN", minimum)
        params = SearchParams(LIFE, 3, 1, 4, ODD_MIRROR)

        def drained(expand):
            search = Search(params)
            while search.level_of(search.head) < 29:
                sequential_expand(search)
            search.head -= 1
            truncate(search.arena, search.head + 2)
            assert search.level_of(search.head) == 28
            search._tick()
            while frontier(search):
                expand(search)
            search._tick(force=True)
            return search.status

        bulk = drained(search_mod._expand_head)
        assert bulk == drained(sequential_expand) and bulk.frontier_level == 29

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
    # a chunk expanded in one bulk pass must leave what expanding its
    # states one frontier head at a time leaves: the same final status (arena
    # size and frontier level too) and ships, and at the count of each
    # report the same status

    def check_same(self, monkeypatch, params, config, intervals=(1, 7, 97, 0)):
        # at every interval (0: reports off) the final status and ships are
        # those of one-at-a-time expansion, and each report, in order, is
        # one that one-at-a-time expansion makes at interval 1, where it
        # reports after every expansion. After every step of either, the
        # frontier is the arena's tail: its nodes are leaves whose parents
        # lie before the head. Each bulk step leaves the expansions, nodes
        # generated, arena size and head that some one-at-a-time step
        # leaves, in order; and there, generated equals the length the
        # reference arena would have if it kept every child added to it
        bulk, add, steps = search_mod._expand_head, NodeArena.add, []

        def stepping(expand):
            def step(search):
                expand(search)
                arena, head = search.arena, search.head
                assert max(arena.parents[head:], default=-1) < head
                steps.append((search.status.states_expanded, search.generated, len(arena), head))

            return step

        def grow(arena, row, parent):
            arena.grown = getattr(arena, "grown", len(arena)) + 1  # the nodes it was built with, then every add
            return add(arena, row, parent)

        def reference(search):
            sequential_expand(search)
            assert search.generated == getattr(search.arena, "grown", len(search.arena))

        with monkeypatch.context() as patch:
            patch.setattr(NodeArena, "add", grow)
            patch.setattr(search_mod, "_expand_head", stepping(reference))
            every, *sequential = _reports(patch, DEFAULT_BATCH_MIN, params, config, interval=1)
        one_at_a_time = steps[:]
        monkeypatch.setattr(search_mod, "_expand_head", stepping(bulk))
        for interval in intervals:
            steps.clear()
            reports, *final = _reports(monkeypatch, DEFAULT_BATCH_MIN, params, config, interval)
            assert final == sequential and reports[-1] == final[0]
            among = iter(every)
            assert all(report in among for report in reports)
            among = iter(one_at_a_time)
            assert all(step in among for step in steps)
        return sequential[0]

    @pytest.mark.parametrize("name", list(bench_module("workloads").QUICK))
    def test_quick_workloads(self, monkeypatch, name):
        params, config = search_from_argv(bench_module("workloads").QUICK[name].argv())
        self.check_same(monkeypatch, params, config)

    @pytest.mark.parametrize(
        "params, config",
        [
            (SearchParams(LIFE, 4, 1, 5, EVEN_MIRROR), SearchConfig(progress_interval=1)),
            (SearchParams(LIFE, 4, 1, 5, EVEN_MIRROR), SearchConfig(progress_interval=97)),
            (SearchParams(LIFE, 4, 1, 5, EVEN_MIRROR), SearchConfig()),
            (SearchParams(LIFE, 4, 1, 4, translation=DIAGONAL), SearchConfig(progress_interval=5)),
            # deepening rounds, compaction, narrowing and a drained frontier
            (
                SearchParams(LIFE, 3, 1, 6, EVEN_MIRROR),
                SearchConfig(node_capacity=256, max_deepening=6, continue_after_find=True, progress_interval=3),
            ),
        ],
        ids=["exhaust-every", "exhaust-97", "exhaust-final-only", "diagonal-find", "c3-even-deepen"],
    )
    def test_reports_and_final_status_unchanged(self, monkeypatch, params, config):
        # at the configured interval and with reports off (the default,
        # where only the final status is reported)
        self.check_same(monkeypatch, params, config, intervals={config.progress_interval, 0})

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
        # the LWSS's goal parent, the frontier cut back to it and the node
        # expanded just before it, whose children are all known by then
        # (re-expanding it keeps the arena in level order): the one chunk
        # that expands both ends at the ship with the frontier drained, and
        # the final status gives the goal parent's level, that of the head
        # at the last tick of a one-at-a-time expansion
        params = SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT)
        search = Search(params)
        while search.status.outcome == RUNNING:
            sequential_expand(search)
        goal_parent = search.head - 1  # the ship's parent is the last node expanded

        def drained(expand):
            search = Search(params)
            while search.head != goal_parent:
                sequential_expand(search)
            search.head -= 1
            truncate(search.arena, goal_parent + 1)
            search._tick()
            while frontier(search) and search.status.outcome == RUNNING:
                expand(search)
            search._tick(force=True)
            return search.status, search.ships, len(frontier(search))

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
        # the nodes generated as the block found them
        params, config = search_from_argv(bench_module("workloads").QUICK["quick-c3-even-w6-deepen"].argv())
        lockstep = search_mod._dfs_probe

        def run(minimum):
            monkeypatch.setattr(search_mod, "BATCH_MIN", minimum)
            start, reports, inside = [], [], []

            def probe(search, roots, limit):
                start.append(search.generated)
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
        # at every tick inside a block, each of its walks waits for rows,
        # or has ended, which frees its frame stack and seen dict, or has
        # been dropped after a ship that ends the search, which frees the
        # walk itself; the dropped walks are those of the roots after some
        # root. On quick c/3 walks end while others wait; on the LWSS at
        # capacity 64, walks are dropped while others wait.
        original_probe, original_walk, tick = search_mod._dfs_probe, search_mod._probe_walk, Search._tick
        walks, beside = [], set()  # weak references to the block's walks; the states met beside a waiting walk

        def probe(search, roots, limit):
            walks.clear()
            try:
                return original_probe(search, roots, limit)
            finally:
                walks.clear()

        def started(*args):
            walk = original_walk(*args)
            walks.append(weakref.ref(walk))
            return walk

        def checked_tick(search, force=False):
            states = ["dropped" if w is None else "ended" if w.gi_frame is None else "waiting" for w in (r() for r in walks)]
            dropped = states.count("dropped")
            assert "dropped" not in states[: len(states) - dropped]
            if "waiting" in states:
                beside.update(states)
            tick(search, force)

        monkeypatch.setattr(search_mod, "_dfs_probe", probe)
        monkeypatch.setattr(search_mod, "_probe_walk", started)
        monkeypatch.setattr(Search, "_tick", checked_tick)
        params, config = search_from_argv(bench_module("workloads").QUICK["quick-c3-even-w6-deepen"].argv())
        run_search(params, config)
        assert beside == {"waiting", "ended"}
        beside.clear()
        run_search(SearchParams(LIFE, 2, 1, 5, GLIDE_REFLECT), SearchConfig(64))
        assert "dropped" in beside

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
        # the roots being probed and those whose walks have started; per
        # block, the roots of goals met, of ships recorded
        block, walks, met, recorded = [], [], [], []

        def watch(search, window, level, limit, ships):
            # walks start in root order; the walk's ships list grows by one
            # for each goal it meets
            root, noted = len(walks), 0
            walks.append(root)

            def step(walk):
                nonlocal noted
                met[-1].extend([root] * (len(ships) - noted))
                noted = len(ships)

            return step

        def logged_record(search, rows):
            if block:
                # a ship's rows are its root's, then its probe's
                arena = search.arena
                (root,) = [r for r, idx in enumerate(block) if rows[: arena.depth(idx) + 1] == arena.all_rows(idx)]
                recorded[-1].append(root)
            return original_record(search, rows)

        def logged_probe(search, roots, limit):
            block[:], walks[:] = roots, []
            met.append([])
            recorded.append([])
            try:
                return lockstep(search, roots, limit)
            finally:
                block.clear()

        monkeypatch.setattr(Search, "_record_ship", logged_record)
        sequential = self.check_same(monkeypatch, params, config)
        _watch_walks(monkeypatch, watch)
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

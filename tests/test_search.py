"""Tests for the breadth-first search driver.

These are integration tests: the row-constraint machinery is covered by
the successor and oracle suites, so here we check orchestration, i.e.
outcomes, deepening, narrowing, dedup and progress reporting.
"""

import inspect
import random
import sys
import tracemalloc
from collections import deque
from dataclasses import replace

import pytest

from helpers import bench_module, search_from_argv
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
    SearchParams,
    is_goal,
    state_key,
)

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
        transposition-table insert."""
        searches = []
        original_init, original_insert = Search.__init__, search_mod.transposition_insert

        def init(self, *args, **kwargs):
            searches.append(self)
            original_init(self, *args, **kwargs)

        def checked(table, key, idx):
            verdict = original_insert(table, key, idx)
            check(searches[-1], key, idx, verdict)
            return verdict

        monkeypatch.setattr(Search, "__init__", init)
        monkeypatch.setattr(search_mod, "transposition_insert", checked)
        return run_search(params, config)

    @CARRIED_KEY_CASES
    def test_table_keys_are_state_keys_and_goals_are_caught(self, monkeypatch, params, config):
        # every child the search expands either goes through the goal test
        # or is offered to the transposition table; a key that differs from
        # state_key, or a goal let through by the key == 0 gate, shows here
        offered = []

        def check(search, key, idx, verdict):
            assert key == state_key(search.params, search.arena, idx)
            assert not is_goal(search.params, search.arena, idx)
            offered.append(idx)

        res = self.run_offering(monkeypatch, params, config, check)
        assert res.ships
        assert len(offered) > res.status.states_expanded // 2

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
        # the ship the default capacity finds
        largest = 0
        probe_code = search_mod._dfs_probe.__code__

        def in_probe(frame, event, arg):
            nonlocal largest
            largest = max(largest, len(frame.f_locals.get("seen", ())))
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
            return [search.arena.all_rows(idx) for idx in search.queue]

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
        search.queue = deque(i for i in search.queue if any(r >> top for r in search.arena.rows_back(i, search.hist)))
        assert search.queue
        reduce_width(search)
        assert not search.queue and search.params.width == top
        assert search.tt == {0: 2 * params.period - 1}  # the seed's state
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
    def test_probe_path_lives_in_the_arena(self, monkeypatch, params, config):
        # while a probe runs, every node past the arena's length before the
        # probe is on the path from the root to the node being added, is
        # that node's sibling, or (when the search continues after a find)
        # a finished ship hanging off the path; no node is deeper than the
        # limit. The probe leaves the arena as it found it, also when its
        # ship ends the search.
        probe = {}
        original_probe, original_add = search_mod._dfs_probe, NodeArena.add
        calls = []

        def checked_add(arena, row, parent):
            idx = original_add(arena, row, parent)
            if probe and arena is probe["search"].arena:
                search, start, root = probe["search"], probe["start"], probe["root"]
                line, cur = {root}, parent
                while cur >= start:
                    line.add(cur)
                    cur = arena.parents[cur]
                assert cur == root
                for i in range(start, idx):
                    if i not in line and arena.parents[i] != parent:
                        assert config.continue_after_find and arena.parents[i] in line
                        assert is_goal(search.params, arena, i)
                assert search.level_of(idx) <= probe["limit"]
                probe["grew"] = max(probe["grew"], idx + 1 - start)
            return idx

        def checked_probe(search, root, limit):
            probe.update(search=search, start=len(search.arena), root=root, limit=limit, grew=0)
            keep = original_probe(search, root, limit)
            assert len(search.arena) == probe["start"]
            calls.append(probe["grew"])
            probe.clear()
            return keep

        monkeypatch.setattr(NodeArena, "add", checked_add)
        monkeypatch.setattr(search_mod, "_dfs_probe", checked_probe)
        res = run_search(params, config)
        assert res.ships
        assert calls and max(calls) > 2

    @PROBE_CASES
    def test_child_step_keys_are_state_keys(self, monkeypatch, params, config):
        # every child the child step yields, in the breadth-first loop and
        # in the probe, carries its state key and is no goal
        original, original_probe = search_mod._children, search_mod._dfs_probe
        probing, yielded = [], []

        def checked(search, idx, window, rows):
            for child, key in original(search, idx, window, rows):
                assert key == state_key(search.params, search.arena, child)
                assert not is_goal(search.params, search.arena, child)
                yielded.append(bool(probing))
                yield child, key

        def probe(search, root, limit):
            probing.append(root)
            try:
                return original_probe(search, root, limit)
            finally:
                probing.pop()

        monkeypatch.setattr(search_mod, "_children", checked)
        monkeypatch.setattr(search_mod, "_dfs_probe", probe)
        res = run_search(params, config)
        assert res.ships
        assert len(yielded) > res.status.states_expanded // 2
        assert any(yielded)  # some come from the probe


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
            assert search.arena.rows[:n] == [0] * n
            assert search.arena.parents[:n] == [-1, *range(n - 1)]
            assert search.level_of(n - 1) == 0
            assert search.tt[0] == n - 1  # the seed's state, recorded first
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


class BatchLog:
    """Wraps successors_batch and _expand_head: how many windows went
    through the kernel, at which widths, and how many chunks stopped
    before their last parent for a ship or for a full arena. Nothing is
    logged while paused."""

    def __init__(self, monkeypatch):
        self.windows, self.widths, self.ship_stops, self.full_stops = 0, set(), 0, 0
        self.last, self.paused = 0, False
        kernel, expand = search_mod.successors_batch, search_mod._expand_head

        def logged_kernel(params, tables, windows):
            if not self.paused:
                self.windows += len(windows)
                self.widths.add(params.width)
                self.last = len(windows)
            return kernel(params, tables, windows)

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


def _reports(monkeypatch, minimum, params, config):
    """Every progress report, the final status and the ships of one
    search with the given batch minimum."""
    monkeypatch.setattr(search_mod, "BATCH_MIN", minimum)
    seen = []
    res = run_search(params, replace(config, progress_interval=1), progress=seen.append)
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
        assert _reports(monkeypatch, search_mod.BATCH_MIN, params, config) == batched
        log.paused = False
        return batched[1]

    @pytest.mark.parametrize("name", list(bench_module("workloads").QUICK))
    def test_quick_workloads(self, monkeypatch, name):
        params, config = search_from_argv(bench_module("workloads").QUICK[name].argv())
        log = BatchLog(monkeypatch)
        status = self.check_same(monkeypatch, log, params, config)
        assert log.windows > 0
        if status.outcome == SHIP_FOUND:
            assert log.ship_stops == 1  # the first ship ends the search inside a chunk
        if config.node_capacity < 1 << 10:
            assert log.full_stops > 0
            assert len(log.widths) > 1  # narrowed, and batched again at the new width

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

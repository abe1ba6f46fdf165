"""Breadth-first ship search with depth-first pruning rounds.

The frontier grows breadth-first so the shortest ships surface first.
When the node arena approaches capacity, a deepening round probes every
frontier state depth-first to a limit that rises by one period each
round: roots whose subtree dies before the limit are dropped, the
survivors are kept, and compaction rebuilds the arena from them. With a
tiny capacity this degrades into plain iterative deepening; with a large
one the rounds are rare. If max_deepening is set and the limit outruns
the frontier by more than that, the strip is narrowed by one column
instead.

Both loops expand a node through one child step, _children, which is
handed the node's window and successor rows. The breadth-first loop has
one path: it takes the first BATCH_CHUNK queued states when at least
BATCH_MIN are queued, whatever their levels, and the head alone
otherwise; it reads each window once, gets the rows of a large chunk
from one successors_batch call on the search's own tables and those of
the head from successors(), then expands the states one at a time in
queue order. A chunk stops where expanding one state at a time would
stop (a full arena or a ship that ends the search) and holds only states
already in the arena, so counts, progress reports, compactions and ships
do not depend on the batching. The probe calls successors() per window.
Nothing configures this. The probe keeps its path in the arena and cuts
the arena back as it backtracks, so a round can hold one probe path
beyond the node capacity.

Every candidate ship is re-verified by evolving the extracted pattern;
a verification failure means the constraint machinery is wrong and is
raised, never swallowed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from itertools import islice

from .pattern import Pattern, ShipDescriptor, classify_ship
from .statespace import (
    GLIDE_REFLECT,
    ORTHOGONAL,
    NodeArena,
    SearchParams,
    TranspositionTable,
    extract_ship,
    fold_rows,
    history,
    is_goal,
    make_initial_state,
    state_key,
    transposition_insert,
)
from .successor import build_tables, successors, successors_batch

# With at least BATCH_MIN states queued, the first BATCH_CHUNK of them, of
# any levels, share one successors_batch call. Below about 48 windows the
# batched kernel costs more per window than successors(); past 4096 it
# gains little, while its arrays grow with the chunk.
BATCH_MIN = 64
BATCH_CHUNK = 4096

RUNNING = "running"
SHIP_FOUND = "ship_found"
EXHAUSTED = "exhausted"
WIDTH_EXHAUSTED = "width_exhausted"


@dataclass(frozen=True)
class SearchConfig:
    node_capacity: int = 1 << 22
    max_deepening: int | None = None  # narrow the strip once limit - frontier exceeds this
    continue_after_find: bool = False
    progress_interval: int = 0  # expansions between progress callbacks; 0 = off

    def check(self, params: SearchParams) -> None:
        """Raise ValueError for a setting no search with params accepts."""
        if self.node_capacity < 4 * params.period:
            raise ValueError(f"node_capacity must be at least 4 periods ({4 * params.period} nodes)")
        if self.max_deepening is not None and self.max_deepening < 0:
            raise ValueError("max_deepening must not be negative")
        if self.progress_interval < 0:
            raise ValueError("progress_interval must not be negative")


@dataclass
class SearchStatus:
    frontier_level: int = 0
    deepening_limit: int = 0
    nodes_in_arena: int = 0
    states_expanded: int = 0
    current_width: int = 0
    outcome: str = RUNNING


@dataclass
class SearchResult:
    ships: list[tuple[Pattern, ShipDescriptor]]
    status: SearchStatus


class Search:
    """All mutable state of one running search."""

    def __init__(self, params: SearchParams, config: SearchConfig | None = None, progress=None):
        config = config or SearchConfig()
        config.check(params)
        self.params = params
        self.config = config
        self.progress = progress
        self.tables = build_tables(params)
        self.hist = history(params)  # the window successors() reads
        self.arena, tip = make_initial_state(params)
        self.queue: deque[int] = deque([tip])
        self._new_table([tip])
        self.limit: int | None = None  # deepening level reached by previous rounds
        self.ships: list[tuple[Pattern, ShipDescriptor]] = []
        self._ship_keys: set = set()
        self.status = SearchStatus(current_width=params.width)
        self._last_progress = 0
        self._head: int | None = None  # queue head at the last _tick

    # -- small helpers ----------------------------------------------------

    def level_of(self, idx: int) -> int:
        """Rows appended beyond the all-dead seed, nodes 0..2p-1 (compaction
        keeps them there: they are everyone's ancestors)."""
        return self.arena.depths[idx] - (2 * self.params.period - 1)

    def arena_full(self) -> bool:
        """True when one more expansion could overrun the node capacity: a
        deepening round and compaction come first."""
        return len(self.arena) + (1 << self.params.width) > self.config.node_capacity

    def _new_table(self, nodes) -> None:
        """Start a transposition table holding the states of nodes: the
        all-dead seed, then the frontier in queue order."""
        self.tt = TranspositionTable()
        for idx in nodes:
            transposition_insert(self.tt, state_key(self.params, self.arena, idx), idx)

    def _tick(self, force: bool = False) -> None:
        # status is refreshed only for a report or when forced; a drained
        # queue leaves the frontier level at the head noted last
        if self.queue:
            self._head = self.queue[0]
        if not force:
            interval = self.config.progress_interval
            if self.progress is None or not interval or self.status.states_expanded - self._last_progress < interval:
                return
        self.status.nodes_in_arena = len(self.arena)
        if self._head is not None:
            self.status.frontier_level = self.level_of(self._head)
        if self.progress is not None:
            self._last_progress = self.status.states_expanded
            self.progress(replace(self.status))

    def _record_ship(self, idx: int) -> bool:
        """Extract, re-verify and store a ship; True if the search should
        stop now."""
        params = self.params
        ship = extract_ship(params, self.arena, idx)
        desc = classify_ship(params.rule, ship, 2 * params.period)
        p, k = params.period, params.offset
        ok = desc is not None
        if ok:
            if params.translation == ORTHOGONAL:
                ok = desc.dx == 0 and desc.dy != 0 and abs(desc.dy) * p == k * desc.period
            else:
                ok = abs(desc.dx) == abs(desc.dy) != 0 and abs(desc.dy) * p == k * desc.period
        if not ok:
            raise RuntimeError(
                f"extracted pattern failed re-verification (rows={ship.rows}, "
                f"width={ship.width}, classified={desc}); the search tables are inconsistent"
            )
        key = (ship.rows, ship.width, desc.period, desc.dx, desc.dy)
        if key not in self._ship_keys:
            self._ship_keys.add(key)
            self.ships.append((ship, desc))
        if self.config.continue_after_find:
            return False
        self.status.outcome = SHIP_FOUND
        return True


def _children(search: Search, idx: int, window: list[int], rows):
    """Expand one node, given its window (rows_back over search.hist rows)
    and its successor rows: add each row to the arena as a child of idx,
    record the children that finish a ship and yield the others as
    (child, state key). Stops early when a recorded ship ends the search."""
    params, arena = search.params, search.arena
    search.status.states_expanded += 1
    # a child's state is the parent's last 2p-1 rows plus the new one
    w = params.width
    prefix = fold_rows(window[1 - 2 * params.period :], w) << w
    for c in rows:
        child = arena.add(c, idx)
        key = prefix | c
        if not key and is_goal(params, arena, child):
            if search._record_ship(child):
                return
            continue  # a finished ship only grows dead rows from here
        yield child, key


def _expand_head(search: Search) -> None:
    """Expand the queue head, or, when at least BATCH_MIN states are
    queued, the first BATCH_CHUNK of them, whose successor rows come from
    one successors_batch call. The parents are expanded one at a time in
    queue order, exactly as the head alone would be, and the chunk stops
    where run_search would stop expanding: at a full arena or a ship that
    ends the search. Parents not reached stay queued."""
    queue = search.queue
    chunk = list(islice(queue, BATCH_CHUNK)) if len(queue) >= BATCH_MIN else [queue[0]]
    windows = [search.arena.rows_back(idx, search.hist) for idx in chunk]
    if len(chunk) >= BATCH_MIN:
        rows = successors_batch(search.params, search.tables, windows)
    else:
        rows = [successors(search.params, search.tables, windows[0])]
    for idx, window, succ in zip(chunk, windows, rows):
        if search.status.outcome != RUNNING or search.arena_full():
            return
        queue.popleft()
        for child, key in _children(search, idx, window, succ):
            if transposition_insert(search.tt, key, child)[0] == "fresh":
                queue.append(child)
        if search.status.outcome == RUNNING:  # a ship that ends the search skips the tick
            search._tick()


def _dfs_probe(search: Search, root: int, limit: int) -> bool:
    """Depth-first from one frontier root to the given level. True when
    some descendant is still alive at the limit (the root is kept). The
    path lives in the arena: each frame is a child step and the arena's
    length when it was pushed, which the arena is cut back to before the
    frame's next child; on return the arena is back at its first length."""
    arena = search.arena

    def expand(idx):
        window = arena.rows_back(idx, search.hist)
        return _children(search, idx, window, successors(search.params, search.tables, window))

    start = len(arena)
    frames = [(expand(root), start)]
    seen: dict[int, int] = {}  # state key -> lowest level it was reached at
    while frames and search.status.outcome == RUNNING:
        children, mark = frames[-1]
        arena.truncate(mark)
        step = next(children, None)
        if step is None:
            frames.pop()
            continue
        child, key = step
        level = search.level_of(child)
        prev = seen.get(key)
        if prev is not None and prev <= level:
            continue
        # seen only prunes, so once it holds node_capacity states it takes
        # no new ones: a state it misses is expanded again, never lost
        if prev is not None or len(seen) < search.config.node_capacity:
            seen[key] = level
        if level >= limit:
            arena.truncate(start)
            return True
        frames.append((expand(child), len(arena)))
        search._tick()
    arena.truncate(start)
    return False


def dfs_round(search: Search) -> None:
    """One deepening round over the whole frontier; prunes dead roots in
    place and raises the limit, or narrows the strip when capped."""
    frontier = search.level_of(search.queue[0])
    p = search.params.period
    limit = frontier + p
    if search.limit is not None:
        limit = max(limit, search.limit + p)
    cap = search.config.max_deepening
    if cap is not None and limit - frontier > cap:
        reduce_width(search)
        return
    search.limit = limit
    search.status.deepening_limit = limit
    survivors = deque()
    while search.queue:
        root = search.queue.popleft()
        keep = _dfs_probe(search, root, limit)
        if search.status.outcome != RUNNING:
            return
        if keep:
            survivors.append(root)
    search.queue = survivors
    search._tick(force=True)


def compact(search: Search) -> None:
    """Rebuild the arena from the frontier and its ancestry. The
    transposition table starts over from the seed and the frontier, so it
    never holds more entries than the arena has nodes. With no frontier
    left, exhaustion is declared next: the arena is left as it is and the
    table starts over from the seed alone, so that after a narrowing it
    holds no key of the old width."""
    params, old = search.params, search.arena
    if not search.queue:
        search._new_table([2 * params.period - 1])
        return
    mark = bytearray(len(old))
    for idx in search.queue:
        cur = idx
        while cur >= 0 and not mark[cur]:
            mark[cur] = 1
            cur = old.parents[cur]
    remap = [-1] * len(old)
    fresh = NodeArena()
    for i in range(len(old)):
        if mark[i]:
            parent = old.parents[i]
            remap[i] = fresh.add(old.rows[i], remap[parent] if parent >= 0 else -1)
    search.queue = deque(remap[i] for i in search.queue)
    search.arena = fresh
    search._new_table([2 * params.period - 1, *search.queue])  # the seed's tip, then the frontier
    search._tick(force=True)


def reduce_width(search: Search) -> None:
    """Drop the strip's outermost column: frontier states live there (or,
    under glide, any recent live state, since the reversal axis moves) are
    discarded and the layout is rebuilt one column narrower."""
    params = search.params
    if params.width <= 1:
        search.status.outcome = WIDTH_EXHAUSTED
        return
    bit = params.width - 1
    glide = params.symmetry == GLIDE_REFLECT
    kept = deque()
    for idx in search.queue:
        window = search.arena.rows_back(idx, search.hist)
        if glide:
            if not any(window):
                kept.append(idx)
        elif not any(r >> bit & 1 for r in window):
            kept.append(idx)
    search.queue = kept
    search.params = replace(params, width=params.width - 1)
    search.tables = build_tables(search.params)
    search.status.current_width = search.params.width
    search.limit = None
    compact(search)


def run_search(params: SearchParams, config: SearchConfig | None = None, progress=None) -> SearchResult:
    """Drive a search to completion and return the ships found."""
    search = Search(params, config, progress)
    while search.status.outcome == RUNNING:
        if not search.queue:
            search.status.outcome = EXHAUSTED
            break
        if search.arena_full():
            dfs_round(search)
            if search.status.outcome == RUNNING:
                compact(search)
            continue
        _expand_head(search)
    search._tick(force=True)
    return SearchResult(ships=search.ships, status=search.status)
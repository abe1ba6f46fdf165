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

Both phases work on many states at once: the breadth-first loop expands
up to BATCH_CHUNK queued states of any levels as one chunk, a deepening
round runs the depth-first walks of up to BATCH_CHUNK roots in lockstep,
one generator each, and both take the rows of at least BATCH_MIN windows
from one successors_batch call, of fewer from successors() on each. A
chunk is cut only by a full arena or a ship. Its children reach the
arena and the transposition table in one bulk pass, its finished ships
caught among them before they reach either; the frontier that
compaction keeps is offered in bulk too. Counts and ships are those of
handling one state at a time, and nothing configures the batching.
Both phases report progress at the end of a step, a chunk or a probe
step, once progress_interval expansions have passed since the last
report; after a chunk, the status is that of expanding one state at a
time to the same count. The arena holds the breadth-first tree alone:
probe nodes never reach it, and ships are extracted from rows.

Every candidate ship is re-verified by evolving the extracted pattern;
a verification failure means the constraint machinery is wrong and is
raised, never swallowed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .pattern import Pattern, ShipDescriptor, classify_ship
from .statespace import (
    GLIDE_REFLECT,
    ORTHOGONAL,
    NodeQueue,
    SearchParams,
    TranspositionTable,
    child_keys,
    extract_ship,
    fold_rows,
    history,
    make_initial_state,
    transposition_insert,
    transposition_insert_many,
)
from .successor import build_tables, successors, successors_batch

# At least BATCH_MIN windows share one successors_batch call, at most
# BATCH_CHUNK. Below about 16 windows the batched kernel's fixed cost
# (0.11 and 0.19 ms a call on c/3 windows of widths 6 and 10, on a 2-core
# x86-64 VM) exceeds that of successors() on each (7 and 15 us a window),
# and the c/3 search ran no faster at 16 than at 24, within the host's
# noise; past 4096 it gains little, while its arrays grow with the chunk.
BATCH_MIN = 24
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
        if self.node_capacity > 1 << 31:  # node indices are stored as int32
            raise ValueError(f"node_capacity must be at most 2**31 ({1 << 31} nodes)")
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
        self.queue = NodeQueue([tip])
        self._new_table(())  # the seed is the whole frontier
        self.limit: int | None = None  # deepening level reached by previous rounds
        self.ships: list[tuple[Pattern, ShipDescriptor]] = []
        self._ship_keys: set = set()
        self.status = SearchStatus(current_width=params.width)
        self._last_progress = 0

    # -- small helpers ----------------------------------------------------

    def level_of(self, idx: int) -> int:
        """Rows appended beyond the all-dead seed chain, nodes 0..hist-1
        (compaction keeps them there: they are everyone's ancestors)."""
        return self.arena.depth(idx) - (self.hist - 1)

    def arena_full(self) -> bool:
        """True when one more expansion could overrun the node capacity: a
        deepening round and compaction come first."""
        return len(self.arena) + (1 << self.params.width) > self.config.node_capacity

    def _new_table(self, frontier) -> None:
        """Start a transposition table holding the all-dead seed's state,
        key 0, then the states of frontier.

        Key 0 goes in first so that the all-dead state is never queued:
        every later offer of it, a goal child's among them, is a
        duplicate. The goal test relies on that key (see _expand_head).
        It stays a scalar transposition_insert: bench/worker.py
        counts the table's duplicate ratio from that function's calls."""
        params, arena = self.params, self.arena
        self.tt = TranspositionTable(params)
        transposition_insert(self.tt, 0)
        if len(frontier):
            # a node's key is its parent's last 2p - 1 rows, then its own row
            windows = arena.windows(frontier, 2 * params.period)
            keys = child_keys(params, windows[:, :-1], np.arange(len(frontier)), windows[:, -1])
            transposition_insert_many(self.tt, keys)

    def _tick(self, force: bool = False) -> None:
        # a step's end: refresh the status (a drained queue keeps the
        # frontier level) and report when forced or when due
        self.status.nodes_in_arena = len(self.arena)
        if self.queue:
            self.status.frontier_level = self.level_of(self.queue[0])
        if self.progress is None:
            return
        interval = self.config.progress_interval
        if force or interval and self.status.states_expanded - self._last_progress >= interval:
            self._last_progress = self.status.states_expanded
            self.progress(replace(self.status))

    def _record_ship(self, rows: list[int]) -> bool:
        """Extract, re-verify and store the ship that rows, oldest first,
        finish; True if the search should stop now."""
        params = self.params
        ship = extract_ship(params, rows)
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


def _successor_lists(search: Search, windows: list) -> list[list[int]]:
    """The successor rows of each of windows as a list of ints: through
    successors_batch for at least BATCH_MIN windows, below that through
    successors() one window at a time."""
    if len(windows) < BATCH_MIN:
        return [successors(search.params, search.tables, window) for window in windows]
    at, rows = successors_batch(search.params, search.tables, windows)
    bounds, rows = np.searchsorted(at, np.arange(len(windows) + 1)).tolist(), rows.tolist()
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _expand_head(search: Search) -> None:
    """Expand the first queued states as one chunk, in one pass, exactly
    as expanding them one at a time in queue order would. The chunk takes
    BATCH_CHUNK parents, fewer where the arena has less room, and is cut
    only where run_search would stop expanding: before the parent at
    which the arena would be full, or at a ship that ends the search;
    parents not reached stay queued. A chunk that drains the queue leaves
    the frontier level at its last parent's, as the tick before that
    parent's own expansion would. Only a child whose state key is 0 can
    finish a ship, so only those are goal-tested, in order, from their
    parent's window before the chunk reaches the arena. A ship that ends
    the search cuts the chunk at its child: the arena takes the children
    through it, only those before it are offered, and its parent is the
    last one expanded. Other goal children are offered with the rest, and
    the seed's key 0 in the table turns them away."""
    queue, status = search.queue, search.status
    if status.outcome != RUNNING or search.arena_full():
        return
    params, arena = search.params, search.arena
    room = search.config.node_capacity - (1 << params.width)  # arena_full() <=> len(arena) > room
    # each parent with a child brings the arena a node nearer to full, so
    # parents past the first room - len(arena) are seldom reached
    chunk = queue.nodes(min(BATCH_CHUNK, max(1, room - len(arena))))
    windows = arena.windows(chunk, search.hist)
    if len(chunk) >= BATCH_MIN:
        at, rows = successors_batch(params, search.tables, windows)
    else:  # successors() shifts rows left: a NumPy scalar would wrap
        found = _successor_lists(search, windows.tolist())
        at = np.repeat(np.arange(len(found)), [len(rows) for rows in found])
        rows = np.fromiter(chain.from_iterable(found), dtype=np.uint64, count=len(at))
    keys = child_keys(params, windows, at, rows)
    first = [0, *np.cumsum(np.bincount(at, minlength=len(chunk))).tolist()]  # each parent's first child
    # parents 0..end-1: the arena fills before the first parent at which
    # its length would pass room
    end = min(len(chunk), bisect_right(first, room - len(arena)))
    stop = hi = first[end]  # the arena takes children 0..stop-1, the table 0..hi-1
    # A child is a goal when its key is 0 and its parent's window holds a
    # live row. A key-0 state is expanded only when nothing before it
    # lives: the seed's key 0 from _new_table turns every key-0 child away
    # from the queue, and a probe pushes a key-0 child only when its
    # window is dead. So a live row older than the window would have made
    # the parent a goal, never expanded.
    for i in np.flatnonzero(~keys[:hi].any(axis=1)).tolist():
        if windows[at[i]].any() and search._record_ship(arena.all_rows(int(chunk[at[i]])) + [int(rows[i])]):
            end, stop, hi = int(at[i]) + 1, i + 1, i
            break
    start = len(arena)
    arena.add_children(chunk[at[:stop]], rows[:stop])
    queue.pop(end)
    queue.extend(start + transposition_insert_many(search.tt, keys[:hi]))
    status.states_expanded += end
    if not queue:
        status.frontier_level = search.level_of(int(chunk[end - 1]))
    if status.outcome == RUNNING:
        search._tick()  # none after a ship that ends the search


def _probe_walk(search: Search, window: list[int], level: int, limit: int, ships: list):
    """The depth-first probe of a root, given its window and level: yields
    the window of each node it expands, is sent that node's successor rows,
    and returns True once a descendant reaches limit. A goal is told from
    its parent's window, as in _expand_head; its probe rows go to ships, and
    one that ends the search ends the walk.

    seen maps each state key met to the lowest level it was met at, and a
    child met again no deeper is skipped. It takes at most node_capacity
    keys: a state it misses is expanded again, never lost. It also keeps a
    walk from going round a cycle of states to any limit: without it, c/3
    even w10 at capacity 1024 keeps its 72 blocks' verdicts (86,231
    expansions against 86,602), but c/3 even w6 at capacity 64 with
    --continue ran past 75 s, its limit at 3936, against 1.5 s and
    exhaustion at 81."""
    w, n, capacity = search.params.width, 2 * search.params.period, search.config.node_capacity
    mask = (1 << n * w) - 1  # a state key's bits
    seen = {}
    # a frame: a node's window, its children's state key prefix, an iterator over its rows
    stack = [(window, fold_rows(window[1 - n :], w) << w, iter((yield window)))]
    while stack:
        window, prefix, children = stack[-1]
        depth = level + len(stack)  # the children's level
        for c in children:
            key = prefix | c
            if not key and any(window):  # a goal, as _expand_head tells one
                ships.append([*(f[0][-1] for f in stack[1:]), c])
                if not search.config.continue_after_find:
                    return False
                continue  # a finished ship only grows dead rows from here
            prev = seen.get(key)
            if prev is not None and prev <= depth:
                continue
            if prev is not None or len(seen) < capacity:
                seen[key] = depth
            if depth >= limit:
                return True
            window = [*window[1:], c]
            stack.append((window, key << w & mask, iter((yield window))))
            break
        else:
            stack.pop()
    return False


def _dfs_probe(search: Search, roots: list[int], limit: int) -> list[bool]:
    """Depth-first from each of roots to the given level, in lockstep;
    True for a root with a descendant still alive at the limit (the root
    is kept). A ship that ends the search ends the list at its root.

    Each root has its own _probe_walk and makes the expansions it would
    make alone. Each step computes the rows of every waiting walk and
    sends each its own; a tick follows. Ships are extracted from rows (a
    probe adds nothing to the arena) and recorded after the last step, in
    root order. Where one ends the search, the walks of the roots after
    its root are dropped and their expansions taken back out."""
    arena, status = search.arena, search.status
    ships = [[] for _ in roots]  # per root, the probe rows down to each ship it found
    windows = arena.windows(roots, search.hist).tolist()
    levels = (np.searchsorted(arena.starts, roots, side="right") - search.hist).tolist()  # as level_of reads them
    walks = [_probe_walk(search, window, level, limit, found) for window, level, found in zip(windows, levels, ships)]
    keep, expanded = [False] * len(roots), [0] * len(roots)  # per root: its verdict, its expansions so far
    waiting = [(i, next(walk)) for i, walk in enumerate(walks)]  # per walk that needs rows: its root, the window
    while waiting:
        found = _successor_lists(search, [window for _, window in waiting])
        pushed = []
        for (i, _), rows in zip(waiting, found):
            if i >= len(walks):
                continue  # dropped
            expanded[i] += 1
            status.states_expanded += 1
            try:
                pushed.append((i, walks[i].send(rows)))
            except StopIteration as end:
                keep[i] = end.value
                if ships[i] and not search.config.continue_after_find:  # its ship ends the search
                    status.states_expanded -= sum(expanded[i + 1 :])
                    del walks[i + 1 :], expanded[i + 1 :]
        waiting = pushed
        search._tick()
    for i in range(len(walks)):
        for path in ships[i]:
            if search._record_ship(arena.all_rows(roots[i]) + path):
                return keep[: i + 1]
    return keep


def dfs_round(search: Search) -> None:
    """One deepening round over the whole frontier; prunes dead roots in
    place and raises the limit, or narrows the strip when capped. The
    roots are probed in blocks of up to BATCH_CHUNK, in queue order; a
    block's roots leave the queue once it is probed."""
    queue = search.queue
    frontier = search.level_of(queue[0])
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
    survivors = NodeQueue()
    while queue:
        roots = queue.nodes(BATCH_CHUNK)
        keep = _dfs_probe(search, roots.tolist(), limit)
        queue.pop(len(keep))
        if search.status.outcome != RUNNING:
            return
        survivors.extend(roots[np.array(keep, dtype=bool)])
    search.queue = survivors
    search._tick(force=True)


def compact(search: Search) -> None:
    """Rebuild the arena from the frontier and its ancestry. The
    transposition table starts over from the seed and the frontier, so it
    never holds more keys than the arena has nodes. With no frontier
    left, exhaustion is declared next: the arena is left as it is and the
    table starts over from the seed alone, so that after a narrowing it
    holds no key of the old width."""
    if not search.queue:
        search._new_table(())
        return
    search.arena, frontier = search.arena.ancestry(search.queue.nodes())
    search.queue = NodeQueue(frontier)
    search._new_table(frontier)
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
    queue, kept = search.queue.nodes(), NodeQueue()
    for lo in range(0, len(queue), BATCH_CHUNK):
        chunk = queue[lo : lo + BATCH_CHUNK]
        windows = search.arena.windows(chunk, search.hist)
        live = windows if glide else windows >> bit & 1
        kept.extend(chunk[~live.any(axis=1)])
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
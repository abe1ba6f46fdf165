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
round probes up to BATCH_CHUNK roots in lockstep, and both take their
rows from _successor_rows. A chunk's children reach the arena and the
transposition table in bulk, run by run, and a run's finished ships are
caught among its children before they reach either; the frontier that
compaction keeps is offered in bulk too. Counts, ships and progress
reports are those of handling one state at a time, and nothing
configures the batching. The arena holds the breadth-first tree alone:
probe nodes never reach it, and ships are extracted from rows.

Every candidate ship is re-verified by evolving the extracted pattern;
a verification failure means the constraint machinery is wrong and is
raised, never swallowed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
# BATCH_CHUNK. Below about 48 windows the batched kernel costs more per
# window than successors(); past 4096 it gains little, while its arrays
# grow with the chunk.
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
        self.queue = NodeQueue([tip])
        self._new_table(())  # the seed is the whole frontier
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

    def _new_table(self, frontier) -> None:
        """Start a transposition table holding the all-dead seed's state,
        key 0 at the seed's tip, then the states of frontier in order.

        Key 0 goes in first so that the all-dead state is never queued:
        every later offer of it, a goal child's among them, is a
        duplicate. The goal test relies on that entry (see _expand_head).
        It stays a scalar transposition_insert: bench/worker.py
        counts the table's duplicate ratio from that function's calls."""
        params, arena = self.params, self.arena
        self.tt = TranspositionTable(params)
        transposition_insert(self.tt, 0, 2 * params.period - 1)
        if len(frontier):
            # a node's key is its parent's last 2p - 1 rows, then its own row
            windows = arena.windows(frontier, 2 * params.period)
            keys = child_keys(params, windows[:, :-1], np.arange(len(frontier)), windows[:, -1])
            transposition_insert_many(self.tt, keys, frontier)

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


def _successor_rows(search: Search, windows) -> tuple[np.ndarray, np.ndarray]:
    """The successor rows of each of windows, as successors_batch gives
    them: through successors_batch for at least BATCH_MIN windows, below
    that through successors() one window at a time."""
    if len(windows) >= BATCH_MIN:
        return successors_batch(search.params, search.tables, windows)
    found = [successors(search.params, search.tables, window) for window in np.asarray(windows).tolist()]
    at = np.repeat(np.arange(len(found)), [len(rows) for rows in found])
    return at, np.fromiter(chain.from_iterable(found), dtype=np.uint64, count=len(at))


def _expand_head(search: Search) -> None:
    """Expand the first BATCH_CHUNK queued states (fewer where the arena
    has less room) exactly as expanding them one at a time in queue
    order would: the chunk stops where run_search would stop expanding,
    at a full arena or a ship that ends the search, and parents not
    reached stay queued. Its parents are expanded in runs, each with one
    bulk append to the arena and one bulk offer to the table; a run ends
    before the parent at which the arena would be full and after the
    parent at which a progress report falls due. Only a child whose
    state key is 0 can finish a ship, so only those are goal-tested, in
    order, from their parent's window before the run reaches the arena.
    A ship that ends the search cuts the run at its child: the arena
    takes the children through it, only those before it are offered,
    and its parent is the last one expanded. Other goal children are
    offered with the rest, and the table's entry for the seed's key 0
    turns them away."""
    queue = search.queue
    if search.status.outcome != RUNNING or search.arena_full():
        return
    params, arena = search.params, search.arena
    room = search.config.node_capacity - (1 << params.width)  # arena_full() <=> len(arena) > room
    # each parent with a child brings the arena a node nearer to full, so
    # parents past the first room - len(arena) are seldom reached
    chunk = queue.nodes(min(BATCH_CHUNK, max(1, room - len(arena))))
    windows = arena.windows(chunk, search.hist)
    at, rows = _successor_rows(search, windows)
    keys = child_keys(params, windows, at, rows)
    first = [0, *np.cumsum(np.bincount(at, minlength=len(chunk))).tolist()]  # each parent's first child
    zero = np.flatnonzero(~keys.any(axis=1)).tolist()  # the children with key 0
    interval = search.config.progress_interval if search.progress is not None else 0  # as _tick reads it
    j = 0
    while j < len(chunk):
        if search.status.outcome != RUNNING or search.arena_full():
            return
        # parents j..end-1: the arena fills before the first parent at
        # which its length would pass room
        end = min(len(chunk), bisect_right(first, room - len(arena) + first[j]))
        if interval:
            end = min(end, j + max(1, search._last_progress + interval - search.status.states_expanded))
        lo, hi = first[j], first[end]
        stop = hi  # the arena takes children lo..stop-1, the table lo..hi-1
        # A child is a goal when its key is 0 and its parent's window holds
        # a live row. A key-0 state is expanded only when nothing before it
        # lives: the seed's key-0 entry from _new_table turns every key-0
        # child away from the queue, and a probe pushes a key-0 child only
        # when its window is dead. So a live row older than the window
        # would have made the parent a goal, never expanded.
        for i in zero[bisect_left(zero, lo) : bisect_left(zero, hi)]:
            if windows[at[i]].any() and search._record_ship(arena.all_rows(int(chunk[at[i]])) + [int(rows[i])]):
                end, stop, hi = int(at[i]) + 1, i + 1, i
                break
        start = len(arena)
        arena.add_children(chunk[at[lo:stop]], rows[lo:stop])
        queue.pop(end - j)
        queue.extend(transposition_insert_many(search.tt, keys[lo:hi], np.arange(start, start + hi - lo)))
        search.status.states_expanded += end - j
        # the head at the tick before the last parent's, which _tick
        # keeps once the queue has drained
        search._head = int(chunk[end - 1])
        if search.status.outcome == RUNNING:
            search._tick()  # none after a ship that ends the search
        j = end


def _dfs_probe(search: Search, roots: list[int], limit: int) -> list[bool]:
    """Depth-first from each of roots to the given level, in lockstep;
    True for a root with a descendant still alive at the limit (the root
    is kept). A ship that ends the search ends the list at its root.

    Each probe has its own frame stack, seen dict and depth-first order,
    so it makes the expansions it would make alone. A frame is a node's
    window, its children's state key prefix, its level and an iterator
    over its successor rows. Each step computes the rows of every probe
    whose top frame needs them; each probe then walks on until it needs
    rows again or ends, and a tick follows. A goal is told from its
    parent's window, as in _expand_head, and its ship is extracted from
    the root's rows and the frames', so a probe adds nothing to the
    arena. Ships are recorded after the last step, in root order. Where
    one ends the search, the roots before its root run on, and the
    expansions of those after it are taken back out of the count. A
    probe's seen dict, of up to node_capacity entries, is emptied when
    the probe ends, and so are the frame stacks and seen dicts of the
    roots after a ship that ends the search."""
    params, arena, status = search.params, search.arena, search.status
    w, capacity = params.width, search.config.node_capacity
    mask = (1 << 2 * params.period * w) - 1  # a state key's bits
    ends = not search.config.continue_after_find  # a ship ends the search
    n = len(roots)
    keep, expanded = [False] * n, [0] * n  # per root: its verdict, its expansions so far
    stacks, seens = [[] for _ in roots], [{} for _ in roots]  # seen: state key -> lowest level reached at
    ships = [[] for _ in roots]  # per root, the probe rows down to each ship it found
    last = n - 1  # the last root still probed: the one whose ship ends the search, if any
    windows = arena.windows(roots, search.hist).tolist()
    # per probe whose top frame needs its rows: the probe, then that frame less its rows
    waiting = [
        (i, window, fold_rows(window[1 - 2 * params.period :], w) << w, search.level_of(root))
        for i, (root, window) in enumerate(zip(roots, windows))
    ]
    while waiting:
        at, rows = _successor_rows(search, [step[1] for step in waiting])
        bounds = np.searchsorted(at, np.arange(len(waiting) + 1)).tolist()
        rows = rows.tolist()
        pushed = []
        for (i, *frame), lo, hi in zip(waiting, bounds, bounds[1:]):
            if i > last:
                continue
            expanded[i] += 1
            status.states_expanded += 1
            stack, seen = stacks[i], seens[i]
            stack.append((*frame, iter(rows[lo:hi])))
            while stack:
                window, prefix, level, children = stack[-1]
                level += 1
                for c in children:
                    key = prefix | c
                    if not key and any(window):  # a goal, as _expand_head tells one
                        ships[i].append([*(f[0][-1] for f in stack[1:]), c])
                        if ends:
                            stack.clear()
                            status.states_expanded -= sum(expanded[i + 1 :])
                            expanded[i + 1 :] = [0] * (n - 1 - i)
                            for dropped in chain(stacks[i + 1 :], seens[i + 1 :]):
                                dropped.clear()
                            last = i
                            break
                        continue  # a finished ship only grows dead rows from here
                    prev = seen.get(key)
                    if prev is not None and prev <= level:
                        continue
                    # seen only prunes, so once it holds node_capacity states it takes
                    # no new ones: a state it misses is expanded again, never lost
                    if prev is not None or len(seen) < capacity:
                        seen[key] = level
                    if level >= limit:
                        keep[i] = True
                        stack.clear()
                        break
                    pushed.append((i, [*window[1:], c], key << w & mask, level))
                    break
                else:
                    stack.pop()
                    continue
                break
            if not stack:
                seen.clear()  # the probe has ended
        waiting = pushed
        search._tick()
    for i in range(last + 1):
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
    never holds more entries than the arena has nodes. With no frontier
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
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

With fewer than BATCH_MIN states queued, the breadth-first loop expands
the head alone, through _expand_one, with successors() rows. Otherwise
it takes the first BATCH_CHUNK queued states, whatever their levels, or
fewer where the arena has less room: their windows come from one walk
of the arena, their rows from one successors_batch call on the search's
own tables, and their children's state keys from NumPy. The chunk's
parents are then expanded in runs, each appending its children to the
arena and offering them to the transposition table in bulk. A run ends
where expanding one state at a time would do something between two
parents: before the arena would be full, after a progress report falls
due, and before a parent with a child whose state key is 0, the only
kind that can finish a ship, which goes through _expand_one alone.

A deepening round probes its roots in blocks of up to BATCH_CHUNK, the
probes of a block in lockstep: each step computes the rows of every
probe that needs them, through successors_batch for at least BATCH_MIN
windows and successors() below that. A probe frame carries its window,
from which each child's window follows, and no probe node goes into the
arena, so a round holds the arena at its length; a child that may
finish a ship has its path added below its root just long enough to be
checked and recorded. Ships are recorded in root order, and progress
ticks fall between steps. So counts, ships and progress reports do not
depend on the batching, and nothing configures it.

Every candidate ship is re-verified by evolving the extracted pattern;
a verification failure means the constraint machinery is wrong and is
raised, never swallowed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .pattern import Pattern, ShipDescriptor, classify_ship
from .statespace import (
    GLIDE_REFLECT,
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
    transposition_insert_many,
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
        self.queue = NodeQueue([tip])
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
        self.tt = TranspositionTable(self.params)
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


def _expand_head(search: Search) -> None:
    """Expand the queue head, or, when at least BATCH_MIN states are
    queued, the first BATCH_CHUNK of them (fewer where the arena has
    less room), exactly as expanding them one at a time in queue order
    would: the chunk stops where run_search would stop expanding, at a
    full arena or a ship that ends the search, and parents not reached
    stay queued.

    A chunk's windows come from one walk of the arena and its successor
    rows from one successors_batch call. Its parents are then expanded
    in runs, each with one bulk append to the arena and one bulk offer
    to the table; a run ends before the parent at which the arena would
    be full, after the parent at which a progress report falls due, and
    before a parent with a child whose state key is 0 (only such a child
    can finish a ship), which goes through _expand_one alone."""
    queue = search.queue
    if search.status.outcome != RUNNING or search.arena_full():
        return
    if len(queue) < BATCH_MIN:
        idx = queue[0]
        window = search.arena.rows_back(idx, search.hist)
        _expand_one(search, idx, window, successors(search.params, search.tables, window))
        return
    params, arena = search.params, search.arena
    room = search.config.node_capacity - (1 << params.width)  # arena_full() <=> len(arena) > room
    # each parent with a child brings the arena a node nearer to full, so
    # parents past the first room - len(arena) are seldom reached
    chunk = queue.nodes(min(BATCH_CHUNK, max(BATCH_MIN, room - len(arena))))
    windows = arena.windows(chunk, search.hist)
    at, rows = successors_batch(params, search.tables, windows)
    keys = child_keys(params, windows, at, rows)
    counts = np.bincount(at, minlength=len(chunk))
    first = [0, *np.cumsum(counts).tolist()]  # each parent's first child
    goal_parents = iter(at[~keys.any(axis=1)].tolist())  # those with a key-0 child
    goal_at = next(goal_parents, len(chunk))
    interval = search.config.progress_interval if search.progress is not None else 0  # as _tick reads it
    j = 0
    while j < len(chunk):
        if search.status.outcome != RUNNING or search.arena_full():
            return
        if j == goal_at:
            _expand_one(search, int(chunk[j]), windows[j].tolist(), rows[first[j] : first[j + 1]].tolist())
            goal_at = next(goal_parents, len(chunk))
            j += 1
            continue
        # parents j..end-1: the arena fills before the first parent at
        # which its length would pass room
        end = min(goal_at, bisect_right(first, room - len(arena) + first[j]))
        if interval:
            end = min(end, j + max(1, search._last_progress + interval - search.status.states_expanded))
        lo, hi = first[j], first[end]
        start = len(arena)
        arena.add_children(chunk[j:end], counts[j:end], rows[lo:hi])
        queue.pop(end - j)
        queue.extend(transposition_insert_many(search.tt, keys[lo:hi], start))
        search.status.states_expanded += end - j
        if not queue and end - j > 1:
            search._head = int(chunk[end - 1])  # the head at the tick before the last parent's
        search._tick()
        j = end


def _expand_one(search: Search, idx: int, window: list[int], rows) -> None:
    """Expand the queue head idx, given its window (rows_back over
    search.hist rows) and its successor rows: add each row to the arena
    as a child of idx, record the children that finish a ship and offer
    the others to the table one at a time. A recorded ship that ends the
    search ends the expansion, with no tick."""
    params, arena, queue = search.params, search.arena, search.queue
    queue.pop(1)
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
        if transposition_insert(search.tt, key, child)[0] == "fresh":
            queue.append(child)
    search._tick()


def _dfs_probe(search: Search, roots: list[int], limit: int) -> list[bool]:
    """Depth-first from each of roots to the given level, in lockstep;
    True for a root with a descendant still alive at the limit (the root
    is kept). A ship that ends the search ends the list at its root.

    Each probe has its own frame stack, seen dict and depth-first order,
    so it makes the expansions it would make alone. A frame is a node's
    window, its children's state key prefix, its level and an iterator
    over its successor rows. Each step computes the rows of every probe
    whose top frame needs them; each probe then walks on until it needs
    rows again or ends, and a tick follows. Ships are recorded after the
    last step, in root order. Where one ends the search, the roots before
    its root run on, and the expansions of those after it are taken back
    out of the count."""
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
        windows = [step[1] for step in waiting]
        if len(windows) >= BATCH_MIN:
            at, rows = successors_batch(params, search.tables, windows)
            bounds = np.searchsorted(at, np.arange(len(windows) + 1)).tolist()
            rows = rows.tolist()
            found = [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        else:
            found = [successors(params, search.tables, window) for window in windows]
        pushed = []
        for (i, *frame), rows in zip(waiting, found):
            if i > last:
                continue
            expanded[i] += 1
            status.states_expanded += 1
            stack, seen = stacks[i], seens[i]
            stack.append((*frame, iter(rows)))
            while stack:
                window, prefix, level, children = stack[-1]
                level += 1
                for c in children:
                    key = prefix | c
                    if not key:
                        path = [f[0][-1] for f in stack[1:]]
                        path.append(c)
                        if _on_path(arena, roots[i], path, lambda node: is_goal(params, arena, node)):
                            ships[i].append(path)
                            if ends:
                                stack.clear()
                                status.states_expanded -= sum(expanded[i + 1 :])
                                expanded[i + 1 :] = [0] * (n - 1 - i)
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
        waiting = pushed
        search._tick()
    for i in range(last + 1):
        for path in ships[i]:
            if _on_path(arena, roots[i], path, search._record_ship):
                return keep[: i + 1]
    return keep


def _on_path(arena: NodeArena, root: int, rows: list[int], read):
    """read(node) for the last node of rows added to the arena as a path
    below root; the path is cut off again afterwards."""
    start, node = len(arena), root
    for row in rows:
        node = arena.add(row, node)
    try:
        return read(node)
    finally:
        arena.truncate(start)


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
    params = search.params
    if not search.queue:
        search._new_table([2 * params.period - 1])
        return
    search.arena, frontier = search.arena.ancestry(search.queue.nodes())
    search.queue = NodeQueue(frontier)
    search._new_table([2 * params.period - 1, *frontier.tolist()])  # the seed's tip, then the frontier
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
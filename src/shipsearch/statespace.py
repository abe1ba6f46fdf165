"""Search state space for shifted-row spaceship searches.

A partial ship is a sequence of rows r[0], r[1], ... where row i is row
y(i) of generation t(i) of the evolving pattern, with i = p*y + k*t. Under
that interleaving the evolution rule becomes one local constraint between
rows of the sequence,

    r[i-p+k] = evolve(r[i-2p], r[i-p], r[i])            (the forward form)

together with its restatement around the newest row,

    r[i] = evolve(r[i-p-k], r[i-k], r[i+p-k])           (the lookahead form)

whose last input is a row that does not exist yet. Diagonal translation
stores row y sheared sideways by y cells, which turns a one-cell sideways
drift per k image rows into fixed per-instance sampling offsets; glide
symmetry stores alternate rows mirrored. Both transforms are chosen so the
constraint looks identical at every level, which is what lets one
precomputed table drive the whole search (and what makes "same last 2p
rows" a sound equivalence).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .pattern import Pattern
from .rules import ROW_WIDTH_LIMIT, Rule

ASYMMETRIC = "asymmetric"
EVEN_MIRROR = "even-mirror"
ODD_MIRROR = "odd-mirror"
GLIDE_REFLECT = "glide-reflect"
SYMMETRIES = (ASYMMETRIC, EVEN_MIRROR, ODD_MIRROR, GLIDE_REFLECT)

ORTHOGONAL = "orthogonal"
DIAGONAL = "diagonal"
TRANSLATIONS = (ORTHOGONAL, DIAGONAL)


@dataclass(frozen=True)
class SearchParams:
    rule: Rule
    period: int
    offset: int
    width: int
    symmetry: str = ASYMMETRIC
    translation: str = ORTHOGONAL

    def __post_init__(self):
        p, k, w = self.period, self.offset, self.width
        if k == 0:
            raise ValueError("offset k = 0 would search for oscillators, not ships")
        if not 1 <= k < p:
            raise ValueError(f"offset must satisfy 1 <= k < p (got k={k}, p={p})")
        if math.gcd(k, p) != 1:
            raise ValueError(f"gcd(k, p) must be 1 (got gcd({k}, {p}) = {math.gcd(k, p)})")
        if not 1 <= w <= ROW_WIDTH_LIMIT:
            raise ValueError(f"width must be in 1..{ROW_WIDTH_LIMIT} (got {w})")
        if self.symmetry not in SYMMETRIES:
            raise ValueError(f"unknown symmetry {self.symmetry!r}")
        if self.translation not in TRANSLATIONS:
            raise ValueError(f"unknown translation {self.translation!r}")
        if self.symmetry == GLIDE_REFLECT and self.translation != ORTHOGONAL:
            raise ValueError("glide-reflect symmetry requires orthogonal translation")
        if self.translation == DIAGONAL and self.symmetry != ASYMMETRIC:
            raise ValueError("diagonal translation requires asymmetric symmetry")
        if 0 in self.rule.birth:
            raise ValueError("B0 rules are unsupported (unstable background)")

    @property
    def mirrored(self) -> bool:
        return self.symmetry in (EVEN_MIRROR, ODD_MIRROR)

    def generation_of(self, i: int) -> int:
        """t(i): which generation row i belongs to (0 <= t < p)."""
        return (pow(self.offset, -1, self.period) * i) % self.period

    def image_row_of(self, i: int) -> int:
        """y(i): which row of that generation's pattern row i holds."""
        return (i - self.offset * self.generation_of(i)) // self.period

    def row_orientation(self, i: int) -> bool:
        """True when stored row i is the mirror image of the true row.

        Glide-reflect only. With k odd the orientation alternates with the
        image row; with k even (p odd) it alternates with the generation.
        Either assignment makes every constraint instance read the same
        pattern of reversals, which is checked by test_orientation_algebra.
        """
        if self.symmetry != GLIDE_REFLECT:
            return False
        if self.offset % 2 == 1:
            return self.image_row_of(i) % 2 == 1
        return self.generation_of(i) % 2 == 1


def debruijn_size(params: SearchParams) -> int:
    """log2 of the number of distinct search states, shown as a difficulty
    estimate: each state is 2p rows of w cells."""
    return 2 * params.period * params.width


# byte -> its bits in reverse order
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def reverse_row(row: int, width: int) -> int:
    """Mirror the low `width` bits of row (cell j goes to width-1-j); bits
    at or above width are dropped."""
    out = _REV8[row & 255]
    while width > 8:
        row >>= 8
        width -= 8
        out = out << 8 | _REV8[row & 255]
    return out >> (8 - width)


# ---------------------------------------------------------------------------
# constraint geometry


@dataclass(frozen=True)
class RowRef:
    """One row's role in a constraint instance.

    shift: the row is sampled at column j + shift when the instance's
    result cell is at column j (+1/-1 under the diagonal shear, since
    stored rows one image row apart are sheared one cell relative to each
    other). reversed: the stored row enters the instance mirrored (glide).
    """

    index: int
    shift: int = 0
    reversed: bool = False


@dataclass(frozen=True)
class Instance:
    above: RowRef
    mid: RowRef
    below: RowRef
    result: RowRef


@dataclass(frozen=True)
class ConstraintIndices:
    star: Instance
    lookahead: Instance
    # the two rows whose 5-cell windows the ll or p2 lookup samples, in the
    # order of its index; None where filter_flags applies neither
    filter: tuple[RowRef, RowRef] | None


def _mode_flags(params: SearchParams) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    # reversal flags (above, mid, below, result), normalized so row i itself
    # is never reversed; derived from the orientation assignment in
    # row_orientation (see that docstring)
    if params.symmetry != GLIDE_REFLECT:
        return (False, False, False, False), (False, False, False, False)
    if params.offset % 2 == 1:
        return (False, True, False, True), (True, False, True, False)
    return (False, False, False, True), (True, True, True, False)


def constraint_indices(params: SearchParams, i: int) -> ConstraintIndices:
    """The two constraint instances whose newest row is r[i]."""
    p, k = params.period, params.offset
    s = 1 if params.translation == DIAGONAL else 0
    star_rev, look_rev = _mode_flags(params)
    star = Instance(
        above=RowRef(i - 2 * p, s, star_rev[0]),
        mid=RowRef(i - p, 0, star_rev[1]),
        below=RowRef(i, -s, star_rev[2]),
        result=RowRef(i - p + k, 0, star_rev[3]),
    )
    lookahead = Instance(
        above=RowRef(i - p - k, s, look_rev[0]),
        mid=RowRef(i - k, 0, look_rev[1]),
        below=RowRef(i + p - k, -s, look_rev[2]),
        result=RowRef(i, 0, look_rev[3]),
    )
    use_ll, use_p2 = filter_flags(params)
    wide = None
    if use_ll:
        # the two lookahead instances one row further out share their
        # unknown 5-windows only after reflecting them into a common
        # orientation; for glide with even k that flips both rows (and ll's
        # r3 then reads the reversed lookahead mid row, the star_l e3 sample)
        flip = params.symmetry == GLIDE_REFLECT and k % 2 == 0
        wide = (
            RowRef(i - 2 * k, 0, lookahead.mid.reversed ^ flip),
            RowRef(i - p - 2 * k, s, lookahead.above.reversed ^ flip),
        )
    elif use_p2:
        wide = (RowRef(i - 2), RowRef(i - 1))
    return ConstraintIndices(star, lookahead, wide)


def history(params: SearchParams) -> int:
    """Rows of history the successor step reads: 2p for the constraints,
    p + 2k for the rows the ll filter chains one row further out."""
    p, k = params.period, params.offset
    return max(2 * p, p + 2 * k)


def edge_columns(params: SearchParams) -> range:
    """Column positions at which the successor graph places edges (triples
    of the new rows). Chosen so every cell position where the known rows
    could produce a birth outside the searched strip gets checked:
    asymmetric and glide need one boundary column on each side, mirrors
    only on the outer side, and the diagonal shear widens the reach of the
    sheared inputs by one more column on each side."""
    w = params.width
    if params.translation == DIAGONAL:
        return range(-3, w + 2)
    if params.mirrored:
        return range(0, w + 1)
    return range(-1, w + 1)


def filter_flags(params: SearchParams) -> tuple[bool, bool]:
    """(use_ll, use_p2): which extended filter the successor step applies
    on top of the next and lookahead constraints. ll chains the lookahead
    row one step further and serves every period but 2; at period 2 the
    strip filter p2 replaces it, but only where it sees a fixed column
    window of consecutive rows, which glide reversal and diagonal shear
    both break, so those period-2 modes run neither."""
    straight = params.translation == ORTHOGONAL and params.symmetry != GLIDE_REFLECT
    return params.period != 2, params.period == 2 and straight


# ---------------------------------------------------------------------------
# frame coordinates

FRAME_MARGIN = 6  # frame bits beyond the strip on each side; covers every shift


def frame_base(params: SearchParams) -> int:
    """Frame bit position of cell 0 (mirror ghosts sit below it)."""
    return FRAME_MARGIN + (params.width if params.mirrored else 0)


def frame_offsets(params: SearchParams, ref: RowRef | None = None) -> tuple[int | None, int | None]:
    """Frame bit positions of a stored row's bit 0 and of its mirror
    image's bit 0 (cell j of the image sits at mirror + width - 1 - j),
    None for a part that is left out. Both are non-negative: the frame
    margin covers every shift."""
    w, base = params.width, frame_base(params)
    at = base - (ref.shift if ref else 0)
    ghost = None
    if params.symmetry == EVEN_MIRROR:
        ghost = at - w
    elif params.symmetry == ODD_MIRROR:
        ghost = at - w + 1
    if ref is not None and ref.reversed:
        return ghost, at
    return at, ghost


# ---------------------------------------------------------------------------
# node arena, state keys, goal test, extraction


def _view(buffer: array, dtype=None) -> np.ndarray:
    """A NumPy view of a typed array, of its own type or of dtype; drop it
    before the array is resized, which raises BufferError while it lives."""
    return np.frombuffer(buffer, dtype=buffer.typecode if dtype is None else dtype)


class NodeArena:
    """Store of the breadth-first tree's nodes: the seed chain, then
    children appended in bulk; compaction builds a fresh one.

    Rows and parents are typed arrays, 8 bytes a node. Nodes come in
    level order, as a breadth-first queue expands them, so a node's depth
    is read from starts, the index of each level's first node; an append
    that would break that order raises ValueError. Indexing a typed array
    gives a Python int; bulk work reads them through _view, whose views
    must be gone before the next add or truncate: an array that exports
    its buffer cannot be resized."""

    def __init__(self):
        self.rows = array("I")
        self.parents = array("i")
        self.starts: list[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def depth(self, idx: int) -> int:
        """The depth of node idx; the roots are at depth 0."""
        return bisect_right(self.starts, idx) - 1

    def add(self, row: int, parent: int) -> int:
        """add_children([parent], [row]); returns the new node's index."""
        self.add_children([parent], [row])
        return len(self) - 1

    def add_children(self, parents, rows) -> None:
        """Append a node of row rows[i] and parent parents[i] for each i in
        order; ValueError, and nothing appended, if that breaks level order."""
        parents = np.asarray(parents, dtype=np.int32)
        low, last = self._last_levels()
        deeper = parents >= last  # the children that open a level: they come last
        same = len(parents) - np.count_nonzero(deeper)
        if len(parents) and (parents.min() < low or not deeper[same:].all()):
            raise ValueError("nodes must be appended in level order")
        if same < len(parents):
            self.starts.append(len(self) + same)
        self._extend(rows, parents)

    def _last_levels(self) -> tuple[int, int]:
        """The starts of the last two levels, -1 standing in for those
        there are not: in level order a new node's parent lies in one of
        them (-1, the roots' parent, before level 0), and a child of the
        last opens a new level."""
        starts = [-1, -1] + self.starts[-2:]
        return starts[-2], starts[-1]

    def _extend(self, rows, parents) -> None:
        for buffer, values in ((self.rows, rows), (self.parents, parents)):
            buffer.frombytes(np.ascontiguousarray(values, dtype=buffer.typecode).view(np.uint8))

    def truncate(self, n: int) -> None:
        """Drop every node from index n on."""
        del self.rows[n:], self.parents[n:], self.starts[bisect_left(self.starts, n) :]

    def rows_back(self, idx: int, count: int) -> list[int]:
        """The last `count` rows ending at idx, oldest first, dead-padded."""
        out = [0] * count
        rows, parents = self.rows, self.parents
        while idx >= 0 and count:
            count -= 1
            out[count] = rows[idx]
            idx = parents[idx]
        return out

    def windows(self, nodes, count: int) -> np.ndarray:
        """rows_back(idx, count) for every idx in nodes, as the rows of one
        (len(nodes), count) uint32 array, read in count steps of two
        gathers over all nodes at once. Each node must have count - 1
        ancestors, as the seed chain gives every node the search reads;
        a walk that would pass a root raises ValueError."""
        rows, parents = _view(self.rows), _view(self.parents)
        out = np.empty((count, len(nodes)), dtype=np.uint32)
        cur = np.asarray(nodes, dtype=np.intp)
        if len(cur) and self.depth(int(cur.min())) < count - 1:  # the least index is the shallowest node
            raise ValueError(f"a window of {count} rows reaches past a root")
        for step in range(count):
            if step:
                cur = parents.take(cur)
            rows.take(cur, out=out[-1 - step])
        return out.T

    def all_rows(self, idx: int) -> list[int]:
        """Every row from the root to idx, oldest first."""
        return self.rows_back(idx, self.depth(idx) + 1)

    def ancestry(self, tips: np.ndarray) -> tuple[NodeArena, np.ndarray]:
        """A fresh arena of tips and their ancestors, in their order here,
        and the index of each tip in it. The ancestors are marked by
        pointer doubling: after step s, every node up to 2^s - 1 levels
        above a tip, so log2 of the depth steps over the whole arena."""
        rows, parents = _view(self.rows), _view(self.parents)
        kept = np.zeros(len(self), dtype=bool)
        kept[tips] = True
        up = parents  # per node, its ancestor 2^s levels up, or -1
        while True:
            inside = up >= 0
            if not inside.any():
                break
            kept[up[kept & inside]] = True
            up = np.where(inside, up[up], -1)
        remap = np.cumsum(kept) - 1
        mine = parents[kept]
        fresh = NodeArena()
        fresh._extend(rows[kept], np.where(mine >= 0, remap[mine], -1))
        # a level starts after the nodes kept before it; only levels
        # below the deepest kept node are left empty, and they are dropped
        starts = (remap[self.starts] + ~kept[self.starts]).tolist()
        fresh.starts = starts[: bisect_left(starts, len(fresh))]
        return fresh, remap[tips]


class NodeQueue:
    """First-in, first-out queue of arena nodes, 4 bytes a node: an int32
    typed array and the index of its head. pop moves the head; once the
    head passes half the array, the popped part is cut off, so the array
    holds at most about twice the queue and each node is moved at most
    about once on average."""

    def __init__(self, nodes=()):
        self._nodes = array("i")
        self._head = 0
        self.extend(nodes)

    def __len__(self) -> int:
        return len(self._nodes) - self._head

    def __getitem__(self, i: int) -> int:
        """The i-th queued node, counting from the head at 0."""
        if not 0 <= i < len(self):
            raise IndexError("queue index out of range")
        return self._nodes[self._head + i]

    def nodes(self, n: int | None = None) -> np.ndarray:
        """The first n queued nodes (all by default), as a new int32 array."""
        return _view(self._nodes)[self._head :][:n].copy()

    def pop(self, n: int) -> None:
        """Drop the first n queued nodes."""
        if not 0 <= n <= len(self):
            raise IndexError("pop past the end of the queue")
        self._head += n
        if self._head > len(self._nodes) // 2:
            del self._nodes[: self._head]
            self._head = 0

    def extend(self, nodes) -> None:
        self._nodes.frombytes(np.ascontiguousarray(nodes, dtype=np.int32).view(np.uint8))


def make_initial_state(params: SearchParams) -> tuple[NodeArena, int]:
    """Root chain of history(params) dead rows, so that every node the
    search reads holds a whole successor window; returns the arena and the
    tip index."""
    arena = NodeArena()
    tip = -1
    for _ in range(history(params)):
        tip = arena.add(0, tip)
    return arena, tip


def fold_rows(rows, width: int) -> int:
    """Pack rows into one integer, oldest in the highest bits, so that
    fold_rows(rows + [c]) == fold_rows(rows) << width | c."""
    key = 0
    for row in rows:
        key = key << width | row
    return key


def state_key(params: SearchParams, arena: NodeArena, idx: int) -> int:
    """Pack the last 2p rows into one integer; equal keys <=> same rows."""
    return fold_rows(arena.rows_back(idx, 2 * params.period), params.width)


def is_goal(params: SearchParams, arena: NodeArena, idx: int) -> bool:
    """Last 2p rows dead and something earlier alive."""
    rows = arena.all_rows(idx)
    return not any(rows[-2 * params.period :]) and any(rows)


def extract_ship(params: SearchParams, rows: list[int]) -> Pattern:
    """One phase of the found ship, in plain coordinates, from the rows of
    a path that finishes it, oldest first.

    Takes every pth row starting at the first live one, undoes the glide
    reversals and diagonal shears, and mirrors half-rows to full width.
    All rows are read at one width, wide enough for the widest: rows
    found before a narrowing may use columns the search has since dropped.
    """
    first = next(j for j, r in enumerate(rows) if r)
    w = max(params.width, max(rows).bit_length())
    picked = []
    for n, i in enumerate(range(first, len(rows), params.period)):
        row = rows[i]
        if params.row_orientation(i):
            row = reverse_row(row, w)
        picked.append((n, row))

    if params.symmetry == EVEN_MIRROR:
        # half-row bit 0 sits next to the axis, so the mirrored copy goes low
        out = [reverse_row(r, w) | r << w for _, r in picked]
        return Pattern(tuple(out), 2 * w).trim()
    if params.symmetry == ODD_MIRROR:
        out = [reverse_row(r, w) | r << (w - 1) for _, r in picked]
        return Pattern(tuple(out), 2 * w - 1).trim()
    if params.translation == DIAGONAL:
        out = [r << n for n, r in picked]
        return Pattern(tuple(out), w + len(picked) - 1).trim()
    return Pattern(tuple(r for _, r in picked), w).trim()


# ---------------------------------------------------------------------------
# transposition table: the set of exact state keys reached

# The fewest keys a fold takes, about one breadth-first chunk's offers
# (search.BATCH_CHUNK): a fold moves every sorted key past the run's first.
RECENT_MIN = 4096


def key_limbs(params: SearchParams) -> tuple[int, int]:
    """(rows, limbs): a state key held as `limbs` 64-bit limbs of up to
    `rows` whole rows each; the last limb holds the newest rows."""
    rows = 64 // params.width
    return rows, -(-2 * params.period // rows)


def child_keys(params: SearchParams, windows: np.ndarray, at: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """state_key of each child rows[i] of the parent whose window is
    windows[at[i]]: the window's last 2p-1 rows, then the child's row.
    The keys come as TranspositionTable takes them: one row of uint64
    limbs each, of key_limbs(params) whole rows, the most significant
    first."""
    n, w = 2 * params.period, params.width
    per, count = key_limbs(params)
    shift = np.uint64(w)
    keys = np.empty((len(at), count), dtype=np.uint64)
    for i in range(count):  # the limb of rows i*per.. back from the child, newest lowest
        limb = np.zeros(len(windows), dtype=np.uint64)
        for back in range(min((i + 1) * per, n) - 1, i * per - 1, -1):
            limb <<= shift
            if back:
                limb |= windows[:, -back]
        keys[:, count - 1 - i] = limb[at]
    keys[:, -1] |= rows
    return keys


class TranspositionTable:
    """The set of state keys reached so far.

    state_key packs the last 2p rows exactly, so equal keys are equal
    states, and only a key's first offer needs expanding. Compaction
    starts a fresh table from the seed and the frontier, so the table
    never holds more keys than the arena has nodes.

    The keys live in one typed array of bytes, read through _view as
    uint64, or for keys of several limbs as byte strings of their
    big-endian limbs, which sort the same way: keys, the sorted part of
    the first `folded`, then run_keys, the sorted run of those added
    since. A bulk offer (transposition_insert_many) takes a (n, limbs)
    uint64 array of key_limbs limbs, the most significant first
    (limbs_of), and transposition_insert, which the search uses only for
    the seed's key 0, one int key. An offer appends its fresh keys and
    merges them into the run; the run is folded into the sorted part once
    it holds more than RECENT_MIN keys and more than an eighth of it
    (_fold). Both merges sort in place, so the array grows by the fresh
    keys alone and no fold copies the sorted part. An offer of fresh keys
    raises BufferError, and changes nothing, while a view of them lives."""

    def __init__(self, params: SearchParams):
        rows, self.limbs = key_limbs(params)
        self.bits = rows * params.width  # per limb
        self.dtype = self._sortable(np.zeros((0, self.limbs), dtype=np.uint64)).dtype
        self._keys, self.folded = array("B"), 0

    def __len__(self) -> int:
        return len(self._keys) // self.dtype.itemsize

    @property
    def keys(self) -> np.ndarray:  # a view, as is run_keys
        return _view(self._keys, self.dtype)[: self.folded]

    @property
    def run_keys(self) -> np.ndarray:
        return _view(self._keys, self.dtype)[self.folded :]

    def limbs_of(self, keys) -> np.ndarray:
        """The limbs of int keys, as bulk offers take them."""
        mask = (1 << self.bits) - 1
        shifts = range((self.limbs - 1) * self.bits, -1, -self.bits)
        limbs = (key >> shift & mask for key in keys for shift in shifts)
        return np.fromiter(limbs, dtype=np.uint64, count=len(keys) * self.limbs).reshape(-1, self.limbs)

    def _sortable(self, limbs: np.ndarray) -> np.ndarray:
        """Rows of limbs as one array that sorts like the keys."""
        if self.limbs == 1:
            return np.ascontiguousarray(limbs[:, 0])
        return np.ascontiguousarray(limbs, dtype=">u8").view(f"S{8 * self.limbs}")[:, 0]

    def _add(self, keys: np.ndarray) -> None:
        """Append sorted keys absent from the table, merge them into the run
        by one stable sort of its slice, and fold the run once it is due."""
        self._keys.frombytes(keys.view(np.uint8))
        self.run_keys.sort(kind="stable")
        if len(self) - self.folded > max(RECENT_MIN, self.folded // 8):
            self._fold()

    def _fold(self) -> None:
        """Merge the run into the sorted part: one stable sort, timsort,
        of the whole array merges the two sorted stretches in place in a
        galloping pass, with scratch of up to the run's size, which NumPy
        allocates outside tracemalloc."""
        _view(self._keys, self.dtype).sort(kind="stable")
        self.folded = len(self)


def _absent(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Per query key, whether the sorted keys lack it."""
    if not len(keys):
        return np.ones(len(query), dtype=bool)
    return keys[np.minimum(keys.searchsorted(query), len(keys) - 1)] != query


def transposition_insert(table: TranspositionTable, key: int) -> tuple[str]:
    """Adds key; returns ("fresh",) if the table lacked it, else ("duplicate",)."""
    return ("fresh",) if len(transposition_insert_many(table, table.limbs_of([key]))) else ("duplicate",)


def transposition_insert_many(table: TranspositionTable, keys: np.ndarray) -> np.ndarray:
    """Adds each row i of keys (limbs, as TranspositionTable takes them);
    returns, in order, the positions i of the fresh offers: each key's
    first offer, where the table lacked that key."""
    # each key's first offer, then those neither sorted part holds
    sortable, first = np.unique(table._sortable(keys), return_index=True)
    fresh = _absent(table.keys, sortable) & _absent(table.run_keys, sortable)
    table._add(sortable[fresh])
    return np.sort(first[fresh])

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


def _view(buffer: array) -> np.ndarray:
    """A NumPy view of a typed array; drop it before the array is resized."""
    return np.frombuffer(buffer, dtype=buffer.typecode)


class NodeArena:
    """Store of the breadth-first tree's nodes: the seed chain, then
    children appended in bulk; compaction builds a fresh one.

    Rows, parents and depths are typed arrays, 12 bytes a node. Indexing
    one gives a Python int; bulk work reads them through _view, whose
    views must be gone before the next add or truncate: an array that
    exports its buffer cannot be resized."""

    def __init__(self):
        self.rows = array("I")
        self.parents = array("i")
        self.depths = array("i")

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, row: int, parent: int) -> int:
        depth = self.depths[parent] + 1 if parent >= 0 else 0
        self.rows.append(row)
        self.parents.append(parent)
        self.depths.append(depth)
        return len(self.rows) - 1

    def add_children(self, parents, rows: np.ndarray) -> None:
        """add(rows[i], parents[i]) for each i in order."""
        parents = np.asarray(parents, dtype=np.int32)
        self._extend(rows, parents, _view(self.depths)[parents] + 1)

    def _extend(self, rows, parents, depths) -> None:
        for buffer, values in ((self.rows, rows), (self.parents, parents), (self.depths, depths)):
            buffer.frombytes(np.ascontiguousarray(values, dtype=buffer.typecode).view(np.uint8))

    def truncate(self, n: int) -> None:
        """Drop every node from index n on."""
        del self.rows[n:], self.parents[n:], self.depths[n:]

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
        (len(nodes), count) uint32 array, read in count steps of all nodes
        at once; a walk that has left the arena (index -1) reads a dead row."""
        rows, parents = _view(self.rows), _view(self.parents)
        out = np.empty((count, len(nodes)), dtype=np.uint32)
        cur = np.asarray(nodes, dtype=np.intp)
        for step in range(count):
            inside = cur >= 0
            out[-1 - step] = np.where(inside, rows[cur], 0)
            cur = np.where(inside, parents[cur], -1)
        return out.T

    def all_rows(self, idx: int) -> list[int]:
        """Every row from the root to idx, oldest first."""
        return self.rows_back(idx, self.depths[idx] + 1)

    def ancestry(self, tips: np.ndarray) -> tuple[NodeArena, np.ndarray]:
        """A fresh arena of tips and their ancestors, in their order here,
        and the index of each tip in it. The ancestors are marked by
        pointer doubling: after step s, every node up to 2^s - 1 levels
        above a tip, so log2 of the depth steps over the whole arena."""
        rows, parents, depths = _view(self.rows), _view(self.parents), _view(self.depths)
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
        fresh._extend(rows[kept], np.where(mine >= 0, remap[mine], -1), depths[kept])
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
    """Root chain of 2p dead rows; returns the arena and the tip index."""
    arena = NodeArena()
    tip = -1
    for _ in range(2 * params.period):
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
    rows, parents = arena.rows, arena.parents
    for _ in range(2 * params.period):
        if idx < 0 or rows[idx]:
            return False
        idx = parents[idx]
    while idx >= 0 and not rows[idx]:
        idx = parents[idx]
    return idx >= 0


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
# transposition table: exact state key -> first node with that state

# The fewest entries a fold takes, about one breadth-first chunk's offers
# (search.BATCH_CHUNK): a fold copies the whole sorted part.
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
    """Map from state key to the first node that reached that state.

    state_key packs the last 2p rows exactly, so equal keys are equal
    states. Nodes arrive in nondecreasing depth (the queue is breadth-first
    and compaction reseeds the seed before the frontier), so the first node
    is also a shallowest one. Each entry is an arena node, and compaction
    starts a fresh table, so the table never outgrows the arena.

    The entries live in two sorted parts: keys in order (uint64, or for
    keys of several limbs byte strings of their big-endian limbs, which
    sort the same way) next to int32 nodes. An offer merges its fresh
    keys into the run, the entries since the last fold: a bulk offer
    (transposition_insert_many) takes a (n, limbs) uint64 array of
    key_limbs limbs, the most significant first (limbs_of), and
    transposition_insert, which the search uses only for the seed's
    key 0, one int key. The run is folded into the sorted part once it
    holds more than RECENT_MIN entries and more than an eighth of it;
    the fold copies the keys, then the nodes, never both at once."""

    def __init__(self, params: SearchParams):
        rows, self.limbs = key_limbs(params)
        self.bits = rows * params.width  # per limb
        self.keys, self.nodes = self._empty()
        self.run_keys, self.run_nodes = self._empty()

    def __len__(self) -> int:
        return len(self.keys) + len(self.run_keys)

    def _empty(self) -> tuple[np.ndarray, np.ndarray]:
        return self._sortable(np.zeros((0, self.limbs), dtype=np.uint64)), np.zeros(0, dtype=np.int32)

    def limbs_of(self, keys) -> np.ndarray:
        """The limbs of int keys, as bulk offers take them."""
        mask = (1 << self.bits) - 1
        shifts = range((self.limbs - 1) * self.bits, -1, -self.bits)
        limbs = (key >> shift & mask for key in keys for shift in shifts)
        return np.fromiter(limbs, dtype=np.uint64, count=len(keys) * self.limbs).reshape(-1, self.limbs)

    def ints_of(self, limbs: np.ndarray) -> list[int]:
        """The int keys of rows of limbs; limbs_of inverted."""
        keys = limbs[:, 0].tolist()
        for j in range(1, self.limbs):
            keys = [key << self.bits | limb for key, limb in zip(keys, limbs[:, j].tolist())]
        return keys

    def _sortable(self, limbs: np.ndarray) -> np.ndarray:
        """Rows of limbs as one array that sorts like the keys."""
        if self.limbs == 1:
            return np.ascontiguousarray(limbs[:, 0])
        return np.ascontiguousarray(limbs, dtype=">u8").view(f"S{8 * self.limbs}")[:, 0]

    def get(self, key: int) -> int | None:
        """The node recorded for key, or None."""
        # key as the sorted parts hold it (a byte string reads back
        # without its trailing zero bytes, so it is built the same way)
        query = self._sortable(self.limbs_of([key]))[0]
        for keys, nodes in ((self.run_keys, self.run_nodes), (self.keys, self.nodes)):
            at = keys.searchsorted(query)
            if at < len(keys) and keys[at] == query:
                return int(nodes[at])
        return None

    def items(self):
        """(key, node) for every entry, the sorted part first."""
        for keys, nodes in ((self.keys, self.nodes), (self.run_keys, self.run_nodes)):
            limbs = keys.view(np.uint64 if self.limbs == 1 else ">u8").reshape(-1, self.limbs)
            yield from zip(self.ints_of(limbs), nodes.tolist())

    def _add(self, keys: np.ndarray, nodes: np.ndarray) -> None:
        """Merge new entries, sorted and absent from the table, into the
        run, and fold the run into the sorted part once it is due."""
        at, old = _places(self.run_keys, keys)
        self.run_keys = _merged(self.run_keys, keys, at, old)
        self.run_nodes = _merged(self.run_nodes, nodes, at, old)
        if len(self.run_keys) > max(RECENT_MIN, len(self.keys) // 8):
            at, old = _places(self.keys, self.run_keys)
            self.keys = _merged(self.keys, self.run_keys, at, old)  # the old keys are gone before the nodes merge
            self.nodes = _merged(self.nodes, self.run_nodes, at, old)
            self.run_keys, self.run_nodes = self._empty()


def _places(keys: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where sorted keys and sorted new ones go merged: the positions of
    the new ones, and a mask of those of the old ones."""
    at = np.searchsorted(keys, new) + np.arange(len(new))
    old = np.ones(len(keys) + len(new), dtype=bool)
    old[at] = False
    return at, old


def _merged(values: np.ndarray, new: np.ndarray, at: np.ndarray, old: np.ndarray) -> np.ndarray:
    """values and new merged as _places put them."""
    out = np.empty(len(old), dtype=values.dtype)
    out[at] = new
    out[old] = values
    return out


def _absent(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Per query key, whether the sorted keys lack it."""
    if not len(keys):
        return np.ones(len(query), dtype=bool)
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return keys[at] != query


def transposition_insert(table: TranspositionTable, key: int, idx: int) -> tuple[str, int | None]:
    """Returns ("fresh", None) after recording idx, or ("duplicate", the
    node recorded first for this key)."""
    kept = table.get(key)
    if kept is None:
        table._add(table._sortable(table.limbs_of([key])), np.array([idx], dtype=np.int32))
        return ("fresh", None)
    return ("duplicate", kept)


def transposition_insert_many(table: TranspositionTable, keys: np.ndarray, nodes) -> np.ndarray:
    """transposition_insert(table, key i, nodes[i]) for each row i of keys
    (limbs, as TranspositionTable takes them) in order, in bulk; returns
    the nodes recorded, in order, as an int32 array."""
    nodes = np.asarray(nodes, dtype=np.int32)
    # each key's first offer, then those neither sorted part holds
    sortable, at = np.unique(table._sortable(keys), return_index=True)
    fresh = _absent(table.keys, sortable) & _absent(table.run_keys, sortable)
    table._add(sortable[fresh], nodes[at[fresh]])
    return nodes[np.sort(at[fresh])]

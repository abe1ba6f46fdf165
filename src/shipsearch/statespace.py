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
from dataclasses import dataclass

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


class NodeArena:
    """Store of search nodes; the probe truncates its path, compaction builds a fresh one."""

    def __init__(self):
        self.rows: list[int] = []
        self.parents: list[int] = []
        self.depths: list[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, row: int, parent: int) -> int:
        depth = self.depths[parent] + 1 if parent >= 0 else 0
        self.rows.append(row)
        self.parents.append(parent)
        self.depths.append(depth)
        return len(self.rows) - 1

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

    def all_rows(self, idx: int) -> list[int]:
        """Every row from the root to idx, oldest first."""
        return self.rows_back(idx, self.depths[idx] + 1)


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


def extract_ship(params: SearchParams, arena: NodeArena, idx: int) -> Pattern:
    """One phase of the found ship, in plain coordinates.

    Takes every pth row starting at the first live one, undoes the glide
    reversals and diagonal shears, and mirrors half-rows to full width.
    All rows are read at one width, wide enough for the widest: rows
    found before a narrowing may use columns the search has since dropped.
    """
    rows = arena.all_rows(idx)
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


class TranspositionTable(dict):
    """Map from state key to the first node that reached that state.

    state_key packs the last 2p rows exactly, so equal keys are equal
    states. Nodes arrive in nondecreasing depth (the queue is breadth-first
    and compaction reseeds the seed before the frontier), so the first node
    is also a shallowest one. Each entry is an arena node, and compaction
    starts a fresh table, so the table never outgrows the arena.
    """


def transposition_insert(table: TranspositionTable, key: int, idx: int) -> tuple[str, int | None]:
    """Returns ("fresh", None) after recording idx, or ("duplicate", the
    node recorded first for this key)."""
    kept = table.get(key)
    if kept is None:
        table[key] = idx
        return ("fresh", None)
    return ("duplicate", kept)

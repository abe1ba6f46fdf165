"""Successor row enumeration.

Given the known rows of a partial ship, the candidate next rows C (and the
lookahead rows L one constraint step further out) form paths through a
column graph: a vertex holds two adjacent cells of each of the two new
rows, an edge adds one column and carries the triple of each row centered
there. Per-column table lookups kill edges whose triples are locally
impossible (stage 1), a forward sweep keeps each column's edges whose
left vertex a path from the start reaches (stage 2), and a backward walk
from the end vertex enumerates exactly the C rows on start-to-end paths,
each once, without ever branching on the existentially-quantified
lookahead row (stage 3).

Stages 2 and 3 carry edge masks from column to column, never vertex
sets: the edges a column allows are those that share a vertex with an
edge kept in the column next to it. A step folds an edge mask's bytes
by shifts into two 16-bit byte pairs, and a 64 KB table per direction
maps each pair to half the vertex set it meets, whose edges a 256-entry
table gives; vertex sets appear only where those tables are built.
successors() runs the stages on one window in Python ints,
successors_batch on many in NumPy arrays, the same loop either way.

The tables are rule-only and width-independent: star_l answers the next
and lookahead constraints for one column, ll additionally requires the
two constraint instances reaching one more row into the future to have a
consistent witness, and for period 2 a strip-reachability table (p2)
replaces ll. Which of ll and p2 applies follows from the params alone
(statespace.filter_flags), so a search holds one filter table; where
neither applies it holds a one-entry table that passes every edge. Column
layout, boundary masks, the window length and which rows each lookup
samples come from the mode geometry in statespace.

successors() reads the last statespace.history(params) rows of the
window it is given, counted from the end; rows before the sequence start
must be present as dead rows (the search's tree starts from a chain of
that many, statespace.make_initial_state). A longer window gives the
same rows, a shorter one raises IndexError.

Which window row each lookup-index field samples, with what shift, mirror
reflection or glide reversal, is the same at every level. So build_tables
compiles stage 1 into byte tables kept on SearchTables: the entry for one
byte of one sampled row is that byte's share of every column's indices,
one 32-bit word per column, side by side in one integer. A call ORs one
entry per sampled row-byte, then reads each column's indices with a shift
and a mask.

successors_batch gives successors() for a whole array of windows at
once, from the NumPy form of the same SearchTables (SearchTables.arrays,
built on the first batch): stage 1 gathers every column's indices and
masks at once, stage 2 sweeps all windows column by column, and stage 3
walks one backward frontier of (window, partial row) entries. A call
costs a fixed count of NumPy calls per column and per sampled row-byte,
whatever the number of windows, so the search calls successors() on each
window of a set smaller than search.BATCH_MIN; both give the same rows
in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .rules import Rule, evolution_table
from .statespace import (
    DIAGONAL,
    EVEN_MIRROR,
    ODD_MIRROR,
    SearchParams,
    constraint_indices,
    edge_columns,
    filter_flags,
    frame_base,
    frame_offsets,
    history,
)

# ---------------------------------------------------------------------------
# edge/vertex layout LUTs (mode independent)
#
# edge value e = ct | lt<<3, triple bit 0 = leftmost cell; vertex value
# v = c_prev | c_cur<<1 | l_prev<<2 | l_cur<<3

_LEFT_OF = [(e & 3) | (((e >> 3) & 3) << 2) for e in range(64)]
_RIGHT_OF = [((e >> 1) & 3) | (((e >> 4) & 3) << 2) for e in range(64)]

_EVERY_EDGE = (1 << 64) - 1

_LMASK_V = [0] * 16
_RMASK_V = [0] * 16
for _e in range(64):
    _LMASK_V[_LEFT_OF[_e]] |= 1 << _e
    _RMASK_V[_RIGHT_OF[_e]] |= 1 << _e


def _vset_tables(vmask):
    """For each byte m of a vertex set, the edges vmask gives vertices v
    (lo) and 8 + v (hi) over the bits v of m."""
    lo, hi = [0], [0]
    for v in range(8):
        lo += [x | vmask[v] for x in lo]
        hi += [x | vmask[8 + v] for x in hi]
    return lo, hi


_LB_LO, _LB_HI = _vset_tables(_LMASK_V)
_RB_LO, _RB_HI = _vset_tables(_RMASK_V)


def _pair_table(vertex_of_ct):
    """uint8[65536]: for a pair of edge-mask bytes p = lo | hi<<8, each a
    set of ct, half a vertex set: the vertices vertex_of_ct(ct) of lo's ct
    and vertex_of_ct(ct) + 4 of hi's."""
    byte = np.zeros(256, dtype=np.uint8)
    for ct in range(8):
        byte[np.arange(256) >> ct & 1 == 1] |= 1 << vertex_of_ct(ct)
    return (byte[:, None] << 4 | byte).ravel()


# an edge mask's byte lt holds its edges (ct | lt<<3) as a set of ct; an
# edge's right vertex is ct>>1 | (lt>>1)<<2 and its left one ct&3 | (lt&3)<<2
_RIGHT_PAIR = _pair_table(lambda ct: ct >> 1)
_LEFT_PAIR = _pair_table(lambda ct: ct & 3)
# the same tables read one Python int at a time
_RIGHT_PAIR_V = memoryview(_RIGHT_PAIR)
_LEFT_PAIR_V = memoryview(_LEFT_PAIR)


def _next_allowed_int(e):
    """The edges that an edge mask e lets the next column take: those
    leaving a vertex that an edge of e enters. The fold ORs the bytes lt
    and lt^1, which have the same right vertices, leaving lt>>1 = 0, 1 in
    bits 0-15 and lt>>1 = 2, 3 in bits 32-47: through _RIGHT_PAIR, the
    two halves of the vertex set, whose leaving edges _LB_LO and _LB_HI
    give."""
    y = (e | e >> 8) & 0x00FF00FF00FF00FF
    y |= y >> 8
    return _LB_LO[_RIGHT_PAIR_V[y & 0xFFFF]] | _LB_HI[_RIGHT_PAIR_V[y >> 32 & 0xFFFF]]


def _prev_allowed_int(e):
    """The edges that an edge mask e lets the column before take: those
    entering a vertex that an edge of e leaves. The fold ORs the bytes lt
    and lt^4, which have the same left vertices, leaving lt = 0, 1 in bits
    0-15 and lt = 2, 3 in bits 16-31: through _LEFT_PAIR, the two halves
    of the vertex set, whose entering edges _RB_LO and _RB_HI give."""
    x = e | e >> 32
    return _RB_LO[_LEFT_PAIR_V[x & 0xFFFF]] | _RB_HI[_LEFT_PAIR_V[x >> 16 & 0xFFFF]]


# ---------------------------------------------------------------------------
# rule tables


def _masks_from_bits(bits):
    """Rows of 64 edge bits (bit index = edge value) -> 64-bit masks as
    Python ints, which the scalar stages index fastest."""
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").ravel().tolist()


@cache
def _star_tables(rule: Rule):
    """star_l[m3 | a3<<3 | dbit<<6 | e3<<7 | f3<<10] = 64-bit mask of edge
    values (ct | lt<<3) satisfying both one-column checks:
    evolve(a3,m3,ct) center == dbit and evolve(f3,e3,lt) center == center(ct).

    The checks share no index bits, so an entry is the AND of two halves:
    per (m3, a3, dbit), the ct passing the first, spread to every lt's
    byte; per (e3, f3), each lt's byte holding the ct whose center is the
    one lt births, 0x33 (center dead) or 0xCC (center live)."""
    ev = np.array(evolution_table(rule), dtype=np.uint8)
    t = np.arange(8)
    lo = np.arange(128)[:, None]  # m3 | a3<<3 | dbit<<6
    first = ev[(lo >> 3 & 7) | (lo & 7) << 3 | t << 6] == lo >> 6  # [lo, ct]
    ct_bytes = np.repeat(np.packbits(first, axis=1, bitorder="little"), 8, axis=1)  # [lo, lt]
    hi = np.arange(64)[:, None]  # e3 | f3<<3
    second = ev[(hi >> 3) | (hi & 7) << 3 | t << 6]  # [hi, lt]
    lt_bytes = np.where(second, np.uint8(0xCC), np.uint8(0x33))  # [hi, lt]
    return (lt_bytes.view("<u8") & ct_bytes.view("<u8").T).ravel().tolist()


def _evolve5_center3(ev):
    """EV5C[a5,b5,c5] = center triple of evolving three aligned 5-windows."""
    a = np.arange(32)[:, None, None]
    b = np.arange(32)[None, :, None]
    c = np.arange(32)[None, None, :]
    out = np.zeros((32, 32, 32), dtype=np.uint8)
    for m in range(3):
        idx = ((a >> m) & 7) | (((b >> m) & 7) << 3) | (((c >> m) & 7) << 6)
        out |= ev[idx] << m
    return out


@cache
def _ll_table(rule: Rule):
    """ll[b5 | a5<<5 | r3<<10] = 64-bit mask of edge values (ct | lt<<3)
    whose lookahead-track triple lt has some 5-windows x5, y5 satisfying
    both next-step instances:
    center3(evolve5(a5,b5,x5)) == r3 and center3(evolve5(b5,x5,y5)) == lt.
    An allowed lt allows the whole byte of edges with that lt.

    All eight r3 of one (a5, b5) come from one shift-and-OR over x5: the
    lt that some y5 gives, t2[b5, x5], shifted into byte r3 =
    center3(evolve5(a5,b5,x5)) of a uint64, eight planes of a5 at a time
    (64 KB). Each lt bit of the bytes, taken as [r3, a5, b5], then widens
    to its byte of edges."""
    ev = np.array(evolution_table(rule), dtype=np.uint8)
    ev5c = _evolve5_center3(ev)
    t2 = np.bitwise_or.reduce(np.uint8(1) << ev5c, axis=2).astype(np.uint64)  # [b5, x5] mask over lt
    lts = np.empty((32, 32), dtype="<u8")  # [a5, b5], byte r3 a mask over lt
    for a in range(0, 32, 8):
        np.bitwise_or.reduce(t2 << (ev5c[a : a + 8] << np.uint8(3)), axis=2, out=lts[a : a + 8])
    by_r3 = lts.view(np.uint8).reshape(32, 32, 8).transpose(2, 0, 1)  # [r3, a5, b5]
    return (np.unpackbits(by_r3, bitorder="little") * np.uint8(0xFF)).view("<u8").tolist()


_POP2 = np.array([0, 1, 1, 2], dtype=np.uint8)


def _pack32(bits: np.ndarray) -> np.ndarray:
    """Runs of 32 truth values (the last axis) as little-endian uint32s."""
    return np.packbits(bits.astype(bool, copy=False), bitorder="little").view(np.uint32)


_CLOSURE_PLANES = 4


def _backward_closure(valid: np.ndarray) -> np.ndarray:
    """The strips that can reach the all-dead strip under valid appends:
    good[a,b,c] bit d <=> strip rows (a,b,c,d) oldest-first can reach it,
    where valid[a,c,d] bit x allows appending x to (a,b,c,d) when
    (b,c,d,x) is good. Passes raise good in place, _CLOSURE_PLANES values
    of a at a time through two buffers that every slab reuses, 512 KB of
    ANDs and 128 KB of their truth values (all 32 would take 5 MB), each
    slab reading the slabs this pass has already raised: the system is
    monotone, so any order of raising reaches the same least fixpoint,
    and the passes stop at the first that changes nothing."""
    good = np.zeros((32, 32, 32), dtype=np.uint32)
    good[0, 0, 0] = 1
    planes = np.empty((_CLOSURE_PLANES, 32, 32, 32), dtype=np.uint32)  # [a, b, c, d] for a slab of a
    hit = np.empty(planes.shape, dtype=bool)
    changed = True
    while changed:
        changed = False
        for a in range(0, 32, _CLOSURE_PLANES):
            np.bitwise_and(valid[a : a + _CLOSURE_PLANES, None], good[None], out=planes)
            slab = good[a : a + _CLOSURE_PLANES]
            np.not_equal(planes, np.uint32(0), out=hit)
            raised = _pack32(hit).reshape(-1, 32, 32)
            changed = changed or (raised & ~slab).any()
            slab |= raised
    return good


@cache
def _p2_table(rule: Rule):
    """Period-2 strip reachability: a 5-cell-wide strip of the last four
    merged rows must be able to reach the all-dead strip by appending rows,
    where appending is allowed when the strip's own evolution constraint
    holds on the three center cells and each boundary cell's result is
    achievable for some live count among its three unseen outside
    neighbors. An entry keyed by the 5-windows of the two known rows and
    the triples of the two new rows is true when some assignment of the
    new rows' outer window cells lands in that reachable set.

    Entry r2w | r1w<<5 is a 64-bit mask over edge values.

    It is built on the grids its definition factors into. The appends
    allowed to strip (s3, s1, s0) are one uint32 over the appended row x,
    the AND of three: the x whose center evolves to s0's, per (s3, s1,
    s0's center triple), and per boundary cell the x whose outer pair
    leaves its result achievable, per (its live neighbors in s3 and s1,
    its own bit, its result). An entry ORs the reachable strips over the
    outer cells of the older new row into one mask over the newer row's
    window, per (r2w, r1w, ct), then tests it against the windows each
    lt allows."""
    ev = np.array(evolution_table(rule), dtype=np.uint8)
    ev5c = _evolve5_center3(ev)

    # boundary feasibility: known count, center bit, result bit
    fe = np.zeros((6, 2, 2), dtype=bool)
    for known in range(6):
        for mid in (0, 1):
            states = {1 if (known + c) in (rule.survive if mid else rule.birth) else 0 for c in range(4)}
            for res in states:
                fe[known, mid, res] = True

    x = np.arange(32)
    center = _pack32(ev5c[:, :, None, :] == np.arange(8)[:, None]).reshape(32, 32, 8)  # [s3, s1, r3]
    # the boundary cells' tables: [live neighbors in s3 and s1, own bit, result bit]
    low = _pack32(fe[np.arange(4)[:, None] + _POP2[x & 3]].transpose(0, 2, 3, 1)).reshape(4, 2, 2)
    high = _pack32(fe[np.arange(4)[:, None] + _POP2[x >> 3 & 3]].transpose(0, 2, 3, 1)).reshape(4, 2, 2)
    s3 = x[:, None, None]
    s1 = x[None, :, None]
    s0 = x[None, None, :]
    valid = center[s3, s1, s0 >> 1 & 7]
    valid &= low[_POP2[s3 & 3] + (s1 >> 1 & 1), s1 & 1, s0 & 1]
    valid &= high[_POP2[s3 >> 3 & 3] + (s1 >> 3 & 1), s1 >> 4 & 1, s0 >> 4 & 1]

    good = _backward_closure(valid)  # [r2w, r1w, c5] bit l5

    outer = np.arange(4)
    t = np.arange(8)
    w5 = (outer[None, :] & 1) | (t[:, None] << 1) | ((outer[None, :] >> 1) << 4)  # (8, 4)
    by_ct = np.bitwise_or.reduce(good[:, :, w5], axis=3)  # [r2w, r1w, ct] bit l5
    by_lt = np.bitwise_or.reduce(np.uint32(1) << w5.astype(np.uint32), axis=1)  # [lt] bit l5
    ent = (by_ct[..., None] & by_lt) != 0  # [r2w, r1w, ct, lt]

    # entry index = r2w | r1w<<5, bit = ct | lt<<3
    bits = np.transpose(ent, (1, 0, 3, 2)).reshape(1024, 64)
    return _masks_from_bits(bits)


# ---------------------------------------------------------------------------
# per-search tables


@dataclass(frozen=True)
class _BatchTables:
    reads: list  # per plan entry: window index, bit, first column, (columns, entries) intp fields
    row_bytes: np.ndarray  # per plan entry, its byte of a window as little-endian uint32 rows, from the end
    star: np.ndarray  # star_l as uint64
    filter: np.ndarray  # ll, p2 or pass-all as uint64
    masks: np.ndarray  # per column, uint64, as a (columns, 1) array; column 0's ANDed with start
    cell_bits: np.ndarray  # per column, 0 and its cell bit, as a (columns, 2, 1) intp array


@dataclass
class SearchTables:
    star_l: list
    filter: list  # ll or p2, whichever filter_flags applies; for neither, one pass-all entry
    masks: list
    start: int  # the edges leaving a vertex a row may start from: stage2's first allowed edges
    cell_bits: list  # per edge column, the row bit of the C cell it pins (0 outside the strip)
    plan: list  # stage1 compiled into byte tables, see _stage1_plan

    @cached_property
    def arrays(self) -> _BatchTables:
        """These tables in the form successors_batch reads, built when it
        first reads them; not a field, so == never compares them. Column
        c's two 13-bit indices fill the c-th 32-bit word of a stage1 plan
        entry, so an entry reads as one uint32 per column, and each plan
        table becomes one intp table per column it touches."""
        ncols = len(self.masks)
        reads = []
        for idx, b, table in self.plan:
            raw = b"".join(x.to_bytes(4 * ncols, "little") for x in table)
            fields = np.frombuffer(raw, "<u4").reshape(len(table), ncols)
            used = np.flatnonzero(fields.any(axis=0))
            if len(used):
                lo, hi = used[0], used[-1] + 1
                reads.append((idx, b, lo, np.ascontiguousarray(fields[:, lo:hi].T, dtype=np.intp)))
        return _BatchTables(
            reads=reads,
            row_bytes=np.array([4 * idx + b // 8 for idx, b, *_ in reads], dtype=np.intp),
            star=np.array(self.star_l, dtype=np.uint64),
            filter=np.array(self.filter, dtype=np.uint64),
            masks=np.array([self.masks[0] & self.start, *self.masks[1:]], dtype=np.uint64)[:, None],
            cell_bits=np.array([[[0], [bit]] for bit in self.cell_bits], dtype=np.intp),
        )


def _structural_masks(params: SearchParams):
    """Per edge column, the edge values whose live cells all fall inside
    the searched strip (plus the mirror ghost column, whose cells must
    agree with their reflection): every pair of a C triple and an L
    triple that are each allowed there."""
    w = params.width
    s = 1 if params.translation == DIAGONAL else 0
    low = -1 if params.mirrored else 0  # the leftmost column a cell may live in
    # at column 0 the ghost cell (triple bit 0) must equal its reflection
    axis = {EVEN_MIRROR: 1, ODD_MIRROR: 2}.get(params.symmetry)

    def triples(j, first):
        # the triples over columns first..first+2 with no live cell outside
        inside = sum(1 << b for b in range(3) if low <= first + b < w)
        return [t for t in range(8) if not t & ~inside and (j or axis is None or (t & 1) == (t >> axis & 1))]

    return [
        sum(1 << (ct | lt << 3) for ct in triples(j, j - 1) for lt in triples(j, j - s - 1))
        for j in edge_columns(params)
    ]


def build_tables(params: SearchParams) -> SearchTables:
    use_ll, use_p2 = filter_flags(params)
    table = _ll_table(params.rule) if use_ll else _p2_table(params.rule) if use_p2 else [_EVERY_EDGE]
    # a row starts from the vertex of cells left of the strip: all dead;
    # under even mirror each copies its reflection (v = 0, 3, 12, 15);
    # under odd mirror any, column 0's structural mask ties them to theirs
    if params.symmetry == EVEN_MIRROR:
        start = _LMASK_V[0] | _LMASK_V[3] | _LMASK_V[12] | _LMASK_V[15]
    elif params.symmetry == ODD_MIRROR:
        start = _EVERY_EDGE
    else:
        start = _LMASK_V[0]
    return SearchTables(
        star_l=_star_tables(params.rule),
        filter=table,
        masks=_structural_masks(params),
        start=start,
        cell_bits=[1 << (j - 1) if 0 < j <= params.width else 0 for j in edge_columns(params)],
        plan=_stage1_plan(params),
    )


# ---------------------------------------------------------------------------
# the three stages


# stage1 packs column c's two lookup indices into the c-th 32-bit word:
# star's at bits 0-12, then ll's or p2's at bits 13-25 (0 for neither)
_FIELD_SPAN = 32


def _stage1_plan(params: SearchParams):
    """Stage1 compiled into byte tables, the same at every level. A
    lookup-index field is a fixed set of one row's cells (shifted,
    reflected into the mirror half, or reversed under glide), so each byte
    of a sampled row owns a fixed share of every column's fields, all
    columns packed _FIELD_SPAN bits apart, and the shares combine by OR.
    Returns a (window index counted from the end, bit, table) per sampled
    row-byte of the last history(params) rows."""
    h = history(params)
    ci = constraint_indices(params, h)
    st, lk = ci.star, ci.lookahead
    s = 1 if params.translation == DIAGONAL else 0
    # (row, low bit, width, read offset): the field holds the row's cells
    # from read to read + width - 1 around the column; star's m3, a3, dbit, e3, f3
    fields = [(st.mid, 0, 3, s - 1), (st.above, 3, 3, s - 1), (st.result, 6, 1, s)]
    fields += [(lk.mid, 7, 3, -1), (lk.above, 10, 3, -1)]
    if ci.filter is not None:
        # ll's b5 and a5, or p2's r2w and r1w
        fields += [(ref, low, 5, -2) for ref, low in zip(ci.filter, (13, 18))]
        if filter_flags(params)[0]:
            fields.append((lk.mid, 23, 3, -1))  # ll's r3 (= e3)
    w = params.width
    cols = edge_columns(params)
    first = frame_base(params) + cols[0]  # frame position of the first column
    shares: dict[int, list[int]] = {}  # window index -> per row cell, its share of the fields
    for ref, low, width, read in fields:
        share = shares.setdefault(ref.index - h, [0] * w)
        plain, mirror = frame_offsets(params, ref)
        for cell in range(w):
            at = [plain + cell] if plain is not None else []
            if mirror is not None:
                at.append(mirror + w - 1 - cell)
            for q in at:
                q -= first + read  # the cell's distance from the first column's field
                for c in range(max(0, q - width + 1), min(len(cols), q + 1)):
                    share[cell] |= 1 << (_FIELD_SPAN * c + low + q - c)
    reads = []
    for idx, share in shares.items():
        for b in range(0, w, 8):
            table = [0]
            for bit in share[b : b + 8]:
                table += [x | bit for x in table]
            reads.append((idx, b, table))
    return reads


def stage1_edges(params: SearchParams, tables: SearchTables, rows):
    """64-bit edge mask per column: triple pairs of the new rows that pass
    every per-column check against the last history(params) known rows."""
    acc = 0
    for idx, b, table in tables.plan:
        acc |= table[rows[idx] >> b & 255]
    star, second = tables.star_l, tables.filter
    out = []
    for mask in tables.masks:
        out.append(star[acc & 0x1FFF] & second[acc >> 13 & 0x1FFF] & mask)
        acc >>= _FIELD_SPAN
    return out


def stage2_reach(params: SearchParams, tables: SearchTables, edges):
    """Forward reachability: per edge column, the edges whose left vertex
    a path from the start reaches, each column's allowed by the column
    before (_next_allowed_int); None as soon as a column keeps none. The
    last column's structural mask admits only edges into the end vertex
    (all four cells dead), so an edge left there reaches it."""
    act = edges[0] & tables.start
    reach = [act]
    for e in edges[1:]:
        if not act:
            return None
        act = e & _next_allowed_int(act)
        reach.append(act)
    return reach if act else None


# edge masks whose leftmost C-track cell is dead
_DEAD_C0 = sum(1 << _e for _e in range(0, 64, 2))


def stage3_enumerate(params: SearchParams, tables: SearchTables, edges, reach):
    """All C rows on start-to-end paths, in increasing binary value.

    Walks right to left over stage2's forward edges (reach; edges is not
    read) from those into the end vertex, each column's allowed by the
    edges taken in the column after it (_prev_allowed_int), branching
    only on the C cell an edge pins down: the dead branch is followed at
    once and the live one stacked. Lookahead-track alternatives stay
    merged inside the masks, so each row comes out exactly once, and
    stage2's reachability guarantees no branch dead-ends."""
    bits = tables.cell_bits
    out = []
    c = len(reach) - 1
    stack = [(c, reach[c], 0)]
    while stack:
        c, act, acc = stack.pop()
        while True:
            dead = act & _DEAD_C0
            if not dead:
                acc |= bits[c]
            elif act != dead:
                # the live edges alone, which set bits[c] when popped
                stack.append((c, act ^ dead, acc))
                act = dead
            if not c:
                break
            c -= 1
            act = reach[c] & _prev_allowed_int(act)
        out.append(acc)
    return out


def successors(params: SearchParams, tables: SearchTables, rows):
    """Candidate next rows for the partial sequence, sorted increasing:
    those that satisfy the next constraint, with some lookahead row that
    satisfies the constraint after it and passes the ll or p2 filter
    where filter_flags applies one.

    rows is the known sequence, oldest first, at least history(params)
    rows long with dead rows standing for those before the sequence
    starts; only the last history(params) rows are read. Rows beyond the
    last 2p matter only to the ll filter (it widens what it can prune,
    never what it admits)."""
    edges = stage1_edges(params, tables, rows)
    reach = stage2_reach(params, tables, edges)
    if reach is None:
        return []
    return stage3_enumerate(params, tables, edges, reach)


# ---------------------------------------------------------------------------
# the three stages over a batch of windows

_LB_LO_A, _LB_HI_A, _RB_LO_A, _RB_HI_A = (np.array(t, dtype=np.uint64) for t in (_LB_LO, _LB_HI, _RB_LO, _RB_HI))
_SPLIT = np.array([[_DEAD_C0], [_EVERY_EDGE ^ _DEAD_C0]], dtype=np.uint64)  # dead C cell, live C cell


def _next_allowed(e):
    """_next_allowed_int for each of the uint64 edge masks e, its byte
    pairs read as 16-bit groups of the ORs of e's neighbouring bytes."""
    z = np.ascontiguousarray(e, dtype="<u8").view(np.uint8)
    half = _RIGHT_PAIR.take((z[..., 0::2] | z[..., 1::2]).view("<u2"))
    return _LB_LO_A.take(half[..., 0::2]) | _LB_HI_A.take(half[..., 1::2])


def _prev_allowed(e):
    """_prev_allowed_int for each of the uint64 edge masks e, its byte
    pairs read as the 16-bit groups of the OR of e's two 32-bit halves."""
    u = np.ascontiguousarray(e, dtype="<u8").view("<u4")
    half = _LEFT_PAIR.take((u[..., 0::2] | u[..., 1::2]).astype("<u4", copy=False).view("<u2"))
    return _RB_LO_A.take(half[..., 0::2]) | _RB_HI_A.take(half[..., 1::2])


def successors_batch(params: SearchParams, tables: SearchTables, windows) -> tuple[np.ndarray, np.ndarray]:
    """successors(params, tables, w) for every w of an (N, at least
    history(params)) array of windows, through the same three stages run
    over the whole batch at once, as two flat arrays: for each row found,
    the position of its window (intp) and the row itself (uint64), grouped
    by window in order and increasing within a window. It reads
    tables.arrays, which the first call builds and the tables keep, so a
    search builds them once per width; the windows may be of any levels:

    - stage1 gathers every column's lookup indices from per-column byte
      tables, then looks up and ANDs the star and filter masks and the
      structural ones for all columns at once;
    - stage2 sweeps the columns forward over all N windows together,
      ANDing each column with the edges the one before allows
      (_next_allowed, through a 64 KB byte-pair table); a window with
      an edge left in the last column reaches the end vertex;
    - stage3 walks backward over the stage2 survivors only, holding one
      (window, allowed edges, row) entry per partial row (_prev_allowed)
      and splitting an entry where both the dead and the live C cell go
      on; one sort of the key window << 32 | row then orders the entries
      by window, then row, as rows are at most 32 bits wide."""
    n = len(windows)
    if not n:  # [] would not index as an (N, history) array
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.uint64)
    bt = tables.arrays
    # per plan entry, its byte of each window
    picks = np.ascontiguousarray(windows, dtype="<u4").view(np.uint8).T[bt.row_bytes]
    fields = np.zeros((len(bt.masks), n), dtype=np.intp)  # per column: star's index, then the filter's
    for (_, _, lo, table), byte in zip(bt.reads, picks):
        fields[lo : lo + len(table)] |= table.take(byte, axis=1)

    # every column at once, holding fields, fwd and one array of their
    # size; the indices are in range, and "clip" spares take its checks
    fwd = bt.star.take(fields & 0x1FFF, mode="clip")
    fields >>= 13
    fwd &= bt.filter.take(fields, mode="clip")
    fwd &= bt.masks
    for prev, cur in zip(fwd, fwd[1:]):
        cur &= _next_allowed(prev)

    # the last column keeps only edges into the end vertex (stage2_reach);
    # per entry, the key window << 32 | row and the edges it may take
    at = fwd[-1].nonzero()[0]
    key, act = at << 32, fwd[-1].take(at)
    for c in range(len(fwd) - 1, -1, -1):
        # each entry's edges with a dead, then with a live C cell, and their keys
        acts, keys = act & _SPLIT, key | bt.cell_bits[c]
        pick = acts.ravel().nonzero()[0]
        key, act = keys.take(pick), acts.take(pick)
        if c:
            act = fwd[c - 1].take(key >> 32) & _prev_allowed(act)
    key.sort()
    return key >> 32, (key & 0xFFFFFFFF).view(np.uint64)

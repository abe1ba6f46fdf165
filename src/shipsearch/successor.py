"""Successor row enumeration.

Given the known rows of a partial ship, the candidate next rows C (and the
lookahead rows L one constraint step further out) form paths through a
column graph: a vertex holds two adjacent cells of each of the two new
rows, an edge adds one column and carries the triple of each row centered
there. Per-column table lookups kill edges whose triples are locally
impossible (stage 1), a forward reachability sweep finds the columns'
surviving vertices (stage 2), and a backward walk over vertex *sets*
enumerates exactly the C rows on start-to-end paths, each once, without
ever branching on the existentially-quantified lookahead row (stage 3).
Stage 2 hands stage 3 the edges it kept going forward.

The tables are rule-only and width-independent: star_l answers the next
and lookahead constraints for one column, ll additionally requires the
two constraint instances reaching one more row into the future to have a
consistent witness, and for period 2 a strip-reachability table (p2)
replaces ll. Which of ll and p2 applies follows from the params alone
(statespace.filter_flags), so a search holds one filter table. Column
layout, boundary masks, the window length and which rows each lookup
samples come from the mode geometry in statespace.

successors() reads the last statespace.history(params) rows of the
window it is given, counted from the end; rows before the sequence start
must be present as dead rows (NodeArena.rows_back pads with them). A
longer window gives the same rows, a shorter one raises IndexError.

Which window row each lookup-index field samples, with what shift, mirror
reflection or glide reversal, is the same at every level. So build_tables
compiles stage 1 into byte tables kept on SearchTables: the entry for one
byte of one sampled row is that byte's share of every column's indices,
all columns packed side by side in one integer. A call ORs one entry per
sampled row-byte, then reads each column's indices with a shift and a
mask. The vertex sets an edge mask leaves or enters are folded out of it
in closed form, by shifts and masks.

successors_batch gives successors() for a whole array of windows at
once, from the same SearchTables, whose NumPy form (SearchTables.arrays)
is built on the first batch and kept with them for the rest of the
search: stage 1 gathers per-column uint32 slices of the byte tables,
stage 2 sweeps all windows column by column, and stage 3 walks one
backward frontier holding an entry per (window, partial row), over the
windows stage 2 kept. The search hands it every large chunk of queued
breadth-first states, whatever their levels, and calls successors() for
the rest; both must give the same rows in the same order.
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

_LMASK_V = [0] * 16
_RMASK_V = [0] * 16
for _e in range(64):
    _LMASK_V[_LEFT_OF[_e]] |= 1 << _e
    _RMASK_V[_RIGHT_OF[_e]] |= 1 << _e


def _vset_tables(vmask):
    lo = [0] * 256
    hi = [0] * 256
    for m in range(256):
        acc_lo = acc_hi = 0
        for v in range(8):
            if m >> v & 1:
                acc_lo |= vmask[v]
                acc_hi |= vmask[8 + v]
        lo[m] = acc_lo
        hi[m] = acc_hi
    return lo, hi


_LB_LO, _LB_HI = _vset_tables(_LMASK_V)
_RB_LO, _RB_HI = _vset_tables(_RMASK_V)


def _edges_with_left_in(vset):
    return _LB_LO[vset & 255] | _LB_HI[vset >> 8]


def _edges_with_right_in(vset):
    return _RB_LO[vset & 255] | _RB_HI[vset >> 8]


def _right_vertices(emask):
    # an edge's right vertex drops its leftmost C and L cells: fold edge
    # bits 3 and 0 out of the mask, then pack the 16 positions left over
    x = (emask | emask >> 8) & 0x00FF00FF00FF00FF
    x = (x | x >> 1) & 0x0055005500550055
    x = (x | x >> 1) & 0x0033003300330033
    x = (x | x >> 2) & 0x000F000F000F000F
    x = (x | x >> 12) & 0x000000FF000000FF
    return (x | x >> 24) & 0xFFFF


def _left_vertices(emask):
    # an edge's left vertex drops its rightmost L and C cells: fold edge
    # bits 5 and 2 out; byte b's low nibble then holds vertices b<<2 | c
    x = (emask | emask >> 32) & 0xFFFFFFFF
    x = (x | x >> 4) & 0x0F0F0F0F
    x = (x | x >> 4) & 0x00FF00FF
    return (x | x >> 8) & 0xFFFF


# ---------------------------------------------------------------------------
# rule tables


def _ints_from_bits(bits2d):
    """Rows of bits (bit index = column) -> list of Python ints."""
    packed = np.packbits(bits2d, axis=1, bitorder="little")
    span = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[span * i : span * (i + 1)], "little") for i in range(packed.shape[0])]


@cache
def _star_tables(rule: Rule):
    """star_l[m3 | a3<<3 | dbit<<6 | e3<<7 | f3<<10] = 64-bit mask of edge
    values (ct | lt<<3) satisfying both one-column checks:
    evolve(a3,m3,ct) center == dbit and evolve(f3,e3,lt) center == center(ct)."""
    ev = np.array(evolution_table(rule), dtype=np.uint8)
    idx = np.arange(8192)
    m3 = idx & 7
    a3 = (idx >> 3) & 7
    db = ((idx >> 6) & 1).astype(np.uint8)
    e3 = (idx >> 7) & 7
    f3 = (idx >> 10) & 7
    t = np.arange(8)

    first = ev[a3[:, None] | (m3[:, None] << 3) | (t[None, :] << 6)]  # over ct
    cond_a = first == db[:, None]
    second = ev[f3[:, None] | (e3[:, None] << 3) | (t[None, :] << 6)]  # over lt
    center_ct = ((t >> 1) & 1).astype(np.uint8)
    cond_l = second[:, :, None] == center_ct[None, None, :]  # (idx, lt, ct)

    full = cond_a[:, None, :] & cond_l  # bit position ct | lt<<3 = lt-major
    return _ints_from_bits(full.reshape(8192, 64))


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
    An allowed lt allows the whole byte of edges with that lt."""
    ev = np.array(evolution_table(rule), dtype=np.uint8)
    ev5c = _evolve5_center3(ev)
    pow2 = (1 << np.arange(8)).astype(np.uint8)
    t2 = np.bitwise_or.reduce(pow2[ev5c], axis=2)  # [b5, x5] mask over lt
    out = np.zeros((8, 32, 32), dtype=np.uint8)  # [r3, a5, b5]
    for r3 in range(8):
        sel = np.where(ev5c == r3, t2[None, :, :], np.uint8(0))
        out[r3] = np.bitwise_or.reduce(sel, axis=2)
    lts = np.unpackbits(out.reshape(-1, 1), axis=1, bitorder="little")  # [entry, lt]
    return (lts * np.uint8(0xFF)).view("<u8").ravel().tolist()


_POP2 = np.array([0, 1, 1, 2], dtype=np.uint8)


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

    Entry r2w | r1w<<5 is a 64-bit mask over edge values."""
    ev = np.array(evolution_table(rule), dtype=np.uint8)
    ev5c = _evolve5_center3(ev)

    # boundary feasibility: known count, center bit, result bit
    fe = np.zeros((6, 2, 2), dtype=bool)
    for known in range(6):
        for mid in (0, 1):
            states = {1 if (known + c) in (rule.survive if mid else rule.birth) else 0 for c in range(4)}
            for res in states:
                fe[known, mid, res] = True

    s3 = np.arange(32)[:, None, None, None]
    s1 = np.arange(32)[None, :, None, None]
    s0 = np.arange(32)[None, None, :, None]
    x = np.arange(32)[None, None, None, :]

    cond = ev5c[s3, s1, x] == ((s0 >> 1) & 7).astype(np.uint8)
    k0 = _POP2[s3 & 3] + (((s1 >> 1) & 1).astype(np.uint8)) + _POP2[x & 3]
    cond &= fe[k0, s1 & 1, s0 & 1]
    k4 = _POP2[(s3 >> 3) & 3] + (((s1 >> 3) & 1).astype(np.uint8)) + _POP2[(x >> 3) & 3]
    cond &= fe[k4, (s1 >> 4) & 1, (s0 >> 4) & 1]
    valid = np.packbits(cond, axis=-1, bitorder="little").view(np.uint32)[..., 0]

    # backward closure of the all-dead strip under valid appends;
    # good[a,b,c] bit d <=> strip rows (a,b,c,d) oldest-first can reach it
    good = np.zeros((32, 32, 32), dtype=np.uint32)
    good[0, 0, 0] = 1
    while True:
        reach = (valid[:, None, :, :] & good[None, :, :, :]) != 0
        new = good | np.packbits(reach, axis=-1, bitorder="little").view(np.uint32)[..., 0]
        if np.array_equal(new, good):
            break
        good = new

    good_bits = np.unpackbits(good.view(np.uint8).reshape(32, 32, 32, 4), axis=-1, bitorder="little")
    good_bits = good_bits.astype(bool)  # [r2w, r1w, c5, l5]

    outer = np.arange(4)
    t = np.arange(8)
    w5 = (outer[None, :] & 1) | (t[:, None] << 1) | ((outer[None, :] >> 1) << 4)  # (8, 4)
    ent = good_bits[:, :, w5[:, :, None, None], w5[None, None, :, :]]
    ent = ent.any(axis=(3, 5))  # [r2w, r1w, ct, lt]

    # entry index = r2w | r1w<<5, bit = ct | lt<<3
    bits = np.transpose(ent, (1, 0, 3, 2)).reshape(1024, 64)
    return _ints_from_bits(bits)


# ---------------------------------------------------------------------------
# per-search tables


@dataclass(frozen=True)
class _BatchTables:
    reads: list  # per plan entry: window index, bit, first column, (columns, entries) uint32 fields
    star: np.ndarray  # star_l as uint64
    filter: np.ndarray | None  # ll or p2 as uint64
    masks: np.ndarray  # per column, uint64


@dataclass
class SearchTables:
    star_l: list
    filter: list | None  # ll or p2, whichever filter_flags applies; None for neither
    masks: list
    start_set: int
    cell_bits: list  # per edge column, the row bit of the C cell it pins (0 outside the strip)
    plan: list  # stage1 compiled into byte tables, see _stage1_plan

    @cached_property
    def arrays(self) -> _BatchTables:
        """These tables in the form successors_batch reads, built when it
        first reads them; not a field, so == never compares them. Stage1's
        plan entries are split per column: column c's two 13-bit indices
        are bits _FIELD_SPAN * c on of an entry, too wide for one machine
        word, so an entry becomes one uint32 table per column it touches."""
        ncols = len(self.masks)
        nbytes = (_FIELD_SPAN * ncols + 7) // 8
        weights = np.uint32(1) << np.arange(_FIELD_SPAN, dtype=np.uint32)
        reads = []
        for idx, b, table in self.plan:
            raw = b"".join(x.to_bytes(nbytes, "little") for x in table)
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(table), nbytes), axis=1, bitorder="little")
            fields = bits[:, : _FIELD_SPAN * ncols].reshape(len(table), ncols, _FIELD_SPAN) @ weights
            used = np.flatnonzero(fields.any(axis=0))
            if len(used):
                lo, hi = used[0], used[-1] + 1
                reads.append((idx, b, lo, np.ascontiguousarray(fields[:, lo:hi].T, dtype=np.uint32)))
        return _BatchTables(
            reads=reads,
            star=np.array(self.star_l, dtype=np.uint64),
            filter=None if self.filter is None else np.array(self.filter, dtype=np.uint64),
            masks=np.array(self.masks, dtype=np.uint64),
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
    table = _ll_table(params.rule) if use_ll else _p2_table(params.rule) if use_p2 else None
    if params.symmetry == EVEN_MIRROR:
        start = (1 << 0) | (1 << 3) | (1 << 12) | (1 << 15)
    elif params.symmetry == ODD_MIRROR:
        start = 0xFFFF
    else:
        start = 1
    return SearchTables(
        star_l=_star_tables(params.rule),
        filter=table,
        masks=_structural_masks(params),
        start_set=start,
        cell_bits=[1 << (j - 1) if 0 < j <= params.width else 0 for j in edge_columns(params)],
        plan=_stage1_plan(params),
    )


# ---------------------------------------------------------------------------
# the three stages


# stage1 packs column c's two lookup indices from bit _FIELD_SPAN * c on:
# star's at bits 0-12, then ll's or p2's at bits 13-25
_FIELD_SPAN = 26
_NO_FILTER = (2**64 - 1,)  # the second lookup when neither ll nor p2 applies


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
    star, second = tables.star_l, tables.filter or _NO_FILTER
    out = []
    for mask in tables.masks:
        out.append(star[acc & 0x1FFF] & second[acc >> 13 & 0x1FFF] & mask)
        acc >>= _FIELD_SPAN
    return out


def stage2_reach(params: SearchParams, tables: SearchTables, edges):
    """Forward reachability: per column the edges whose left vertex is
    reachable from the start, then the set of vertices reached at the
    end; None as soon as it dies out."""
    cur = tables.start_set
    fwd = []
    for e in edges:
        act = e & _edges_with_left_in(cur)
        if not act:
            return None
        cur = _right_vertices(act)
        fwd.append(act)
    if not cur & 1:  # the end vertex: all four cells dead
        return None
    fwd.append(cur)
    return fwd


# edge masks whose leftmost C-track cell is dead
_DEAD_C0 = sum(1 << _e for _e in range(0, 64, 2))


def stage3_enumerate(params: SearchParams, tables: SearchTables, edges, reach):
    """All C rows on start-to-end paths, in increasing binary value.

    Walks right to left over vertex sets through stage2's forward edges
    (reach; of edges only the count is read), branching only on the C
    cell an edge pins down: the dead branch is followed at once and the
    live one stacked. Lookahead-track alternatives stay merged inside the
    sets, so each row comes out exactly once, and the reachability filter
    guarantees no branch dead-ends."""
    bits = tables.cell_bits
    out = []
    stack = [(len(edges) - 1, reach[-1] & 1, 0)]
    while stack:
        c, vset, acc = stack.pop()
        while c >= 0:
            act = reach[c] & _edges_with_right_in(vset)
            dead = act & _DEAD_C0
            if dead:
                if act != dead:
                    stack.append((c - 1, _left_vertices(act ^ dead), acc | bits[c]))
                vset = _left_vertices(dead)
            else:
                vset = _left_vertices(act)
                acc |= bits[c]
            c -= 1
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


def successors_batch(params: SearchParams, tables: SearchTables, windows) -> list[list[int]]:
    """[successors(params, tables, w) for w in windows], for an (N, at
    least history(params)) array of windows, through the same three
    stages run over the whole batch at once. It reads tables.arrays,
    which the first call builds and the tables keep, so a search builds
    them once per width; the windows may be of any levels:

    - stage1 gathers each column's lookup indices from per-column byte
      tables and ANDs the table masks;
    - stage2 sweeps the columns forward over all N windows together;
    - stage3 walks backward over the stage2 survivors only, holding one
      (window, vertex set, row) entry per partial row and splitting an
      entry where both the dead and the live C cell go on; a lexsort
      then restores increasing rows within each window."""
    bt = tables.arrays
    windows = np.asarray(windows, dtype=np.uint32)
    n = len(windows)
    fields = np.zeros((len(bt.masks), n), dtype=np.uint32)  # per column: star's index, then the filter's
    for idx, b, lo, table in bt.reads:
        fields[lo : lo + len(table)] |= table[:, windows[:, idx] >> b & 255]

    # stage1's table lookups a column at a time, each followed by its
    # stage2 step, so that no temporary spans every column
    fwd = np.empty(fields.shape, dtype=np.uint64)
    cur = np.full(n, tables.start_set, dtype=np.uint64)
    for c, col in enumerate(fields):
        e = bt.star[col & 0x1FFF] & bt.masks[c]
        if bt.filter is not None:
            e &= bt.filter[col >> 13]
        e &= _LB_LO_A[cur & 255] | _LB_HI_A[cur >> 8]
        fwd[c] = e
        cur = _right_vertices(e)

    at = np.flatnonzero(cur & 1)  # per entry, its window: those whose end vertex is reached
    vset = np.ones(len(at), dtype=np.uint64)
    acc = np.zeros(len(at), dtype=np.uint64)
    for c in range(len(fwd) - 1, -1, -1):
        act = fwd[c, at] & (_RB_LO_A[vset & 255] | _RB_HI_A[vset >> 8])
        dead = act & _DEAD_C0
        live = act ^ dead
        d, l = np.flatnonzero(dead), np.flatnonzero(live)
        if len(l):
            at = np.concatenate((at[d], at[l]))
            vset = _left_vertices(np.concatenate((dead[d], live[l])))
            acc = np.concatenate((acc[d], acc[l] | tables.cell_bits[c]))
        else:
            vset = _left_vertices(dead)
    rows = acc[np.lexsort((acc, at))].tolist()
    out, pos = [], 0
    for count in np.bincount(at, minlength=n).tolist():
        out.append(rows[pos : pos + count])
        pos += count
    return out

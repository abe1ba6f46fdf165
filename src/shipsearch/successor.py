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
replaces ll. Column layout, boundary masks and sampling offsets come from
the mode geometry in statespace.

That geometry (which window row each lookup samples, with what shift and
reversal, and where each column reads it) is the same at every level, so
stage 1 compiles it once per window length and lookahead/extended flags
and memoises it on SearchTables; a call then only frames the window's
rows and runs the column loop. A mirror ghost (a row's reflection) needs
only 3 cells: no column reads more than 2 cells past the axis. The
vertex sets an edge mask leaves or enters are folded out of it in closed
form, by shifts and masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rules import Rule, evolution_table
from .statespace import (
    DIAGONAL,
    EVEN_MIRROR,
    GLIDE_REFLECT,
    ODD_MIRROR,
    RowRef,
    SearchParams,
    constraint_indices,
    edge_columns,
    filter_flags,
    frame_base,
    frame_offsets,
    reverse_row,
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


# lt-mask -> 64-bit edge mask with those whole lt bytes allowed
_BCAST = [0] * 256
for _m in range(256):
    acc = 0
    for _lt in range(8):
        if _m >> _lt & 1:
            acc |= 0xFF << (8 * _lt)
    _BCAST[_m] = acc

# 3-cell row -> its mirror image
_REV3 = [reverse_row(_v, 3) for _v in range(8)]


# ---------------------------------------------------------------------------
# rule tables


def _ints_from_bits(bits2d):
    """Rows of bits (bit index = column) -> list of Python ints."""
    packed = np.packbits(bits2d, axis=1, bitorder="little")
    span = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[span * i : span * (i + 1)], "little") for i in range(packed.shape[0])]


def _star_tables(rule: Rule):
    """star_l[m3 | a3<<3 | dbit<<6 | e3<<7 | f3<<10] = 64-bit mask of edge
    values (ct | lt<<3) satisfying both one-column checks:
    evolve(a3,m3,ct) center == dbit and evolve(f3,e3,lt) center == center(ct).
    star_only ignores the second check and pins the lookahead track dead."""
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
    star_l = _ints_from_bits(full.reshape(8192, 64))

    only = np.zeros((8192, 8, 8), dtype=bool)
    only[:, 0, :] = cond_a
    star_only = _ints_from_bits(only.reshape(8192, 64))
    return star_l, star_only


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


def _ll_table(rule: Rule):
    """ll[b5 | a5<<5 | r3<<10] = 8-bit mask of lookahead-track triples t3
    for which some 5-windows x5, y5 satisfy both next-step instances:
    center3(evolve5(a5,b5,x5)) == r3 and center3(evolve5(b5,x5,y5)) == t3."""
    ev = np.array(evolution_table(rule), dtype=np.uint8)
    ev5c = _evolve5_center3(ev)
    pow2 = (1 << np.arange(8)).astype(np.uint8)
    t2 = np.bitwise_or.reduce(pow2[ev5c], axis=2)  # [b5, x5] mask over t3
    out = np.zeros((8, 32, 32), dtype=np.uint8)  # [r3, a5, b5]
    for r3 in range(8):
        sel = np.where(ev5c == r3, t2[None, :, :], np.uint8(0))
        out[r3] = np.bitwise_or.reduce(sel, axis=2)
    return out.ravel().tolist()


_POP2 = np.array([0, 1, 1, 2], dtype=np.uint8)


def _p2_table(rule: Rule):
    """Period-2 strip reachability: a 5-cell-wide strip of the last four
    merged rows must be able to reach the all-dead strip by appending rows,
    where appending is allowed when the strip's own evolution constraint
    holds on the three center cells and each boundary cell's result is
    achievable for some live count among its three unseen outside
    neighbors. An entry keyed by the 5-windows of the two known rows and
    the triples of the two new rows is true when some assignment of the
    new rows' outer window cells lands in that reachable set.

    Returns (packed, fraction): packed[r2w | r1w<<5] is a 64-bit mask over
    edge values, fraction is the pruned share of all 2^16 entries."""
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
    fraction = 1.0 - float(ent.mean())

    # entry index = r2w | r1w<<5, bit = ct | lt<<3
    bits = np.transpose(ent, (1, 0, 3, 2)).reshape(1024, 64)
    return _ints_from_bits(bits), fraction


_rule_cache: dict[tuple, object] = {}


def _cached(kind: str, rule: Rule, build):
    key = (kind, rule)
    if key not in _rule_cache:
        _rule_cache[key] = build(rule)
    return _rule_cache[key]


# ---------------------------------------------------------------------------
# per-search tables


@dataclass
class SearchTables:
    star_l: list
    star_only: list
    ll: list | None
    p2: list | None
    p2_fraction: float | None
    columns: list
    masks: list
    start_set: int
    end_set: int
    shear: int
    cell_bits: list  # per edge column, the row bit of the C cell it pins (0 outside the strip)
    plans: dict = field(default_factory=dict)  # stage1 geometry by (len(rows), lookahead, extended)


def _structural_masks(params: SearchParams):
    """Per edge column, the edge values whose live cells all fall inside
    the searched strip (plus the mirror ghost column, whose cells must
    agree with their reflection)."""
    w = params.width
    s = 1 if params.translation == DIAGONAL else 0
    mirrored = params.mirrored

    def may_live(col):
        return 0 <= col < w or (mirrored and col == -1)

    cols = list(edge_columns(params))
    masks = []
    for j in cols:
        m = 0
        for e in range(64):
            ct, lt = e & 7, e >> 3
            ok = True
            for b in range(3):
                if ct >> b & 1 and not may_live(j - 1 + b):
                    ok = False
                if lt >> b & 1 and not may_live(j - s - 1 + b):
                    ok = False
            if ok and j == 0:
                if params.symmetry == EVEN_MIRROR:
                    ok = (ct & 1) == (ct >> 1 & 1) and (lt & 1) == (lt >> 1 & 1)
                elif params.symmetry == ODD_MIRROR:
                    ok = (ct & 1) == (ct >> 2 & 1) and (lt & 1) == (lt >> 2 & 1)
            if ok:
                m |= 1 << e
        masks.append(m)
    return cols, masks


def build_tables(params: SearchParams) -> SearchTables:
    star_l, star_only = _cached("star", params.rule, _star_tables)
    ll = p2 = fraction = None
    if params.period == 2:
        p2, fraction = _cached("p2", params.rule, _p2_table)
    else:
        ll = _cached("ll", params.rule, _ll_table)
    cols, masks = _structural_masks(params)
    if params.symmetry == EVEN_MIRROR:
        start = (1 << 0) | (1 << 3) | (1 << 12) | (1 << 15)
    elif params.symmetry == ODD_MIRROR:
        start = 0xFFFF
    else:
        start = 1
    return SearchTables(
        star_l=star_l,
        star_only=star_only,
        ll=ll,
        p2=p2,
        p2_fraction=fraction,
        columns=cols,
        masks=masks,
        start_set=start,
        end_set=1,
        shear=1 if params.translation == DIAGONAL else 0,
        cell_bits=[1 << (j - 1) if 0 < j <= params.width else 0 for j in cols],
    )


# ---------------------------------------------------------------------------
# the three stages


def _stage1_plan(params: SearchParams, tables: SearchTables, n: int, lookahead: bool, extended: bool):
    """The geometry of stage1 for windows of n rows, which is the same at
    every level: per sampled row its window index (None before the
    sequence starts) and the shifts that place it and its mirror image,
    lifted so that at a column's frame position one shift and one mask
    yield the sample already in its lookup-index field."""
    ci = constraint_indices(params, n)
    st, lk = ci.star, ci.lookahead
    s = tables.shear
    # (row, lift) per lookup-index field; lift = the field's index bit
    # minus its read offset from pos: star's a3 (bit 3) and m3 (bit 0) are
    # read at pos+s-1, dbit (bit 6) at pos+s, e3 (bit 7) and f3 (bit 10)
    # at pos-1
    samples = [(st.above, 4 - s), (st.mid, 1 - s), (st.result, 6 - s), (lk.mid, 8), (lk.above, 11)]
    use_ll, use_p2 = filter_flags(params, lookahead, extended)
    if use_ll:
        # the two instances one row further out share their unknown
        # 5-windows only after reflecting them into a common orientation;
        # for glide with even k that flips all three sampled rows (and r3
        # then reads the reversed E, which is exactly the e3 sample)
        p, k = params.period, params.offset
        reflect = params.symmetry == GLIDE_REFLECT and k % 2 == 0
        # ll's a5 (bit 5) and b5 (bit 0) at pos-2, its r3 = e3 (bit 10)
        samples.append((RowRef(n - p - 2 * k, s, lk.above.reversed ^ reflect), 7))
        samples.append((RowRef(n - 2 * k, 0, lk.mid.reversed ^ reflect), 2))
        samples.append((lk.mid, 11))
    if use_p2:
        # p2's r2w (bit 0) and r1w (bit 5) at pos-2
        samples.append((RowRef(n - 2, 0), 2))
        samples.append((st.result, 7))
    # a mirror ghost is the reflection of the row's low 3 cells, so its
    # bit 0 sits w - 3 above that of the whole row's reflection
    ghost = params.width - 3 if params.mirrored else 0
    frames = []
    for ref, lift in samples:
        plain, mirror = frame_offsets(params, ref)
        frames.append(
            (
                ref.index if 0 <= ref.index < n else None,
                None if plain is None else plain + lift,
                None if mirror is None else mirror + lift + ghost,
            )
        )
    base = frame_base(params)
    columns = [(base + j, m) for j, m in zip(tables.columns, tables.masks)]
    return frames, columns, use_ll, use_p2


def stage1_edges(params: SearchParams, tables: SearchTables, rows, lookahead=True, extended=True):
    """64-bit edge mask per column: triple pairs of the new rows that pass
    every per-column check against the known rows."""
    key = (len(rows), lookahead, extended)
    plan = tables.plans.get(key)
    if plan is None:
        plan = tables.plans[key] = _stage1_plan(params, tables, *key)
    frames, columns, use_ll, use_p2 = plan
    ext = []
    for idx, plain, mirror in frames:
        if idx is None:
            ext.append(0)
        elif mirror is None:
            ext.append(rows[idx] << plain)
        elif plain is None:  # glide: the whole row enters reversed
            ext.append(reverse_row(rows[idx], params.width) << mirror)
        else:  # mirror symmetry: the row plus its ghost's 3 cells next to the axis
            row = rows[idx]
            ext.append(row << plain | _REV3[row & 7] << mirror)
    a, b, d, e, f = ext[:5]
    if use_ll:
        h, g, e_ll = ext[5:]
        ll = tables.ll
    if use_p2:
        g2, d_p2 = ext[5:]
        p2 = tables.p2

    star = tables.star_l if lookahead else tables.star_only
    out = []
    for pos, mask in columns:
        m = star[(b >> pos & 7) | (a >> pos & 0x38) | (d >> pos & 0x40) | (e >> pos & 0x380) | (f >> pos & 0x1C00)] & mask
        if use_ll and m:
            m &= _BCAST[ll[(g >> pos & 31) | (h >> pos & 0x3E0) | (e_ll >> pos & 0x1C00)]]
        if use_p2 and m:
            m &= p2[(g2 >> pos & 31) | (d_p2 >> pos & 0x3E0)]
        out.append(m)
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
    if not cur & tables.end_set:
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
    stack = [(len(edges) - 1, reach[-1] & tables.end_set, 0)]
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


def successors(params: SearchParams, tables: SearchTables, rows, lookahead=True, extended=True):
    """Candidate next rows for the partial sequence, sorted increasing.

    rows is the known sequence, oldest first; entries before it count as
    dead. Deeper history than 2p rows matters only to the extended
    filters (it widens what they can prune, never what they admit)."""
    edges = stage1_edges(params, tables, rows, lookahead, extended)
    reach = stage2_reach(params, tables, edges)
    if reach is None:
        return []
    return stage3_enumerate(params, tables, edges, reach)

"""Shared test fixtures: an independent set-of-cells evolver, known ships,
patterns from text art, construction of the interleaved row sequence a
search would walk and the check that it is consistent, the literal
successor filter without the ll and p2 tables, dead-row padding up to the
window successors() reads, the per-edge structural masks and a per-call
stage1 that the compiled ones are checked against, the vertex-set form of
stages 2 and 3 that the edge-passing pair is checked against, the
share of a table's entries pruned, the p2 table's backward closure as a
plain fixed-point loop, the star and p2 tables built over their whole
unfactored grids, the bench's modules and search
command lines, the one-state-at-a-time breadth-first expansion that
the bulk runs are checked against, and the one-root-at-a-time
deepening probe that the lockstep probe is checked against."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from shipsearch import cli
from shipsearch.oracle import frame_row, instance_holds, state_rows
from shipsearch.pattern import Pattern
from shipsearch.rules import evolution_table, parse_rule
from shipsearch.search import RUNNING, SearchConfig
from shipsearch.statespace import (
    DIAGONAL,
    EVEN_MIRROR,
    ODD_MIRROR,
    SearchParams,
    constraint_indices,
    edge_columns,
    filter_flags,
    fold_rows,
    frame_base,
    history,
    is_goal,
    reverse_row,
    state_key,
    transposition_insert,
)
from shipsearch.successor import (
    _edges_with_left_in,
    _edges_with_right_in,
    _evolve5_center3,
    _left_vertices,
    _masks_from_bits,
    _right_vertices,
    successors,
)

ROOT = Path(__file__).resolve().parents[1]

LWSS_CELLS = {(1, 0), (4, 0), (0, 1), (0, 2), (4, 2), (0, 3), (1, 3), (2, 3), (3, 3)}
GLIDER_CELLS = {(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)}


def from_text(text):
    """Build a pattern from '.'/'O' art (any non-'.' non-space char is live)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    width = max((len(ln) for ln in lines), default=0)
    rows = tuple(
        sum(1 << x for x, ch in enumerate(ln) if ch not in ". ") for ln in lines
    )
    return Pattern(rows, width)


def evolve_cells(rule, cells, generations):
    """Set-of-(x, y) evolver, the reference everything else is tested against."""
    out = [set(cells)]
    for _ in range(generations):
        cur = out[-1]
        counts = {}
        for (x, y) in cur:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if dx or dy:
                        counts[(x + dx, y + dy)] = counts.get((x + dx, y + dy), 0) + 1
        nxt = set()
        for pos, n in counts.items():
            if pos in cur:
                if n in rule.survive:
                    nxt.add(pos)
            elif n in rule.birth:
                nxt.add(pos)
        for pos in cur:
            if pos not in counts and 0 in rule.survive:
                nxt.add(pos)
        out.append(nxt)
    return out


def orient_upward(cells, period, want_dx, rule=None):
    """Rotate/flip a ship so one period displaces it by (want_dx, -k)."""
    from shipsearch.rules import parse_rule

    rule = rule or parse_rule("B3/S23")
    for flip_x in (False, True):
        for swap in (False, True):
            c = {(-x if flip_x else x, y) for (x, y) in cells}
            if swap:
                c = {(y, x) for (x, y) in c}
            for flip_y in (False, True):
                cc = {(x, -y if flip_y else y) for (x, y) in c}
                gens = evolve_cells(rule, cc, period)
                dxs = {a - b for (a, _), (b, _) in zip(sorted(gens[period]), sorted(cc))}
                dys = {a - b for (_, a), (_, b) in zip(sorted(gens[period]), sorted(cc))}
                if len(dxs) == 1 and len(dys) == 1:
                    (dx,), (dy,) = dxs, dys
                    if dy < 0 and dx == want_dx:
                        return cc
    raise AssertionError("no orientation matched")


def merged_sequence(params, gens, x0, y0, levels):
    """Stored rows r[0..levels) for a true evolution, per the statespace
    conventions: row i holds image row y(i) of generation t(i), sheared by
    y for diagonal translation and mirrored per row_orientation for glide."""
    w = params.width
    rows = []
    for i in range(levels):
        t, y = params.generation_of(i), params.image_row_of(i)
        shear = y if params.translation == DIAGONAL else 0
        row = 0
        for j in range(w):
            if (x0 + j + shear, y0 + y) in gens[t]:
                row |= 1 << j
        if params.row_orientation(i):
            row = reverse_row(row, w)
        rows.append(row)
    return rows


def is_consistent(params, rows):
    """Every fully-in-sequence forward instance holds, and no in-sequence
    strip evolves a live cell outside the searched width."""
    table = evolution_table(params.rule)
    for i in range(2 * params.period, len(rows)):
        inst = constraint_indices(params, i).star
        if not instance_holds(params, table, rows, inst):
            return False
    return True


def ship_sequence(params, cells, want_dx=0, pad_rows=3):
    """Embed a known ship as the merged row sequence for params, asserting
    the embedding fits the width. Returns the row list."""
    from shipsearch.statespace import GLIDE_REFLECT

    p = params.period
    # a glide ship only repeats after the mirrored half, so orientation and
    # the x-span are judged over the full period; the stored sequence still
    # samples generations below p, with reflection handled by row parity
    full = 2 * p if params.symmetry == GLIDE_REFLECT else p
    oriented = orient_upward(cells, full, want_dx, params.rule)
    gens = evolve_cells(params.rule, oriented, full)
    if params.translation == DIAGONAL:
        span = [x - y for t in range(full) for (x, y) in gens[t]]
    else:
        span = [x for t in range(full) for (x, _) in gens[t]]
    assert max(span) - min(span) + 1 <= params.width, "ship does not fit the width"
    ys = [y for t in range(p) for (_, y) in gens[t]]
    y0 = min(ys) - pad_rows
    x0 = min(span) + (y0 if params.translation == DIAGONAL else 0)
    levels = p * (max(ys) - min(ys) + 1 + 2 * pad_rows)
    return merged_sequence(params, gens, x0, y0, levels)


def brute_successors(params, rows, lookahead=True):
    """All candidate rows passing the constraint instances literally: the
    next constraint, and unless lookahead is off, the one after it for
    some lookahead row. Neither ll nor p2 applies."""
    table = evolution_table(params.rule)
    p, k, w = params.period, params.offset, params.width
    ci = constraint_indices(params, len(rows))
    out = []
    for c in range(1 << w):
        seq = rows + [c]
        if not instance_holds(params, table, seq, ci.star):
            continue
        if lookahead:
            pad = [0] * (p - k - 1)
            if not any(
                instance_holds(params, table, seq + pad + [lam], ci.lookahead)
                for lam in range(1 << w)
            ):
                continue
        out.append(c)
    return out


def padded(params, rows):
    """rows with dead rows in front up to history(params) rows: the same
    state, in the window successors() reads."""
    return [0] * (history(params) - len(rows)) + list(rows)


def reference_structural_masks(params):
    """Per edge column, every edge value tested cell by cell: each live
    cell of its C and L triples lies in the strip or the mirror ghost
    column, and at column 0 both triples agree with their reflection."""
    w = params.width
    s = 1 if params.translation == DIAGONAL else 0

    def may_live(col):
        return 0 <= col < w or (params.mirrored and col == -1)

    masks = []
    for j in edge_columns(params):
        m = 0
        for e in range(64):
            ct, lt = e & 7, e >> 3
            ok = all(may_live(j - 1 + b) for b in range(3) if ct >> b & 1)
            ok = ok and all(may_live(j - s - 1 + b) for b in range(3) if lt >> b & 1)
            if ok and j == 0:
                if params.symmetry == EVEN_MIRROR:
                    ok = (ct & 1) == (ct >> 1 & 1) and (lt & 1) == (lt >> 1 & 1)
                elif params.symmetry == ODD_MIRROR:
                    ok = (ct & 1) == (ct >> 2 & 1) and (lt & 1) == (lt >> 2 & 1)
            if ok:
                m |= 1 << e
        masks.append(m)
    return masks


def pruned_percent(table):
    """The share of a table's 64-bit entries' bits that are clear, in %."""
    return 100.0 - 100.0 * sum(e.bit_count() for e in table) / (64 * len(table))


def fixed_point_closure(valid):
    """successor._backward_closure the straightforward way: recompute
    every strip from the whole table until a pass changes nothing."""
    good = np.zeros((32, 32, 32), dtype=np.uint32)
    good[0, 0, 0] = 1
    while True:
        reach = (valid[:, None, :, :] & good[None, :, :, :]) != 0
        new = good | np.packbits(reach, axis=-1, bitorder="little").view(np.uint32)[..., 0]
        if np.array_equal(new, good):
            return good
        good = new


def reference_star_tables(rule):
    """successor._star_tables over the whole 8192 x 8 x 8 grid of entry,
    lt and ct: each entry's mask is the AND of both one-column checks
    worked out for every edge value at once."""
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
    return _masks_from_bits(full.reshape(8192, 64))


def reference_p2_table(rule):
    """successor._p2_table over the whole 32^4 grid of strips and
    appended rows, closed by fixed_point_closure: every append condition
    evaluated for every (s3, s1, s0, x), and every entry's outer cells
    tried one by one."""
    pop2 = np.array([0, 1, 1, 2], dtype=np.uint8)
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
    k0 = pop2[s3 & 3] + (((s1 >> 1) & 1).astype(np.uint8)) + pop2[x & 3]
    cond &= fe[k0, s1 & 1, s0 & 1]
    k4 = pop2[(s3 >> 3) & 3] + (((s1 >> 3) & 1).astype(np.uint8)) + pop2[(x >> 3) & 3]
    cond &= fe[k4, (s1 >> 4) & 1, (s0 >> 4) & 1]
    valid = np.packbits(cond, axis=-1, bitorder="little").view(np.uint32)[..., 0]

    good = fixed_point_closure(valid)
    good_bits = np.unpackbits(good.view(np.uint8).reshape(32, 32, 32, 4), axis=-1, bitorder="little")
    good_bits = good_bits.astype(bool)  # [r2w, r1w, c5, l5]

    outer = np.arange(4)
    t = np.arange(8)
    w5 = (outer[None, :] & 1) | (t[:, None] << 1) | ((outer[None, :] >> 1) << 4)  # (8, 4)
    ent = good_bits[:, :, w5[:, :, None, None], w5[None, None, :, :]]
    ent = ent.any(axis=(3, 5))  # [r2w, r1w, ct, lt]

    # entry index = r2w | r1w<<5, bit = ct | lt<<3
    bits = np.transpose(ent, (1, 0, 3, 2)).reshape(1024, 64)
    return _masks_from_bits(bits)


def reference_stage1_edges(params, tables, rows):
    """stage1_edges worked out afresh on every call: the constraint
    instances for len(rows), every sampled row framed in full, and each
    lookup index assembled column by column at its frame position."""
    ci = constraint_indices(params, len(rows))
    st, lk = ci.star, ci.lookahead
    base = frame_base(params)
    s = 1 if params.translation == DIAGONAL else 0

    def framed(ref):
        return frame_row(params, state_rows(rows, ref.index), ref)

    ext_a = framed(st.above)
    ext_b = framed(st.mid)
    ext_d = framed(st.result)
    ext_e = framed(lk.mid)
    ext_f = framed(lk.above)
    if ci.filter is not None:
        near, far = map(framed, ci.filter)
    use_ll, _ = filter_flags(params)

    out = []
    for n, j in enumerate(edge_columns(params)):
        pos = base + j
        m3 = (ext_b >> (pos + s - 1)) & 7
        a3 = (ext_a >> (pos + s - 1)) & 7
        dbit = (ext_d >> (pos + s)) & 1
        e3 = (ext_e >> (pos - 1)) & 7
        f3 = (ext_f >> (pos - 1)) & 7
        e = tables.star_l[m3 | a3 << 3 | dbit << 6 | e3 << 7 | f3 << 10] & tables.masks[n]
        if ci.filter is not None and e:
            # ll's b5, a5 and r3, or p2's r2w and r1w
            index = (near >> (pos - 2)) & 31 | ((far >> (pos - 2)) & 31) << 5
            e &= tables.filter[index | e3 << 10 if use_ll else index]
        out.append(e)
    return out


def reference_stage2_reach(params, tables, edges):
    """Forward vertex reachability: the reachable vertex set before each
    column and after the last; None as soon as it dies out."""
    cur = tables.start_set
    reach = [cur]
    for e in edges:
        act = e & _edges_with_left_in(cur)
        if not act:
            return None
        cur = _right_vertices(act)
        reach.append(cur)
    if not cur & 1:
        return None
    return reach


# edge masks by the leftmost C-track cell
_C0 = [0, 0]
for _e in range(64):
    _C0[_e & 1] |= 1 << _e


def reference_stage3_enumerate(params, tables, edges, reach):
    """All C rows on start-to-end paths, in increasing binary value, from
    reference_stage2_reach's vertex sets: every stack entry re-filters
    its column's edges by both neighbouring sets and pushes each C-cell
    branch, live first so that dead pops first."""
    w = params.width
    cols = edge_columns(params)
    n = len(edges)
    out = []
    stack = [(n - 1, reach[n] & 1, 0)]
    while stack:
        c, vset, acc = stack.pop()
        if c < 0:
            out.append(acc)
            continue
        act = edges[c] & _edges_with_right_in(vset) & _edges_with_left_in(reach[c])
        col = cols[c] - 1
        for bit in (1, 0):
            sub = act & _C0[bit]
            if sub:
                nacc = acc | (1 << col) if bit and 0 <= col < w else acc
                stack.append((c - 1, _left_vertices(sub), nacc))
    return out


def reference_row_count(tables, edges, reach):
    """How many rows reference_stage3_enumerate lists, counted over its
    (column, vertex set) states without listing them."""
    memo = {}

    def count(c, vset):
        if c < 0:
            return 1
        if (c, vset) not in memo:
            act = edges[c] & _edges_with_right_in(vset) & _edges_with_left_in(reach[c])
            memo[c, vset] = sum(count(c - 1, _left_vertices(act & m)) for m in _C0 if act & m)
        return memo[c, vset]

    return count(len(edges) - 1, reach[-1] & 1)


def bench_module(name):
    """bench/<name>.py, loaded without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def search_from_argv(argv):
    """The SearchParams and SearchConfig of a `shipsearch search` command
    line, as cli.cmd_search builds them (without progress lines)."""
    args = cli._build_parser().parse_args(argv)
    params = SearchParams(
        parse_rule(args.rule), args.period, args.offset, args.width, cli._SYMMETRIES[args.symmetry], args.translation
    )
    config = SearchConfig(args.node_capacity, args.max_deepening, args.continue_after_find)
    return params, config


def sequential_expand(search):
    """The breadth-first expansion of the queue head on its own, which
    _expand_head must match run for run: each successor row is added to
    the arena as a child of the head, a child that finishes a ship is
    recorded, and one whose ship ends the search ends the expansion with
    no tick; every other child is offered to the table, one at a time,
    and queued when fresh. A tick follows."""
    params, arena, queue = search.params, search.arena, search.queue
    idx = queue[0]
    queue.pop(1)
    search.status.states_expanded += 1
    for c in successors(params, search.tables, arena.rows_back(idx, search.hist)):
        child = arena.add(c, idx)
        if is_goal(params, arena, child):
            if search._record_ship(arena.all_rows(child)):
                return
            continue  # a finished ship only grows dead rows from here
        if transposition_insert(search.tt, state_key(params, arena, child), child)[0] == "fresh":
            queue.extend([child])
    search._tick()


def sequential_probe(search, root, limit):
    """The deepening probe of one root, run on its own: depth-first to
    the given level, True when some descendant is still alive at the
    limit. Its path lives in the arena, which each frame cuts back to
    its length before the frame's next child and which is back at its
    first length on return; ships are recorded as they are found, and a
    tick follows each frame pushed."""
    params, arena = search.params, search.arena

    def frame(idx, window):
        # the child step: count the expansion on the first child asked for
        search.status.states_expanded += 1
        w = params.width
        prefix = fold_rows(window[1 - 2 * params.period :], w) << w
        for c in successors(params, search.tables, window):
            child = arena.add(c, idx)
            key = prefix | c
            if not key and is_goal(params, arena, child):
                if search._record_ship(arena.all_rows(child)):
                    return
                continue
            yield child, key

    def push(idx, window):
        return frame(idx, window), len(arena), window

    start = len(arena)
    frames = [push(root, arena.rows_back(root, search.hist))]
    seen = {}
    while frames and search.status.outcome == RUNNING:
        children, mark, window = frames[-1]
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
        if prev is not None or len(seen) < search.config.node_capacity:
            seen[key] = level
        if level >= limit:
            arena.truncate(start)
            return True
        frames.append(push(child, [*window[1:], arena.rows[child]]))
        search._tick()
    arena.truncate(start)
    return False


def sequential_probes(search, roots, limit):
    """_dfs_probe's verdicts for roots, probing one root after another
    with sequential_probe: the list ends at a root whose ship ends the
    search."""
    keep = []
    for root in roots:
        keep.append(sequential_probe(search, root, limit))
        if search.status.outcome != RUNNING:
            break
    return keep

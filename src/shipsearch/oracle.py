"""Slow reference implementations used to cross-check the search.

Everything here favors directness over speed: candidate rows are tested
one at a time against the constraint instances with full-row evolution,
the extended filters are rebuilt from plain loops rather than packed
tables, and ships are found by evolving every seed in a small box.
Budgets stop an accidentally large call from hanging a test run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .pattern import Pattern, ShipDescriptor
from .rules import Rule, evolution_table, evolve_row_triple
from .statespace import (
    FRAME_MARGIN,
    Instance,
    RowRef,
    SearchParams,
    constraint_indices,
    edge_columns,
    filter_flags,
    frame_base,
    frame_offsets,
    reverse_row,
)


@dataclass(frozen=True)
class OracleBudget:
    """Hard size limits; the reference code is exponential on purpose."""

    max_width: int = 6
    max_seed_cells: int = 16
    max_period: int = 8


# ---------------------------------------------------------------------------
# reference successor enumeration


def frame_row(params: SearchParams, row: int, ref: RowRef | None = None) -> int:
    """Place a stored row into frame coordinates (frame bit = cell + base)
    after applying the reference's reversal and shear, extending mirror
    halves so evolution near the axis sees the reflected cells."""
    plain, mirror = frame_offsets(params, ref)
    out = row << plain if plain is not None else 0
    if mirror is not None:
        out |= reverse_row(row, params.width) << mirror
    return out


def state_rows(rows: list[int], index: int) -> int:
    """Row at a merged index, dead before the sequence starts."""
    return rows[index] if 0 <= index < len(rows) else 0


def instance_holds(params: SearchParams, table, rows, inst: Instance) -> bool:
    """Evaluate one instance over the frame: evolved inputs must equal the
    result row exactly, including every out-of-width position (the frame
    equality covers both the constraint and the boundary condition)."""
    fw = params.width * (2 if params.mirrored else 1) + 2 * FRAME_MARGIN
    a = frame_row(params, state_rows(rows, inst.above.index), inst.above)
    m = frame_row(params, state_rows(rows, inst.mid.index), inst.mid)
    b = frame_row(params, state_rows(rows, inst.below.index), inst.below)
    want = frame_row(params, state_rows(rows, inst.result.index), inst.result)
    return evolve_row_triple(table, a, m, b, fw) == want


@cache
def _ll_allowed(rule: Rule, a5: int, b5: int, r3: int) -> int:
    """Mask over the lookahead row's triples that leave both chained
    constraint instances satisfiable, by trying every joint window."""
    ev = evolution_table(rule)
    mask = 0
    for x5 in range(32):
        if (evolve_row_triple(ev, a5, b5, x5, 5) >> 1) & 7 != r3:
            continue
        for y5 in range(32):
            mask |= 1 << ((evolve_row_triple(ev, b5, x5, y5, 5) >> 1) & 7)
    return mask


@cache
def _strip_good(rule: Rule) -> np.ndarray:
    """Bool array over four stacked 5-wide row windows (oldest first):
    True when appending further rows can reach the all-dead strip, each
    append obeying the center evolution and leaving both boundary results
    achievable for some count of unseen outside neighbors."""
    ev = evolution_table(rule)

    fe = [[[False] * 2 for _ in range(2)] for _ in range(6)]
    for known in range(6):
        for mid in (0, 1):
            allowed = rule.survive if mid else rule.birth
            for out in range(4):
                fe[known][mid][1 if (known + out) in allowed else 0] = True

    rok = np.zeros((32, 32, 32), dtype=np.uint32)  # [above, mid, below] -> result set
    for a in range(32):
        for c in range(32):
            for x in range(32):
                c3 = (evolve_row_triple(ev, a, c, x, 5) >> 1) & 7
                k0 = (a & 1) + (a >> 1 & 1) + (c >> 1 & 1) + (x & 1) + (x >> 1 & 1)
                k4 = (a >> 3 & 1) + (a >> 4 & 1) + (c >> 3 & 1) + (x >> 3 & 1) + (x >> 4 & 1)
                m = 0
                for d0 in (0, 1):
                    if not fe[k0][c & 1][d0]:
                        continue
                    for d4 in (0, 1):
                        if fe[k4][c >> 4 & 1][d4]:
                            m |= 1 << (d0 | c3 << 1 | d4 << 4)
                rok[a, c, x] = m

    # cond[a, c, d, x]: row x may follow strip (a, b, c, d) for any b
    cond = ((rok[:, :, None, :] >> np.arange(32, dtype=np.uint32)[None, None, :, None]) & 1).astype(np.uint8)
    good = np.zeros((32, 32, 32, 32), dtype=np.uint8)
    good[0, 0, 0, 0] = 1
    while True:
        new = good | (np.einsum("acdx,bcdx->abcd", cond, good) > 0)
        if np.array_equal(new, good):
            break
        good = new
    return good.astype(bool)


@cache
def _p2_entry_ok(rule: Rule, r2w: int, r1w: int, ct: int, lt: int) -> bool:
    good = _strip_good(rule)
    return any(
        good[r2w, r1w, (co & 1) | ct << 1 | (co >> 1) << 4, (lo & 1) | lt << 1 | (lo >> 1) << 4]
        for co in range(4)
        for lo in range(4)
    )


def _filters_ok(params: SearchParams, rows, c: int, lam: int) -> bool:
    """Per-column extended checks for one candidate pair, sampled at the
    same frame positions the packed tables use."""
    ci = constraint_indices(params, len(rows))
    if ci.filter is None:
        return True
    rule = params.rule
    base = frame_base(params)
    near, far = (frame_row(params, state_rows(rows, ref.index), ref) for ref in ci.filter)
    ext_lam = frame_row(params, lam, ci.lookahead.below)
    use_ll, _ = filter_flags(params)
    if use_ll:
        lk = ci.lookahead
        ext_e = frame_row(params, state_rows(rows, lk.mid.index), lk.mid)
        for j in edge_columns(params):
            pos = base + j
            b5 = (near >> (pos - 2)) & 31
            a5 = (far >> (pos - 2)) & 31
            r3 = (ext_e >> (pos - 1)) & 7
            t3 = (ext_lam >> (pos - 1)) & 7
            if not _ll_allowed(rule, a5, b5, r3) >> t3 & 1:
                return False
        return True

    ext_c = frame_row(params, c)
    for j in edge_columns(params):
        pos = base + j
        r2w = (near >> (pos - 2)) & 31
        r1w = (far >> (pos - 2)) & 31
        ct = (ext_c >> (pos - 1)) & 7
        lt = (ext_lam >> (pos - 1)) & 7
        if not _p2_entry_ok(rule, r2w, r1w, ct, lt):
            return False
    return True


def oracle_successors(params: SearchParams, rows, budget: OracleBudget | None = None) -> list[int]:
    """Every admissible next row, by literal enumeration. Must agree
    exactly with successor.successors for the same arguments."""
    budget = budget or OracleBudget()
    if params.width > budget.max_width:
        raise ValueError(f"oracle is limited to width {budget.max_width}")
    p, k, w = params.period, params.offset, params.width
    table = evolution_table(params.rule)
    ci = constraint_indices(params, len(rows))
    pad = [0] * (p - k - 1)
    out = []
    for c in range(1 << w):
        seq = rows + [c]
        if not instance_holds(params, table, seq, ci.star):
            continue
        for lam in range(1 << w):
            if not instance_holds(params, table, seq + pad + [lam], ci.lookahead):
                continue
            if _filters_ok(params, rows, c, lam):
                out.append(c)
                break
    return out


# ---------------------------------------------------------------------------
# reference ship search


_NEIGHBORS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)]


def _step_cells(rule: Rule, cells: frozenset) -> frozenset:
    counts: dict[tuple[int, int], int] = {}
    for (x, y) in cells:
        for dx, dy in _NEIGHBORS:
            pos = (x + dx, y + dy)
            counts[pos] = counts.get(pos, 0) + 1
    new = set()
    for pos, n in counts.items():
        if n in (rule.survive if pos in cells else rule.birth):
            new.add(pos)
    if 0 in rule.survive:
        new.update(pos for pos in cells if pos not in counts)
    return frozenset(new)


def _normalize(cells: frozenset) -> tuple:
    x0 = min(x for x, _ in cells)
    y0 = min(y for _, y in cells)
    return tuple(sorted((x - x0, y - y0) for x, y in cells))


_TRANSFORMS = [
    lambda x, y: (x, y),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (-x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, x),
    lambda x, y: (y, -x),
    lambda x, y: (-y, -x),
]


def _orbit_key(rule: Rule, cells: frozenset, period: int) -> tuple:
    """Canonical form of a ship's whole orbit under the grid symmetries,
    so one ship found in many seeds, phases or orientations counts once."""
    keys = []
    cur = cells
    for _ in range(period):
        for tf in _TRANSFORMS:
            keys.append(_normalize(frozenset(tf(x, y) for x, y in cur)))
        cur = _step_cells(rule, cur)
    return min(keys)


def _cells_to_pattern(cells: frozenset) -> Pattern:
    x0 = min(x for x, _ in cells)
    y0 = min(y for _, y in cells)
    w = max(x for x, _ in cells) - x0 + 1
    h = max(y for _, y in cells) - y0 + 1
    rows = [0] * h
    for x, y in cells:
        rows[y - y0] |= 1 << (x - x0)
    return Pattern(tuple(rows), w)


def oracle_ship_search(
    rule: Rule,
    bounds: tuple[int, int],
    max_period: int,
    budget: OracleBudget | None = None,
) -> list[tuple[Pattern, ShipDescriptor]]:
    """All spaceships (up to grid symmetry and phase) whose seed fits the
    bounds box, found by evolving every seed and watching for a shifted
    recurrence. Each entry is the seed pattern and its motion."""
    budget = budget or OracleBudget()
    w, h = bounds
    if w * h > budget.max_seed_cells:
        raise ValueError(f"oracle seed box is limited to {budget.max_seed_cells} cells")
    if max_period > budget.max_period:
        raise ValueError(f"oracle periods are limited to {budget.max_period}")

    found = []
    seen = set()
    for seed in range(1, 1 << (w * h)):
        cells = frozenset((n % w, n // w) for n in range(w * h) if seed >> n & 1)
        ref = _normalize(cells)
        cur = cells
        for t in range(1, max_period + 1):
            cur = _step_cells(rule, cur)
            if not cur:
                break
            if len(cur) == len(cells) and _normalize(cur) == ref:
                dx = min(x for x, _ in cur) - min(x for x, _ in cells)
                dy = min(y for _, y in cur) - min(y for _, y in cells)
                if (dx, dy) != (0, 0):
                    key = _orbit_key(rule, cells, t)
                    if key not in seen:
                        seen.add(key)
                        found.append((_cells_to_pattern(cells), ShipDescriptor(t, dx, dy)))
                break
    return found
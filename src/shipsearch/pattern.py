"""Finite patterns, RLE I/O, a bounded-grid evolver, and ship verification.

A Pattern stores one bitmask per row (bit x = column x). The evolver pads
one dead border cell per generation and trims afterwards, so patterns live
on an unbounded dead background. classify_ship is the independent check
applied to every search result before it is reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .rules import Rule, evolution_table, evolve_row_triple, format_rule, parse_rule


@dataclass(frozen=True)
class Pattern:
    rows: tuple[int, ...] = ()
    width: int = 0

    @property
    def height(self) -> int:
        return len(self.rows)

    def is_empty(self) -> bool:
        return all(r == 0 for r in self.rows)

    def population(self) -> int:
        return sum(bin(r).count("1") for r in self.rows)

    def trim(self) -> "Pattern":
        """Drop dead border rows/columns (offsets discarded)."""
        return self.trim_tracked()[0]

    def trim_tracked(self) -> tuple["Pattern", int, int]:
        """Trim, also returning the (x, y) offset of the kept box."""
        live = [y for y, r in enumerate(self.rows) if r]
        if not live:
            return Pattern(), 0, 0
        top = live[0]
        rows = self.rows[top : live[-1] + 1]
        left = min((r & -r).bit_length() - 1 for r in rows if r)
        width = max(r.bit_length() for r in rows) - left
        return Pattern(tuple(r >> left for r in rows), width), left, top

    def __str__(self) -> str:
        return "\n".join(
            "".join("O" if (row >> x) & 1 else "." for x in range(self.width))
            for row in self.rows
        )


_HEADER_RE = re.compile(
    r"^x\s*=\s*(\d+)\s*,\s*y\s*=\s*(\d+)\s*(?:,\s*rule\s*=\s*(\S+)\s*)?$",
    re.IGNORECASE,
)


def parse_rle(text: str) -> tuple[Pattern, Rule | None]:
    """Parse run-length-encoded pattern text.

    Grammar: optional '#' comment lines, a header 'x = W, y = H[, rule = R]',
    then runs of 'b' (dead), 'o' (live) and '$' (row end) closed by '!'.
    """
    lines = text.splitlines()
    pos = 0
    while pos < len(lines) and (lines[pos].startswith("#") or not lines[pos].strip()):
        pos += 1
    if pos >= len(lines):
        raise ValueError("RLE is missing its x/y header line")
    m = _HEADER_RE.match(lines[pos].strip())
    if m is None:
        raise ValueError(f"RLE is missing its x/y header line (got {lines[pos]!r})")
    width, height = int(m.group(1)), int(m.group(2))
    if height > 2**20 or width * height > 2**26:  # checked before any row is built
        raise ValueError(f"RLE extents x = {width}, y = {height} exceed 2**20 rows or 2**26 cells")
    rule = parse_rule(m.group(3)) if m.group(3) else None

    body = "".join(lines[pos + 1 :])
    rows = [0] * height
    x = y = 0
    run = ""
    done = False
    for ch in body:
        if ch.isspace():
            continue
        if ch.isdigit():
            run += ch
            continue
        count = int(run) if run else 1
        run = ""
        if ch == "!":
            done = True
            break
        if ch == "$":
            y += count
            x = 0
            continue
        if ch in "bo":
            if y >= height or x + count > width:
                raise ValueError("RLE body exceeds the declared extents")
            if ch == "o":
                rows[y] |= ((1 << count) - 1) << x
            x += count
            continue
        raise ValueError(f"unexpected character {ch!r} in RLE body")
    if not done:
        raise ValueError("RLE body is not terminated by '!'")
    return Pattern(tuple(rows), width), rule


def emit_rle(pattern: Pattern, rule: Rule) -> str:
    """Canonical RLE: trimmed, run-coalesced, lines wrapped at 70 chars."""
    p = pattern.trim()
    tokens = []
    pending_rows = 0
    for row in p.rows:
        if row == 0:
            pending_rows += 1
            continue
        if tokens:
            pending_rows += 1
            tokens.append("$" if pending_rows == 1 else f"{pending_rows}$")
        pending_rows = 0
        x = 0
        while x < p.width:
            bit = (row >> x) & 1
            n = 1
            while x + n < p.width and ((row >> (x + n)) & 1) == bit:
                n += 1
            if bit == 0 and x + n >= p.width:
                break  # trailing dead cells are implicit
            tag = "o" if bit else "b"
            tokens.append(tag if n == 1 else f"{n}{tag}")
            x += n
    tokens.append("!")

    lines = [f"x = {p.width}, y = {p.height}, rule = {format_rule(rule)}"]
    cur = ""
    for tok in tokens:
        if len(cur) + len(tok) > 70:
            lines.append(cur)
            cur = ""
        cur += tok
    lines.append(cur)
    return "\n".join(lines)


def _evolve_step(table, pattern: Pattern) -> tuple[Pattern, int, int]:
    """One generation on a grid padded by one cell; returns trim offsets."""
    w = pattern.width + 2
    padded = [0] + [r << 1 for r in pattern.rows] + [0]
    out = []
    for y in range(len(padded)):
        above = padded[y - 1] if y > 0 else 0
        below = padded[y + 1] if y + 1 < len(padded) else 0
        out.append(evolve_row_triple(table, above, padded[y], below, w))
    trimmed, left, top = Pattern(tuple(out), w).trim_tracked()
    return trimmed, left - 1, top - 1


def evolve_pattern(rule: Rule, pattern: Pattern, generations: int) -> Pattern:
    table = evolution_table(rule)
    cur = pattern.trim()
    for _ in range(generations):
        cur, _, _ = _evolve_step(table, cur)
    return cur


@dataclass(frozen=True)
class ShipDescriptor:
    period: int
    dx: int
    dy: int

    @property
    def speed(self) -> tuple[int, int]:
        return (max(abs(self.dx), abs(self.dy)), self.period)

    @property
    def slope(self) -> Fraction | None:
        """Rational dy/dx, or None for purely vertical motion."""
        if self.dx == 0:
            return None
        return Fraction(self.dy, self.dx)

    def speed_text(self) -> str:
        def fmt(n, d):
            return f"c/{d}" if n == 1 else f"{n}c/{d}"

        num, per = self.speed
        reduced = Fraction(num, per)
        full = fmt(num, per)
        short = fmt(reduced.numerator, reduced.denominator)
        return full if full == short else f"{full} = {short}"


def first_recurrence(rule: Rule, pattern: Pattern, max_period: int) -> tuple[int, int, int] | None:
    """(generation, dx, dy) of the first generation 1..max_period at which
    the trimmed pattern recurs, displaced by (dx, dy); None for an empty or
    dying pattern, or one that does not recur that soon. A pattern that
    recurs displaced never recurs in place and vice versa, so the first
    recurrence tells ships from oscillators."""
    table = evolution_table(rule)
    start, _, _ = pattern.trim_tracked()
    cur, x, y = start, 0, 0
    for gen in range(1, max_period + 1):
        if cur.is_empty():
            return None
        cur, dx, dy = _evolve_step(table, cur)
        x += dx
        y += dy
        if cur == start:
            return gen, x, y
    return None


def classify_ship(rule: Rule, pattern: Pattern, max_period: int) -> ShipDescriptor | None:
    """Smallest period p <= max_period at which the trimmed pattern recurs
    displaced by a nonzero amount. Oscillators, dying patterns and patterns
    that do not recur within max_period report None.
    """
    found = first_recurrence(rule, pattern, max_period)
    if found is None or found[1:] == (0, 0):
        return None
    return ShipDescriptor(*found)

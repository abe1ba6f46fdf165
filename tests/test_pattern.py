"""Pattern model, RLE I/O, evolution, and ship classification."""

import pytest
from hypothesis import given, settings, strategies as st

from shipsearch.pattern import (
    Pattern,
    ShipDescriptor,
    classify_ship,
    emit_rle,
    evolve_pattern,
    first_recurrence,
    parse_rle,
)
from shipsearch.rules import parse_rule

from helpers import from_text

LIFE = parse_rule("B3/S23")

GLIDER = from_text(
    """
    .O.
    ..O
    OOO
    """
)

LWSS = from_text(
    """
    .O..O
    O....
    O...O
    OOOO.
    """
)

BLINKER = from_text("OOO")
BLOCK = from_text("OO\nOO")


def patterns_st(max_width=20, max_height=20):
    return st.builds(
        lambda rows: Pattern(tuple(rows), max_width),
        st.lists(st.integers(0, 2**max_width - 1), min_size=0, max_size=max_height),
    )


class TestParseRle:
    def test_single_cell(self):
        p, rule = parse_rle("x = 1, y = 1\no!")
        assert rule is None
        assert p == Pattern((1,), 1)

    def test_run_and_rule(self):
        p, rule = parse_rle("x = 3, y = 1, rule = B3/S23\n3o!")
        assert rule == LIFE
        assert p == Pattern((0b111,), 3)

    def test_block(self):
        p, _ = parse_rle("x = 2, y = 2\n2o$2o!")
        assert p == Pattern((0b11, 0b11), 2)

    def test_comments_and_padding(self):
        p, _ = parse_rle("#C a comment\nx = 3, y = 2\nbo$o!")
        assert p == Pattern((0b010, 0b001), 3)

    def test_multirow_dollar_run(self):
        p, _ = parse_rle("x = 1, y = 3\no2$o!")
        assert p == Pattern((1, 0, 1), 1)

    def test_empty(self):
        p, _ = parse_rle("x = 0, y = 0\n!")
        assert p.is_empty()

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_rle("3o!")

    def test_width_overflow(self):
        with pytest.raises(ValueError, match="extents"):
            parse_rle("x = 2, y = 1\n3o!")

    def test_height_overflow(self):
        with pytest.raises(ValueError, match="extents"):
            parse_rle("x = 1, y = 1\no$o!")

    @pytest.mark.parametrize(
        "header", ["x = 3, y = 1000000000000000000000000000000", "x = 3, y = 1048577", "x = 65537, y = 1024"]
    )
    def test_oversized_extents_refused(self, header):
        with pytest.raises(ValueError, match="extents"):
            parse_rle(header + "\nbo$2bo$3o!")

    def test_extents_at_the_limits(self):
        assert parse_rle("x = 3, y = 1048576\nbo$2bo$3o!")[0].trim().rows == (2, 4, 7)
        assert parse_rle("x = 65536, y = 1024\n3o!")[0].rows[0] == 7

    def test_missing_bang(self):
        with pytest.raises(ValueError, match="!"):
            parse_rle("x = 1, y = 1\no")

    def test_bad_rule(self):
        with pytest.raises(ValueError):
            parse_rle("x = 1, y = 1, rule = B9/S\no!")


class TestEmitRle:
    def test_block(self):
        assert emit_rle(BLOCK, LIFE) == "x = 2, y = 2, rule = B3/S23\n2o$2o!"

    def test_empty(self):
        assert emit_rle(Pattern(), LIFE) == "x = 0, y = 0, rule = B3/S23\n!"

    def test_trims_before_emitting(self):
        padded = Pattern((0, 0b0110, 0b0110, 0), 4)
        assert emit_rle(padded, LIFE) == "x = 2, y = 2, rule = B3/S23\n2o$2o!"

    def test_blank_row_run(self):
        p = Pattern((1, 0, 0, 1), 1)
        assert emit_rle(p, LIFE) == "x = 1, y = 4, rule = B3/S23\no3$o!"

    @given(patterns_st())
    def test_round_trip(self, p):
        text = emit_rle(p, LIFE)
        back, rule = parse_rle(text)
        assert rule == LIFE
        assert back.trim() == p.trim()

    @given(patterns_st(max_width=64, max_height=64))
    @settings(max_examples=25)
    def test_round_trip_wide(self, p):
        back, _ = parse_rle(emit_rle(p, LIFE))
        assert back.trim() == p.trim()

    @given(patterns_st(max_width=64, max_height=64))
    @settings(max_examples=25)
    def test_line_length_bound(self, p):
        assert all(len(line) <= 70 for line in emit_rle(p, LIFE).splitlines())


class TestTrim:
    def test_tallest_header_one_cell(self):
        # the tallest height parse_rle accepts, one live cell mid-way: a
        # trim that drops dead rows one at a time from the front takes
        # minutes here
        y = 1 << 20
        rows = [0] * y
        rows[y // 2] = 1 << 5
        assert Pattern(tuple(rows), 8).trim_tracked() == (Pattern((1,), 1), 5, y // 2)

    def test_dead_pattern(self):
        assert Pattern((0, 0, 0), 4).trim_tracked() == (Pattern(), 0, 0)

    @given(patterns_st())
    def test_offsets_place_the_trimmed_box(self, p):
        trimmed, left, top = p.trim_tracked()
        cells = {(x, y) for y, r in enumerate(p.rows) for x in range(p.width) if r >> x & 1}
        kept = {(x + left, y + top) for y, r in enumerate(trimmed.rows) for x in range(trimmed.width) if r >> x & 1}
        assert kept == cells
        if cells:  # the box is tight: each edge holds a live cell
            xs, ys = {x for x, _ in cells}, {y for _, y in cells}
            assert (left, top, trimmed.width, trimmed.height) == (min(xs), min(ys), max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)


class TestEvolve:
    def test_blinker_flips(self):
        assert evolve_pattern(LIFE, BLINKER, 1) == Pattern((1, 1, 1), 1)

    def test_blinker_period_two(self):
        assert evolve_pattern(LIFE, BLINKER, 2) == BLINKER.trim()

    def test_block_still(self):
        assert evolve_pattern(LIFE, BLOCK, 7) == BLOCK

    def test_empty_stays_empty(self):
        assert evolve_pattern(LIFE, Pattern(), 3) == Pattern()

    def test_zero_generations_trims_only(self):
        padded = Pattern((0, 0b010, 0), 3)
        assert evolve_pattern(LIFE, padded, 0) == Pattern((1,), 1)


class TestClassifyShip:
    def test_blinker_is_not_a_ship(self):
        assert classify_ship(LIFE, BLINKER, 4) is None
        assert first_recurrence(LIFE, BLINKER, 4) == (2, 0, 0)

    def test_block_is_not_a_ship(self):
        assert classify_ship(LIFE, BLOCK, 4) is None
        assert first_recurrence(LIFE, BLOCK, 4) == (1, 0, 0)

    def test_dying_pattern(self):
        assert classify_ship(LIFE, from_text("O"), 4) is None
        assert first_recurrence(LIFE, from_text("O"), 4) is None

    def test_glider(self):
        d = classify_ship(LIFE, GLIDER, 4)
        assert d is not None
        assert d.period == 4
        assert abs(d.dx) == 1 and abs(d.dy) == 1
        assert d.speed == (1, 4)
        assert d.speed_text() == "c/4"

    def test_lwss(self):
        d = classify_ship(LIFE, LWSS, 4)
        assert d is not None
        assert d.period == 4
        assert abs(d.dx) == 2 and d.dy == 0
        assert d.speed == (2, 4)
        assert d.speed_text() == "2c/4 = c/2"
        assert d.slope == 0

    def test_period_is_smallest(self):
        # the glider recurs at 8 as well; 4 must be reported
        assert classify_ship(LIFE, GLIDER, 8).period == 4

    def test_max_period_too_small(self):
        assert classify_ship(LIFE, GLIDER, 3) is None

    def test_classify_evolve_consistency(self):
        for p in (GLIDER, LWSS):
            d = classify_ship(LIFE, p, 4)
            assert evolve_pattern(LIFE, p, d.period) == p.trim()

    def test_slope_vertical(self):
        assert ShipDescriptor(3, 0, 1).slope is None
        assert ShipDescriptor(4, 1, 1).slope == 1

"""Command-line frontend: run searches, verify patterns, report table stats.

Results (RLE) go to standard output or --output; the banner, progress
lines and the final outcome go to stderr, so stdout stays pipeable.
Exit codes: 0 ship found / pattern is a ship, 1 search exhausted or the
pattern is not a ship, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .pattern import ShipDescriptor, emit_rle, first_recurrence, parse_rle
from .rules import format_rule, parse_rule
from .search import SearchConfig, run_search
from .statespace import (
    ASYMMETRIC,
    DIAGONAL,
    EVEN_MIRROR,
    GLIDE_REFLECT,
    ODD_MIRROR,
    ORTHOGONAL,
    SearchParams,
    debruijn_size,
    filter_flags,
)
from .successor import build_tables

_SYMMETRIES = {
    "none": ASYMMETRIC,
    "even": EVEN_MIRROR,
    "odd": ODD_MIRROR,
    "glide": GLIDE_REFLECT,
}

PROGRESS_EVERY = 10_000  # expansions between progress lines


def banner_text(params: SearchParams) -> str:
    return (
        f"rule {format_rule(params.rule)}, period {params.period}, "
        f"offset {params.offset}, width {params.width}, "
        f"{params.symmetry}, {params.translation}, "
        f"state space <= 2^{debruijn_size(params)}"
    )


def progress_line(status) -> str:
    return (
        f"progress: width {status.current_width} level {status.frontier_level} "
        f"limit {status.deepening_limit} arena {status.nodes_in_arena} "
        f"expanded {status.states_expanded}"
    )


def ship_text(ship, desc: ShipDescriptor, rule) -> str:
    """A found ship as a #C line with its speed, then its RLE."""
    comment = f"#C period {desc.period}, dx {desc.dx}, dy {desc.dy}, speed {desc.speed_text()}"
    return comment + "\n" + emit_rle(ship, rule) + "\n"


def bad_input(message) -> int:
    """Report a usage or input error; its exit code."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_search(args) -> int:
    try:
        params = SearchParams(
            rule=parse_rule(args.rule), period=args.period, offset=args.offset, width=args.width,
            symmetry=_SYMMETRIES[args.symmetry], translation=args.translation,
        )
        config = SearchConfig(
            node_capacity=args.node_capacity, max_deepening=args.max_deepening,
            continue_after_find=args.continue_after_find, progress_interval=0 if args.quiet else PROGRESS_EVERY,
        )
        config.check(params)
        # opened first, so that an unwritable path fails before the search
        output = open(args.output, "w") if args.output else nullcontext(sys.stdout)
    except (ValueError, OSError) as exc:
        return bad_input(exc)

    def report(status):
        print(progress_line(status), file=sys.stderr)

    with output as out:
        print(banner_text(params), file=sys.stderr)
        result = run_search(params, config, progress=None if args.quiet else report)
        if not args.quiet:
            print(f"search ended: {result.status.outcome}", file=sys.stderr)
        out.write("\n".join(ship_text(ship, desc, params.rule) for ship, desc in result.ships))
    return 0 if result.ships else 1


def cmd_verify(args) -> int:
    if args.max_period < 1:
        return bad_input("--max-period must be at least 1")
    try:
        with open(args.file) as fh:
            pattern, file_rule = parse_rle(fh.read())
        rule = parse_rule(args.rule) if args.rule else file_rule
    except (ValueError, OSError) as exc:
        return bad_input(exc)
    if rule is None:
        return bad_input("the file has no rule header; pass --rule")

    if pattern.trim().is_empty():
        print("not a spaceship (empty)")
        return 1
    found = first_recurrence(rule, pattern, args.max_period)
    if found is None:
        print(f"not a spaceship (no recurrence within {args.max_period} generations)")
        return 1
    period, dx, dy = found
    if (dx, dy) == (0, 0):
        print("not a spaceship (still life)" if period == 1 else f"not a spaceship (oscillator, period {period})")
        return 1
    desc = ShipDescriptor(period, dx, dy)
    line = f"period {desc.period}, dx {desc.dx}, dy {desc.dy}, speed {desc.speed_text()}"
    if desc.slope is not None:
        line += f", slope {desc.slope}"
    print(line)
    return 0


def cmd_stats(args) -> int:
    if args.period < 2:
        return bad_input("--period must be at least 2")
    # neither offset nor width enters the per-rule tables (width only the
    # per-column masks), so any legal values serve for a stats run
    try:
        params = SearchParams(rule=parse_rule(args.rule), period=args.period, offset=1, width=4)
    except ValueError as exc:
        return bad_input(exc)
    tables = build_tables(params)
    use_ll, use_p2 = filter_flags(params)

    def density(entries, bits) -> float:
        return 100.0 * sum(e.bit_count() for e in entries) / (len(entries) * bits)

    print(f"rule {format_rule(params.rule)}, period {params.period}")
    print(f"edge table density: {density(tables.star_l, 64):.1f}%")
    if use_p2:
        print(f"pair strip table density: {density(tables.filter, 64):.1f}%")
        print(f"pruned: {100.0 - density(tables.filter, 64):.1f}%")
    if use_ll:
        print(f"lookahead chain table density: {density(tables.filter, 64):.1f}%")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shipsearch",
        description="search for spaceships in outer-totalistic cellular automata",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    search = sub.add_parser("search", help="run a ship search")
    search.add_argument("--rule", required=True, help="rule string, e.g. B3/S23")
    search.add_argument("--period", type=int, required=True, help="ship period p")
    search.add_argument("--offset", type=int, required=True, help="rows moved per period k")
    search.add_argument("--width", type=int, required=True, help="searched strip width (half-width under mirror symmetry)")
    search.add_argument("--symmetry", choices=sorted(_SYMMETRIES), default="none")
    search.add_argument("--translation", choices=(ORTHOGONAL, DIAGONAL), default=ORTHOGONAL)
    search.add_argument("--node-capacity", type=int, default=SearchConfig.node_capacity,
                        help="most nodes in the search tree; deepening rounds and compaction start when "
                        "it fills (4p to 2**31)")
    search.add_argument("--max-deepening", type=int, default=None,
                        help="narrow the strip when deepening outruns the frontier by this many rows")
    search.add_argument("--continue", dest="continue_after_find", action="store_true",
                        help="keep searching after the first ship; at most one ship per pre-goal state "
                        "is recorded until a compaction resets the duplicate table, so the ships "
                        "found can depend on --node-capacity")
    search.add_argument("--output", "-o", help="write RLE here instead of stdout")
    search.add_argument("--quiet", "-q", action="store_true", help="suppress progress lines")
    search.set_defaults(func=cmd_search)

    verify = sub.add_parser("verify", help="classify an RLE pattern")
    verify.add_argument("file", help="RLE file to check")
    verify.add_argument("--rule", help="override the file's rule header")
    verify.add_argument("--max-period", type=int, default=32)
    verify.set_defaults(func=cmd_verify)

    stats = sub.add_parser("stats", help="report constraint-table statistics")
    stats.add_argument("--rule", required=True)
    stats.add_argument("--period", type=int, default=2)
    stats.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. Only its input checks exit 2 (bad input); a
    later exception is a fault of the program and keeps its traceback."""
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Survey period-2 pair-table prune rates across random rules.

The pair table is the p=2 replacement for the lookahead chain: how much
it prunes varies wildly by rule, from most of the table down to nothing
at all. This scan samples random outer-totalistic rules, reports the
extremes, and lists any rules whose table prunes nothing (B25/S1458 in
the default sample, pinned in the CLI tests).

Usage: python3 scripts/scan_prune_rates.py [--rules N] [--seed S]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shipsearch.rules import parse_rule
from shipsearch.statespace import SearchParams
from shipsearch.successor import build_tables


# the rules random_rule_string can draw: a nonempty birth set, any survive set
DISTINCT_RULES = 255 * 512


def random_rule_string(rng: random.Random) -> str:
    birth = [d for d in range(1, 9) if rng.random() < 0.45]
    survive = [d for d in range(0, 9) if rng.random() < 0.45]
    if not birth:
        birth = [rng.randint(1, 8)]
    return "B" + "".join(map(str, birth)) + "/S" + "".join(map(str, survive))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rules", type=int, default=100, help="sample size")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if args.rules < 1:
        print("error: --rules must be at least 1", file=sys.stderr)
        return 2
    if args.rules > DISTINCT_RULES:
        print(f"error: --rules must be at most {DISTINCT_RULES}, the number of distinct rules", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    rows = []
    seen = set()
    while len(rows) < args.rules:
        rs = random_rule_string(rng)
        if rs in seen:
            continue
        seen.add(rs)
        table = build_tables(SearchParams(parse_rule(rs), 2, 1, 4)).filter  # the pair table
        fraction = 1.0 - sum(e.bit_count() for e in table) / (64 * len(table))
        rows.append((fraction, rs))

    rows.sort()
    print(f"{len(rows)} rules sampled")
    print("\nleast pruning:")
    for fraction, rs in rows[:5]:
        print(f"  {rs:24s} {100 * fraction:6.2f}%")
    print("\nmost pruning:")
    for fraction, rs in rows[-5:]:
        print(f"  {rs:24s} {100 * fraction:6.2f}%")
    zero = [rs for fraction, rs in rows if fraction == 0.0]
    if zero:
        print(f"\nnothing pruned at all: {', '.join(zero)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

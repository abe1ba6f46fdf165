#!/usr/bin/env python3
"""Profiles for the famous long searches. Documentation, not CI.

Each profile below rediscovers a known hard ship when given enough time:
hours for the narrower ones, CPU-weeks for the c/5. They are recorded
here so the parameters are not lost, and so someone with a spare machine
can launch one deliberately; nothing in the test suite depends on them.

    python3 scripts/long_searches.py --list
    python3 scripts/long_searches.py --run weekender [--capacity 2**26]

Memory grows with --capacity. The search tree, its duplicate table and
the queue take about 30 bytes a node at the weekender's 126-bit state
keys. On a 2-core x86-64 VM (Python 3.11, NumPy 2.4; 30 MB of imports),
the weekender filled its tree to 2^22 nodes in 1.5 s, peaking at 174 MB
resident (ru_maxrss), and to 2^24 nodes in 7.0 s, peaking at 524 MB,
31 bytes a node. Stopped 120 s into its first deepening round, 21M
expansions in, the 2^24 run had peaked at 830 MB, the probes' own tables
of the states they met included (each is freed when its probe ends).
That is about 50 bytes a node, so the default --capacity 2**26 needs
about 3.3 GB, more the longer a round runs. A 2^22 run stopped the same
way peaked at 305 MB, 73 bytes a node, as the imports and the probes'
tables weigh more against a smaller tree.

The test suites cover the same machinery at desk scale (small Life
ships, the turtle, oracle sweeps), which is why these stay optional.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shipsearch.cli import banner_text, progress_line, ship_text
from shipsearch.rules import parse_rule
from shipsearch.search import SearchConfig, run_search
from shipsearch.statespace import ASYMMETRIC, EVEN_MIRROR, ODD_MIRROR, SearchParams

PROFILES = {
    # 2c/7 orthogonal in Life, mirror-symmetric, effective width 9
    "weekender": ("B3/S23", 7, 2, 9, EVEN_MIRROR, "hours to days"),
    # c/6 orthogonal in Life, asymmetric and wide
    "dragon": ("B3/S23", 6, 1, 8, ASYMMETRIC, "days"),
    # c/7 orthogonal in the diamoeba rule
    "diamoeba-c7": ("B35678/S5678", 7, 1, 8, ODD_MIRROR, "days"),
    # c/5 orthogonal in Life; the original hunt burned ~38 CPU-weeks
    "coe-c5": ("B3/S23", 5, 1, 12, EVEN_MIRROR, "weeks"),
}


def list_profiles() -> None:
    for name, (rule, p, k, w, sym, eta) in PROFILES.items():
        params = SearchParams(parse_rule(rule), p, k, w, sym)
        print(f"{name:12s} {banner_text(params)}  (~{eta})")


def run_profile(name: str, capacity: int) -> int:
    rule, p, k, w, sym, _ = PROFILES[name]
    try:
        params = SearchParams(parse_rule(rule), p, k, w, sym)
        config = SearchConfig(node_capacity=capacity, max_deepening=6 * p, progress_interval=200_000)
        config.check(params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(banner_text(params), file=sys.stderr)
    started = time.time()

    def report(status):
        print(f"[{time.time() - started:9.0f}s] {progress_line(status)}", file=sys.stderr)

    result = run_search(params, config, progress=report)
    print(f"outcome: {result.status.outcome}", file=sys.stderr)
    for ship, desc in result.ships:
        print(ship_text(ship, desc, params.rule), end="")
    return 0 if result.ships else 1


def _capacity(text: str) -> int:
    if text.startswith("2**"):
        return 1 << int(text[3:])
    return int(text)


def main() -> int:
    parser = argparse.ArgumentParser(description="long-running search profiles")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true", help="show the profiles")
    group.add_argument("--run", choices=sorted(PROFILES), help="launch one (be patient)")
    parser.add_argument("--capacity", type=_capacity, default=1 << 26,
                        help="node arena capacity, e.g. 67108864 or 2**26")
    args = parser.parse_args()
    if args.list:
        list_profiles()
        return 0
    return run_profile(args.run, args.capacity)


if __name__ == "__main__":
    sys.exit(main())

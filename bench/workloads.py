"""The benchmark's fixed searches.

Each workload is one `shipsearch search` command line plus what a correct
run must produce. The reasons for choosing each one are in README.md.
`reference` holds the deterministic counts recorded when the workload was
defined; a run that repeats them exactly is running the same search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

SHIP_FOUND = "ship_found"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class Workload:
    name: str
    rule: str
    period: int
    offset: int
    width: int
    symmetry: str = "none"  # the CLI's --symmetry spelling
    translation: str = "orthogonal"
    node_capacity: int | None = None
    max_deepening: int | None = None
    continue_after_find: bool = False
    exit_code: int = 0
    outcome: str = SHIP_FOUND
    min_ships: int = 0
    reference: dict = field(default_factory=dict)

    @property
    def speed(self) -> Fraction:
        return Fraction(self.offset, self.period)

    def argv(self) -> list[str]:
        out = [
            "search",
            "--rule", self.rule,
            "--period", str(self.period),
            "--offset", str(self.offset),
            "--width", str(self.width),
            "--symmetry", self.symmetry,
            "--translation", self.translation,
        ]
        if self.node_capacity is not None:
            out += ["--node-capacity", str(self.node_capacity)]
        if self.max_deepening is not None:
            out += ["--max-deepening", str(self.max_deepening)]
        if self.continue_after_find:
            out.append("--continue")
        return out


def _counts(states_expanded, ships_found, outcome, dfs_rounds=0, compactions=0, narrowings=0):
    return {
        "states_expanded": states_expanded,
        "ships_found": ships_found,
        "outcome": outcome,
        "dfs_rounds": dfs_rounds,
        "compactions": compactions,
        "narrowings": narrowings,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "life-c4-even-w7-exhaust", "B3/S23", 4, 1, 7, "even",
            exit_code=1, outcome=EXHAUSTED,
            reference=_counts(230937, 0, EXHAUSTED),
        ),
        Workload(
            "life-c2-odd-w13-find", "B3/S23", 2, 1, 13, "odd",
            min_ships=1,
            reference=_counts(54510, 1, SHIP_FOUND),
        ),
        Workload(
            "life-c3-even-w10-deepen", "B3/S23", 3, 1, 10, "even",
            node_capacity=1024, max_deepening=6, continue_after_find=True,
            outcome=EXHAUSTED, min_ships=1,
            reference=_counts(86602, 7, EXHAUSTED, 77, 82, 5),
        ),
    )
}

# Shortened versions of the workloads for `run.py --check`: the same
# filters and search paths (exhaustion, the p2 filter, a first ship, and
# deepening with compaction and narrowing) in well under a second each.
QUICK = {
    w.name: w
    for w in (
        Workload(
            "quick-c4-even-w5-exhaust", "B3/S23", 4, 1, 5, "even",
            exit_code=1, outcome=EXHAUSTED,
            reference=_counts(3158, 0, EXHAUSTED),
        ),
        Workload(
            "quick-c2-odd-w10-exhaust", "B3/S23", 2, 1, 10, "odd",
            exit_code=1, outcome=EXHAUSTED,
            reference=_counts(2840, 0, EXHAUSTED),
        ),
        Workload(
            "quick-c2-glide-w5-find", "B3/S23", 2, 1, 5, "glide",
            min_ships=1,
            reference=_counts(78, 1, SHIP_FOUND),
        ),
        Workload(
            "quick-c3-even-w6-deepen", "B3/S23", 3, 1, 6, "even",
            node_capacity=256, max_deepening=6, continue_after_find=True,
            outcome=EXHAUSTED, min_ships=1,
            reference=_counts(4358, 1, EXHAUSTED, 17, 19, 2),
        ),
    )
}

# Searches whose successors() calls were recorded into windows.json for
# the replay metrics: the three workloads plus the README's glide and
# diagonal examples, so every stage1 geometry has a per-window figure.
REPLAY_SOURCES = {
    "c4-even-w7": WORKLOADS["life-c4-even-w7-exhaust"],
    "c2-odd-w13": WORKLOADS["life-c2-odd-w13-find"],
    "c3-even-w10": WORKLOADS["life-c3-even-w10-deepen"],
    "c2-glide-w5": Workload("readme-c2-glide-w5", "B3/S23", 2, 1, 5, "glide"),
    "c4-diagonal-w4": Workload("readme-c4-diagonal-w4", "B3/S23", 4, 1, 4, translation="diagonal"),
}

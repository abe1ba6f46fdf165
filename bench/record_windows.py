#!/usr/bin/env python3
"""Regenerate windows.json, the successor windows the replay metrics use.

Runs each search in workloads.REPLAY_SOURCES to its end with successors()
wrapped, and keeps an evenly spaced sample of the windows it was called on
together with the rows it returned. The replay checks that those rows come
back unchanged, so rerun this only when a change is meant to alter them.

    python3 bench/record_windows.py
"""

from __future__ import annotations

import json
import sys

import worker
from shipsearch import search as search_mod
from workloads import REPLAY_SOURCES

KEEP = 1000  # windows per source


def record(wl) -> dict:
    calls = []
    original = search_mod.successors

    def recording(params, tables, rows, *args):
        out = original(params, tables, rows, *args)
        calls.append((params.width, list(rows), out))
        return out

    search_mod.successors = recording
    try:
        search_mod.run_search(worker.search_params(wl), worker.search_config(wl))
    finally:
        search_mod.successors = original
    step = max(1, len(calls) // KEEP)
    kept = calls[::step][:KEEP]
    return {
        "argv": wl.argv(),
        "calls": len(calls),
        "widths": [w for w, _, _ in kept],  # narrowing changes the width mid-search
        "windows": [r for _, r, _ in kept],
        "successors": [s for _, _, s in kept],
    }


def main() -> int:
    recorded = {}
    for src, wl in REPLAY_SOURCES.items():
        recorded[src] = record(wl)
        print(f"{src}: kept {len(recorded[src]['windows'])} of {recorded[src]['calls']} windows", file=sys.stderr)
    (worker.BENCH / "windows.json").write_text(json.dumps(recorded, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into shipsearch, recorded from outside the package.

A Tracer replaces named functions and methods with wrappers that record
one span per call: the span's name, its start and end (perf_counter_ns)
and the span that was open when it started. The spans stay in compact
arrays until the run ends, then are summed per name into call counts,
total time and self time (a span's time minus that of its child spans).

A target that no longer exists (a later change renamed or deleted it) is
skipped and listed in `missing`, so the metrics built on it can be
reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (span name, defining module, attribute path inside it)
SEARCH_TARGETS = (
    ("run_search", "shipsearch.search", "run_search"),
    ("Search.__init__", "shipsearch.search", "Search.__init__"),
    ("_expand_head", "shipsearch.search", "_expand_head"),
    ("dfs_round", "shipsearch.search", "dfs_round"),
    ("_dfs_probe", "shipsearch.search", "_dfs_probe"),
    ("compact", "shipsearch.search", "compact"),
    ("reduce_width", "shipsearch.search", "reduce_width"),
)
SUCCESSOR_TARGETS = (
    ("build_tables", "shipsearch.successor", "build_tables"),
    ("successors", "shipsearch.successor", "successors"),
    ("stage1_edges", "shipsearch.successor", "stage1_edges"),
    ("stage2_reach", "shipsearch.successor", "stage2_reach"),
    ("stage3_enumerate", "shipsearch.successor", "stage3_enumerate"),
)
STATESPACE_TARGETS = (
    ("make_initial_state", "shipsearch.statespace", "make_initial_state"),
    ("state_key", "shipsearch.statespace", "state_key"),
    ("is_goal", "shipsearch.statespace", "is_goal"),
    ("extract_ship", "shipsearch.statespace", "extract_ship"),
    ("transposition_insert", "shipsearch.statespace", "transposition_insert"),
    ("TranspositionTable.__init__", "shipsearch.statespace", "TranspositionTable.__init__"),
    ("NodeArena.add", "shipsearch.statespace", "NodeArena.add"),
    ("NodeArena.rows_back", "shipsearch.statespace", "NodeArena.rows_back"),
    ("NodeArena.all_rows", "shipsearch.statespace", "NodeArena.all_rows"),
)
PATTERN_TARGETS = (
    ("classify_ship", "shipsearch.pattern", "classify_ship"),
    ("emit_rle", "shipsearch.pattern", "emit_rle"),
)
ALL_TARGETS = SEARCH_TARGETS + SUCCESSOR_TARGETS + STATESPACE_TARGETS + PATTERN_TARGETS

# Search-loop functions called at most a few hundred times per search.
# Spans on these alone give the deterministic counts of an untraced run at
# no measurable cost.
COUNT_TARGETS = tuple(t for t in SEARCH_TARGETS if t[0] in ("run_search", "dfs_round", "compact", "reduce_width"))


class Tracer:
    """Records spans for the targets it installs, until uninstall()."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, targets, on_result=None) -> None:
        """Wrap every target that exists. on_result maps a span name to a
        callback that receives the wrapped call's return value."""
        on_result = on_result or {}
        for name, module_name, path in targets:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.missing.append(name)
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, on_result.get(name))
            if owner is module:
                # other modules hold the function under the same name
                # through `from .x import f`; rebind those references too
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "shipsearch" and getattr(mod, attr, None) is original:
                        self._set(mod, attr, wrapper)
            else:
                self._set(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, on_result):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.name_ids)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        ids = np.frombuffer(self.name_ids, dtype=np.uint16)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_t = np.bincount(ids, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": total[i] / 1e9, "self_s": self_t[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
        )

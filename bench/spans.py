"""Per-layer spans, timed from outside the package.

`Tracer` replaces each public entroscope function, at every module attribute
a caller looks it up by, with a wrapper that records a span (name, start,
end, parent) in memory, then restores the originals on exit. Work counters
are computed afterwards from the arguments the wrappers kept, so the counting
itself is never inside a span.

Spans recorded in forked pool workers stay in the workers, so a traced sweep
must run serially.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# span name -> (module, attribute) pairs the callers look the function up by.
# A pair whose attribute no longer exists is skipped, and a span with no pair
# left is reported as absent rather than as zero.
WRAPPED = {
    "cli_report.run": (("cli_report", "run"),),
    "ingest.load_table": (("cli_report", "load_table"), ("ingest", "load_table")),
    "quantize.bin_channel": (("sweep", "bin_channel"), ("cli_report", "bin_channel"),
                             ("quantize", "bin_channel")),
    "sweep.run_sweep": (("sweep", "run_sweep"), ("cli_report", "run_sweep")),
    "sweep.sensitivity": (("cli_report", "sensitivity"),),
    "chowliu.build_tree": (("sweep", "build_tree"), ("chowliu", "build_tree")),
    "chowliu.support_count": (("chowliu", "tree_support_count"),),
    "chowliu.shannon": (("chowliu", "tree_shannon"),),
    "chowliu.power_sum": (("chowliu", "tree_power_sum"),),
    "chowliu.max_prob": (("chowliu", "tree_max_prob"),),
    "entropy.joint_direct": (("chowliu", "joint_direct"),),
    "dependence.matrix": (("cli_report", "dependence_matrix"),),
    "guesswork.table": (("cli_report", "guesswork_table"),),
    "cli_report.emit": (("cli_report", "emit"),),
}

# spans that also report their call count
COUNTED = ("ingest.load_table", "quantize.bin_channel", "chowliu.build_tree",
           "sweep.run_sweep")
# spans that also report their self time, under these metric names; a
# cli_report.run span covers a whole CLI step, so it reports self time only
SELF_TIME = {"sweep.run_sweep": "sweep.self_s", "cli_report.run": "cli_report.self_s"}
BUSY_TIME_EXCLUDED = ("cli_report.run",)

# ∏ bin counts above this sends tree_support_count down its Python big-int
# path at the commit this benchmark was written against
INT64_SAFE = 2 ** 62


class Tracer:
    """Context manager that records spans for every call made inside it."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        # span name -> (span index, args, result) of each call that returned
        self.kept: dict[str, list] = defaultdict(list)
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            self.kept[name].append((idx, args, out))
            return out
        return wrapper

    def __enter__(self):
        for name, sites in WRAPPED.items():
            for mod_name, attr in sites:
                module = importlib.import_module(f"entroscope.{mod_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
                self.installed.add(name)
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _under(self, idx: int, ancestor: str) -> bool:
        parent = self.spans[idx][3]
        while parent is not None:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def metrics(self) -> dict[str, float | int]:
        """Busy time and work counters of one traced repetition."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), self_s in zip(self.spans, self.self_times()):
            busy[name] += end - start
            calls[name] += 1
            own[name] += self_s

        out: dict[str, float | int] = {}
        for name in sorted(self.installed):
            if name not in BUSY_TIME_EXCLUDED:
                out[f"{name}_s"] = busy[name]
            if name in COUNTED:
                out[f"{name}_calls"] = calls[name]
            if name in SELF_TIME:
                out[SELF_TIME[name]] = own[name]
        if "cli_report.emit" in self.installed:
            out["cli_report.report_bytes"] = sum(
                len(data) for _, _, data in self.kept["cli_report.emit"])
        if "ingest.load_table" in self.installed:
            out["ingest.cells_parsed"] = self._cells_parsed()
        if "chowliu.build_tree" in self.installed:
            out.update(self._pair_counters())
        if "chowliu.support_count" in self.installed:
            out["chowliu.bigint_trees"] = sum(
                math.prod(args[0].bin_counts.values()) > INT64_SAFE
                for _, args, _ in self.kept["chowliu.support_count"])
        if "chowliu.max_prob" in self.installed:
            out["chowliu.conditional_rows"] = sum(
                int(cond.parent_bins.size)
                for _, args, _ in self.kept["chowliu.max_prob"]
                for cond in args[0].conditionals.values())
        return out

    def _cells_parsed(self) -> int:
        """Data cells read: data lines of each manifest file times its columns."""
        lines: dict[Path, int] = {}
        total = 0
        for _, args, _ in self.kept["ingest.load_table"]:
            manifest, root = args[0], Path(args[1])
            for fs in manifest.files:
                path = root / fs.path
                if path not in lines:
                    with open(path, "rb") as fh:
                        lines[path] = sum(1 for _ in fh) - 1  # minus the header
                total += lines[path] * len(fs.columns)
        return total

    def _pair_counters(self) -> dict[str, int]:
        """Pair MI evaluations in the sweeps' trees, and distinct (pair, mask) keys.

        A tree over k channels evaluates all k(k-1)/2 pairs on the rows
        complete across its subset; a pair cache keyed by (pair, mask) could
        serve every evaluation beyond the first of each key.
        """
        evals = 0
        keys: set[tuple[str, str, bytes]] = set()
        digests: dict[tuple[int, ...], bytes] = {}
        for idx, args, _ in self.kept["chowliu.build_tree"]:
            if not self._under(idx, "sweep.run_sweep"):
                continue
            channels = args[0]
            ident = tuple(id(ch.codes) for ch in channels)
            if ident not in digests:
                mask = np.logical_and.reduce([ch.codes >= 0 for ch in channels])
                digests[ident] = hashlib.blake2b(
                    np.packbits(mask).tobytes(), digest_size=16).digest()
            names = sorted(ch.name for ch in channels)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    evals += 1
                    keys.add((a, b, digests[ident]))
        return {"chowliu.pair_evals": evals, "chowliu.distinct_pair_masks": len(keys)}

    def records(self, t0: float) -> list[dict]:
        """Spans as JSON-ready dicts, times in seconds since t0."""
        return [
            {"id": i, "name": name, "start": start - t0, "end": end - t0,
             "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]

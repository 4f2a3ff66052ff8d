"""Exhaustive sensor-subset sweeps, min-entropy ranking, bin sensitivity.

Subsets stream in canonical order (size ascending, then lexicographic over
channel positions), every channel is binned once and shared, every pair is
counted once on the rows complete in every channel, each subset counts only
the other rows it keeps and merges them in, and results are keyed by subset
position so the output is identical no matter how many workers ran or in
what order they finished.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import sys
import time
from dataclasses import dataclass

import numpy as np

from .chowliu import PairStats, build_tree, tree_profile
from .entropy import EntropyProfile, profile
from .errors import DataError, EntroscopeError
from .ingest import SampleTable
from .quantize import BinnedChannel, bin_channel, pmf_of

# per-channel cap for joint analyses; width rules past this rebin equal-width
MAX_JOINT_BINS = 2048
# geometric default grid between the endpoints used in practice
DEFAULT_GRID = (5, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class SubsetResult:
    subset: tuple[str, ...]
    size: int
    profile: EntropyProfile
    gap: float  # h1 - hmin
    method: str  # "chowliu" (direct lives in chowliu.validate)

    def __post_init__(self):
        if self.size != len(self.subset) or self.size < 2:
            raise DataError("subset result needs size == len(subset) >= 2")
        if self.gap < -1e-9:
            raise DataError("gap cannot be negative")


@dataclass(frozen=True, eq=False)
class SensitivityCurve:
    subset: tuple[str, ...]
    points: tuple[tuple[int, EntropyProfile], ...]
    markers: tuple[float, float]  # mean FD and Scott bin counts over the subset


def enumerate_subsets(channels, min_size: int = 2, max_size: int | None = None):
    """Stream channel-name tuples, size ascending then lexicographic."""
    names = list(channels)
    n = len(names)
    if max_size is None:
        max_size = n
    if not (2 <= min_size <= max_size <= n):
        raise DataError(
            f"need 2 <= min_size <= max_size <= {n}, got {min_size}..{max_size}"
        )
    for size in range(min_size, max_size + 1):
        yield from itertools.combinations(names, size)


# shared state for forked workers: the sweep's binned channels and their pair
# counts on the rows complete in all of them; set immediately before the pool
# starts and cleared when the sweep returns
_SHARED: PairStats | None = None


def _profile_subset(item):
    idx, subset = item
    try:
        chans = [_SHARED.channels[name] for name in subset]
        prof = tree_profile(build_tree(chans, _SHARED))
        return idx, "ok", prof
    except EntroscopeError as exc:
        return idx, "err", str(exc)


def _run_tasks(tasks, workers: int) -> dict[int, tuple[str, object]]:
    """Profile every (index, subset) task, serially or in a fork pool."""
    outcomes: dict[int, tuple[str, object]] = {}
    started = time.monotonic()
    done = 0
    report_every = max(1, len(tasks) // 10)

    def note_progress():
        if done % report_every == 0 or done == len(tasks):
            elapsed = time.monotonic() - started
            eta = elapsed / done * (len(tasks) - done) if done else 0.0
            print(
                f"sweep: {done}/{len(tasks)} subsets, {elapsed:.1f}s elapsed, "
                f"~{eta:.0f}s left",
                file=sys.stderr,
            )

    if workers == 1 or len(tasks) <= 1:
        for item in tasks:
            idx, status, value = _profile_subset(item)
            outcomes[idx] = (status, value)
            done += 1
            note_progress()
    else:
        ctx = multiprocessing.get_context("fork")
        chunk = max(1, len(tasks) // (workers * 4))
        with ctx.Pool(processes=workers) as pool:
            for idx, status, value in pool.imap(_profile_subset, tasks, chunk):
                outcomes[idx] = (status, value)
                done += 1
                note_progress()

    return outcomes


def run_sweep(table: SampleTable, rule, min_size: int = 2,
              max_size: int | None = None, workers: int = 1,
              errors: list | None = None) -> list[SubsetResult]:
    """Chow-Liu joint profile for every channel subset in the size range.

    Per-subset failures never abort the sweep; they are appended to the
    errors list (if given) as (subset, message) and skipped in the output.
    """
    if workers < 1:
        raise DataError("workers must be positive")
    names = list(table.channels)
    if max_size is None:
        max_size = len(names)

    binned: dict[str, BinnedChannel] = {}
    bin_failures: dict[str, str] = {}
    for name in names:
        try:
            binned[name] = bin_channel(
                table.column(name), rule, name=name, max_bins=MAX_JOINT_BINS
            )
        except EntroscopeError as exc:
            bin_failures[name] = str(exc)

    subsets = list(enumerate_subsets(names, min_size, max_size))
    tasks: list[tuple[int, tuple[str, ...]]] = []
    failed: dict[int, str] = {}
    for idx, subset in enumerate(subsets):
        bad = [c for c in subset if c in bin_failures]
        if bad:
            failed[idx] = f"channel {bad[0]!r} not binned: {bin_failures[bad[0]]}"
        else:
            tasks.append((idx, subset))

    global _SHARED
    _SHARED = PairStats(list(binned.values()))
    try:
        # every pair lies in some subset of every size, so counting them all up
        # front wastes nothing, and forked workers inherit the counts instead
        # of each counting the pairs it needs
        _SHARED.count_all()
        outcomes = _run_tasks(tasks, workers)
    finally:
        _SHARED = None

    results: list[SubsetResult] = []
    for idx, subset in enumerate(subsets):
        if idx in failed:
            if errors is not None:
                errors.append((subset, failed[idx]))
            continue
        status, value = outcomes[idx]
        if status == "err":
            if errors is not None:
                errors.append((subset, value))
            continue
        prof = value
        results.append(SubsetResult(
            subset=subset,
            size=len(subset),
            profile=prof,
            gap=prof.h1 - prof.hmin,
            method="chowliu",
        ))
    return results


def top_k(results: list[SubsetResult], k: int) -> list[SubsetResult]:
    """Rank by falling hmin, ties by larger h1, then input (canonical) order."""
    if not results:
        raise DataError("no results to rank")
    if k < 1:
        raise DataError("k must be positive")
    ranked = sorted(results, key=lambda r: (-r.profile.hmin, -r.profile.h1))
    return ranked[:k]


def size_means(results: list[SubsetResult]) -> list[tuple[int, int, EntropyProfile]]:
    """Per-size (size, subset count, mean profile) over all subsets of a size."""
    if not results:
        raise DataError("no results to average")
    by_size: dict[int, list[EntropyProfile]] = {}
    for r in results:
        by_size.setdefault(r.size, []).append(r.profile)
    out = []
    for size in sorted(by_size):
        profs = by_size[size]
        n = len(profs)
        out.append((size, n, EntropyProfile(
            h0=math.fsum(p.h0 for p in profs) / n,
            h1=math.fsum(p.h1 for p in profs) / n,
            h2=math.fsum(p.h2 for p in profs) / n,
            hmin=math.fsum(p.hmin for p in profs) / n,
        )))
    return out


def sensitivity(table: SampleTable, subset, grid=DEFAULT_GRID) -> SensitivityCurve:
    """Joint profile of one subset re-binned at each fixed bin count.

    Markers are the FD- and Scott-selected bin counts averaged over the
    subset channels, for placing the rule choices on the curve.
    """
    subset = tuple(subset)
    if not subset:
        raise DataError("empty subset")
    grid = [int(g) for g in grid]
    if any(g < 2 for g in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DataError("grid must be strictly increasing counts of at least 2")

    points = []
    for count in grid:
        chans = [
            bin_channel(table.column(name), count, name=name) for name in subset
        ]
        if len(chans) == 1:
            prof = profile(pmf_of(chans[0].codes))
        else:
            prof = tree_profile(build_tree(chans))
        points.append((count, prof))

    fd_counts = []
    scott_counts = []
    for name in subset:
        col = table.column(name)
        fd_counts.append(bin_channel(col, "fd", name=name).spec.bin_count)
        scott_counts.append(bin_channel(col, "scott", name=name).spec.bin_count)
    markers = (
        float(np.mean(fd_counts)),
        float(np.mean(scott_counts)),
    )
    return SensitivityCurve(subset, tuple(points), markers)

"""Exhaustive sensor-subset sweeps, min-entropy ranking, bin sensitivity.

Subsets enumerate in canonical order (size ascending, then lexicographic
over channel positions), every channel is binned once and shared, and the
sweep's PairStats counts every pair once, on the rows complete in every
channel, before any fit. The subsets that keep the same other rows have the
same row set (PairStats.row_set), so PairStats.over gives them one
PairStats: the sweep's own for the subsets that keep no other row, every
subset of a table without gaps, else a child over the row set, one per
chunk. A subset with a channel that could not be binned is answered before
any fit. Chunks run row set by row set, each in canonical order, one chunk
per row set serially and smaller ones from a fork pool's in-order imap, and
every outcome goes back to its canonical position, so the output is
identical no matter how many workers ran or in what order they finished.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
import sys
import time
from dataclasses import dataclass

import numpy as np

from .chowliu import PairStats, build_tree, tree_profile
from .entropy import EntropyProfile, joint_direct, profile_joint
from .errors import DataError, EntroscopeError
from .ingest import SampleTable
from .quantize import BinnedChannel, _binning_spec, _finite_values, bin_channel

# per-channel cap for joint analyses; width rules past this rebin equal-width
MAX_JOINT_BINS = 2048
# geometric default grid between the endpoints used in practice
DEFAULT_GRID = (5, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class SubsetResult:
    """Chow-Liu joint profile of one channel subset."""

    subset: tuple[str, ...]
    profile: EntropyProfile

    @property
    def size(self) -> int:
        return len(self.subset)

    @property
    def gap(self) -> float:
        """h1 - hmin: how far Shannon entropy overstates the worst case; at
        least 0, though the two orders may round an ulp out of order."""
        return max(0.0, self.profile.h1 - self.profile.hmin)


@dataclass(frozen=True, eq=False)
class SensitivityCurve:
    subset: tuple[str, ...]
    points: tuple[tuple[int, EntropyProfile], ...]
    markers: tuple[float, float]  # mean FD and Scott bin counts over the subset


def _size_range(n: int, min_size: int, max_size: int | None) -> range:
    """The subset sizes min_size..max_size (default n) of n channels."""
    if max_size is None:
        max_size = n
    if not (2 <= min_size <= max_size <= n):
        raise DataError(
            f"need 2 <= min_size <= max_size <= {n}, got {min_size}..{max_size}"
        )
    return range(min_size, max_size + 1)


def enumerate_subsets(channels, min_size: int = 2, max_size: int | None = None):
    """Stream channel-name tuples, size ascending then lexicographic."""
    names = list(channels)
    for size in _size_range(len(names), min_size, max_size):
        yield from itertools.combinations(names, size)


# shared state for forked workers: the sweep's binned channels with their pair
# counts on the rows complete in all of them; set immediately before the pool
# starts and cleared when the sweep returns
_SHARED: PairStats | None = None


def _profile_chunk(subsets):
    """(profile, None) for each of the subsets, which share one row set, or
    (None, reason) when it fails, all fitted on _SHARED.over(the first)."""
    stats = _SHARED.over(subsets[0])
    outcomes = []
    for subset in subsets:
        try:
            model = build_tree([_SHARED.channels[name] for name in subset], stats)
            outcomes.append((tree_profile(model), None))
        except EntroscopeError as exc:
            outcomes.append((None, str(exc)))
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
    _size_range(len(table.channels), min_size, max_size)  # before any binning
    binned: list[BinnedChannel] = []
    unbinned: dict[str, str] = {}
    for name in table.channels:
        try:
            binned.append(bin_channel(
                table.column(name), rule, name=name, max_bins=MAX_JOINT_BINS
            ))
        except EntroscopeError as exc:
            unbinned[name] = str(exc)
    subsets = list(enumerate_subsets(table.channels, min_size, max_size))
    total = len(subsets)
    report_every = max(1, total // 10)
    outcomes: list = [None] * total
    done = 0

    def finished(i: int, outcome) -> None:
        nonlocal done
        outcomes[i] = outcome
        done += 1
        if done % report_every == 0 or done == total:
            elapsed = time.monotonic() - started
            eta = elapsed / done * (total - done)
            print(f"sweep: {done}/{total} subsets, {elapsed:.1f}s elapsed, "
                  f"~{eta:.0f}s left", file=sys.stderr)

    global _SHARED
    _SHARED = PairStats(binned)
    try:
        started = time.monotonic()
        # the subsets that keep the same rows, by row set in order of first
        # appearance, each in canonical order; one with an unbinned channel is
        # answered here
        groups: dict[tuple[str, ...] | None, list[int]] = {}
        for i, subset in enumerate(subsets):
            name = next((name for name in subset if name in unbinned), None)
            if name is None:
                groups.setdefault(_SHARED.row_set(subset), []).append(i)
            else:
                finished(i, (None, f"channel {name!r} not binned: {unbinned[name]}"))
        pool = workers > 1 and total - done > 1
        size = max(1, total // (workers * 4)) if pool else total
        chunks = [members[at:at + size] for members in groups.values()
                  for at in range(0, len(members), size)]
        tasks = [[subsets[i] for i in members] for members in chunks]
        with contextlib.ExitStack() as stack:
            if pool:
                ctx = multiprocessing.get_context("fork")
                # imap yields in input order, whatever order workers finish in
                done_in_order = stack.enter_context(
                    ctx.Pool(processes=workers)).imap(_profile_chunk, tasks)
            else:
                done_in_order = map(_profile_chunk, tasks)
            for members, chunk in zip(chunks, done_in_order):
                for i, outcome in zip(members, chunk):
                    finished(i, outcome)
    finally:
        _SHARED = None
    results: list[SubsetResult] = []
    for subset, (prof, reason) in zip(subsets, outcomes):
        if reason is None:
            results.append(SubsetResult(subset, prof))
        elif errors is not None:
            errors.append((subset, reason))
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
    subset channels, for placing the rule choices on the curve; each count
    is capped at MAX_JOINT_BINS, as in every sweep.
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
            prof = profile_joint(joint_direct(chans))
        else:
            prof = tree_profile(build_tree(chans))
        points.append((count, prof))

    fd_counts = []
    scott_counts = []
    for name in subset:
        v = _finite_values(table.column(name))
        fd_counts.append(_binning_spec(v, "fd", name, MAX_JOINT_BINS).bin_count)
        scott_counts.append(_binning_spec(v, "scott", name, MAX_JOINT_BINS).bin_count)
    markers = (
        float(np.mean(fd_counts)),
        float(np.mean(scott_counts)),
    )
    return SensitivityCurve(subset, tuple(points), markers)

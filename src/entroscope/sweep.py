"""Exhaustive sensor-subset sweeps, min-entropy ranking, bin sensitivity.

Subsets enumerate in canonical order (size ascending, then lexicographic
over channel positions), every channel is binned once and shared, and the
sweep's PairStats counts every pair once, on the rows complete in every
channel, before any fit. The subsets that keep the same other rows have the
same row set (PairStats.row_set), so PairStats.over gives them one
PairStats: the sweep's own for the subsets that keep no other row, every
subset of a table without gaps, else a child over the row set. A subset
with a channel that could not be binned is answered before any fit. The
rest are grouped by row set in order of first appearance, each group in
canonical order, and that grouped order is cut into one contiguous range
per worker, of about equal channel totals, so each process keeps its own
message-cache hits. A range is a flat list of subsets, fitted in order by
_profile, which moves to over(subset) of the PairStats it holds: each run
of one row set shares one child. The calling process fits the first
range; one forked child per other range fits it on the PairStats it
inherits and pickles its outcomes back over a pipe. Every child is reaped
before the sweep returns or raises, and one that exits non-zero or dies by
a signal fails the sweep. Outcomes are kept by subset and read in
canonical order, so the output is identical no matter how many workers ran.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .chowliu import PairStats, build_tree, tree_profile
from .entropy import EntropyProfile, joint_direct, profile_joint
from .errors import DataError, DegenerateSpreadError, EntroscopeError
from .ingest import SampleTable
from .quantize import bin_channel, bin_table, binning_spec

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
    # mean FD and Scott bin counts over the subset, NaN where a rule fails
    markers: tuple[float, float]


def enumerate_subsets(channels, min_size: int = 2, max_size: int | None = None):
    """Stream channel-name tuples, size ascending then lexicographic."""
    names = list(channels)
    if max_size is None:
        max_size = len(names)
    if not (2 <= min_size <= max_size <= len(names)):
        raise DataError(f"need 2 <= min_size <= max_size <= {len(names)}, "
                        f"got {min_size}..{max_size}")
    for size in range(min_size, max_size + 1):
        yield from itertools.combinations(names, size)


def _profile(stats: PairStats, subsets):
    """Yield (profile, None) for each of the subsets, in order, or
    (None, reason) when it fails, each fitted on over(it) of the PairStats
    the one before was fitted on, so a run of one row set shares a child."""
    over = stats
    for subset in subsets:
        over = over.over(subset)
        try:
            model = build_tree([stats.channels[name] for name in subset], over)
            outcome = tree_profile(model), None
        except EntroscopeError as exc:
            outcome = None, str(exc)
        yield outcome


def _ranges(grouped, workers: int):
    """The grouped order cut into `workers` contiguous ranges of about equal
    channel totals: a subset goes to the range in which the midpoint of its
    channels falls."""
    total = sum(map(len, grouped))
    ranges = [[] for _ in range(workers)]
    seen = 0
    for subset in grouped:
        ranges[(2 * seen + len(subset)) * workers // (2 * total)].append(subset)
        seen += len(subset)
    return ranges


def _fork_range(stats: PairStats, subsets) -> tuple[int, int]:
    """Fork a child that profiles the subsets on the stats it inherits and
    writes their outcomes, pickled, to a pipe; returns its pid and the
    pipe's read end. The child leaves by os._exit, non-zero with its
    traceback on stderr if anything raises."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        outcomes = list(_profile(stats, subsets))
        with open(write, "wb") as pipe:
            pickle.dump(outcomes, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    except BaseException:
        # straight to the descriptor: sys.stderr may be the parent's capture
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def run_sweep(table: SampleTable, rule, min_size: int = 2,
              max_size: int | None = None, workers: int = 1,
              errors: list | None = None) -> list[SubsetResult]:
    """Chow-Liu joint profile for every channel subset in the size range.

    Per-subset failures never abort the sweep; they are appended to the
    errors list (if given) as (subset, message) and skipped in the output.
    workers counts the calling process; a forked worker that fails or dies
    fails the sweep with an EntroscopeError, and none outlives the call.
    """
    if workers < 1:
        raise DataError("workers must be positive")
    subsets = list(enumerate_subsets(table.channels, min_size, max_size))
    binned, unbinned = bin_table(table, rule, MAX_JOINT_BINS)
    total = len(subsets)
    report_every = max(1, total // 10)
    outcomes: dict[tuple[str, ...], tuple] = {}

    def finished(done_subsets, done_outcomes) -> None:
        for subset, outcome in zip(done_subsets, done_outcomes):
            outcomes[subset] = outcome
            done = len(outcomes)
            if done % report_every == 0 or done == total:
                elapsed = time.monotonic() - started
                eta = elapsed / done * (total - done)
                print(f"sweep: {done}/{total} subsets, {elapsed:.1f}s elapsed, "
                      f"~{eta:.0f}s left", file=sys.stderr)

    stats = PairStats(binned)
    started = time.monotonic()
    # the subsets that keep the same rows, by row set in order of first
    # appearance, each in canonical order; one with an unbinned channel is
    # answered here
    groups: dict[tuple[str, ...] | None, list[tuple[str, ...]]] = {}
    for subset in subsets:
        name = next((name for name in subset if name in unbinned), None)
        if name is None:
            groups.setdefault(stats.row_set(subset), []).append(subset)
        else:
            finished([subset], [(None, f"not binned: {unbinned[name]}")])
    # at least one: every subset may have been answered before any fit
    workers = max(1, min(workers, total - len(outcomes)))
    own, *others = _ranges([subset for members in groups.values()
                            for subset in members], workers)
    children = []  # (worker, pid, read end, range) of those not reaped
    try:
        for worker, part in enumerate(others, 2):
            if part:
                children.append((worker, *_fork_range(stats, part), part))
        finished(own, _profile(stats, own))
        while children:
            worker, pid, read, part = children[0]
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(read)
            del children[0]
            if status:
                code = os.waitstatus_to_exitcode(status)
                how = (f"was killed by signal {-code} "
                       f"({signal.strsignal(-code)})" if code < 0
                       else f"exited with status {code}")
                raise EntroscopeError(f"sweep worker {worker} (pid {pid}) {how}")
            finished(part, pickle.loads(data))
    finally:
        for _, pid, read, _ in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results: list[SubsetResult] = []
    for subset in subsets:
        prof, reason = outcomes[subset]
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
    is capped at MAX_JOINT_BINS, as in every sweep. A rule's marker is NaN
    when the rule finds a channel's spread degenerate; the curve, binned at
    fixed counts, is still drawn.
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

    markers = []
    for rule in ("fd", "scott"):
        try:
            markers.append(float(np.mean([
                binning_spec(table.column(name), rule, name=name,
                             max_bins=MAX_JOINT_BINS).bin_count
                for name in subset])))
        except DegenerateSpreadError:  # the rule cannot bin a channel
            markers.append(math.nan)
    return SensitivityCurve(subset, tuple(points), tuple(markers))

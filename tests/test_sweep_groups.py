"""Subsets that keep the same leftover rows fit on one child PairStats.

A sweep groups its subsets by the leftover rows each keeps (the rows past
the ones complete in every channel), named by their row set: the channels
present on all of those rows. It fits each run of a group on one child
over the row set, answers the subsets with an unbinned channel without a
fit, and still returns every profile, error and progress count in canonical
order, bit for bit what a fresh fit of each subset gives.
"""

import contextlib
import importlib.util
import io
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroscope import sweep
from entroscope.chowliu import PairStats, build_tree, tree_profile, validate
from entroscope.errors import DataError
from entroscope.ingest import SampleTable
from entroscope.quantize import bin_channel
from entroscope.sweep import (
    MAX_JOINT_BINS, enumerate_subsets, run_sweep, sensitivity,
)
from oracles import prebinned

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bits(prof):
    return tuple(v.hex() for v in (prof.h0, prof.h1, prof.h2, prof.hmin))


def _mask(chans, names):
    return np.logical_and.reduce([chans[name].codes >= 0 for name in names])


def _dropout_table(rows=3000, seed=31):
    """Two three-axis sensors that drop out whole, an accelerometer
    magnitude, a channel with holes of its own and a constant one."""
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(rows, 2))
    data = latent @ rng.normal(size=(2, 7)) + rng.normal(size=(rows, 7))
    data[400:700, 0:3] = np.nan  # the accelerometer drops out
    data[1500:1600, 3:6] = np.nan  # the gyroscope drops out
    data[2000:2100, 0:6] = np.nan  # both, as on a file that maps neither
    data[rng.random(rows) < 0.03, 6] = np.nan
    data[rng.random(rows) < 0.01, 1] = np.nan  # the magnitude misses these too
    mag = np.sqrt(data[:, 0] ** 2 + data[:, 1] ** 2 + data[:, 2] ** 2)
    const = np.full(rows, 2.0)  # FD cannot bin it
    names = ("acc.x", "acc.y", "acc.z", "gyr.x", "gyr.y", "gyr.z", "baro",
             "acc.mag", "flat")
    return SampleTable(names, np.column_stack([data, mag, const]), "unit")


@pytest.fixture(scope="module")
def dropouts():
    table = _dropout_table()
    chans = {}
    for name in table.channels[:-1]:
        chans[name] = bin_channel(table.column(name), "fd", name=name,
                                  max_bins=MAX_JOINT_BINS)
    subsets = list(enumerate_subsets(table.channels, 2, 4))
    return table, chans, subsets


@pytest.mark.parametrize("workers", [1, 2])
def test_grouped_sweep_matches_fresh_fits_in_canonical_order(dropouts, workers):
    table, chans, subsets = dropouts
    errors = []
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        results = run_sweep(table, "fd", max_size=4, workers=workers,
                            errors=errors)
    fitted = [s for s in subsets if "flat" not in s]
    assert [r.subset for r in results] == fitted
    for r in results:
        want = tree_profile(build_tree([chans[name] for name in r.subset]))
        assert _bits(r.profile) == _bits(want), r.subset
    assert [subset for subset, _ in errors] == [s for s in subsets if "flat" in s]
    assert all(msg == "not binned: channel 'flat': degenerate spread; "
               "use fixed_count" for _, msg in errors)
    total = len(subsets)
    progress = [line.split()[1] for line in err.getvalue().splitlines()]
    assert progress == [f"{done}/{total}" for done in range(1, total + 1)
                        if done % (total // 10) == 0 or done == total]
    assert not any(isinstance(v, PairStats) for v in vars(sweep).values())


def test_dropout_subsets_share_children(dropouts):
    table, chans, subsets = dropouts
    root = PairStats(list(chans.values()))
    binned = [s for s in subsets if "flat" not in s]
    row_sets = [root.row_set(subset) for subset in binned]
    # the whole-sensor dropouts leave far fewer row sets than subsets
    assert len(set(row_sets)) < len(binned) // 4
    assert None in row_sets  # some subsets keep only the clean rows
    for names, subset in zip(row_sets, binned):
        rows = np.count_nonzero(_mask(chans, subset))
        if names is None:
            assert rows == root.n
        else:
            assert set(subset) <= set(names)
            assert list(names) == [n for n in chans if n in names]
            assert PairStats([chans[n] for n in names], root).n == rows


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 6),
       st.floats(0.0, 0.6), st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_subsets_share_a_child_exactly_when_their_rows_match(seed, k, share, rows):
    rng = np.random.default_rng(seed)
    chans = {}
    for i in range(k):
        codes = rng.integers(0, 3, size=rows)
        # per-channel holes, and some rows where the first half drop together
        codes[rng.random(rows) < share * rng.random()] = -1
        chans[f"c{i}"] = prebinned(f"c{i}", codes, 3)
    together = rng.random(rows) < share / 2
    for i in range(k // 2):
        chans[f"c{i}"].codes[together] = -1
    root = PairStats(list(chans.values()))
    subsets = list(enumerate_subsets(chans))
    row_sets = [root.row_set(subset) for subset in subsets]
    clean = _mask(chans, chans)
    for (ri, si), (rj, sj) in itertools.combinations(zip(row_sets, subsets), 2):
        same = np.array_equal(_mask(chans, si), _mask(chans, sj))
        assert (ri == rj) == same, (si, sj)
    for names, subset in zip(row_sets, subsets):
        mask = _mask(chans, subset)
        assert (names is None) == np.array_equal(mask, clean), subset
        if names is not None:
            assert set(subset) <= set(names), subset
            assert root.row_set(names) == names, subset
            child = PairStats([chans[n] for n in names], root)
            assert child.n == np.count_nonzero(mask), subset


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 5),
       st.floats(0.0, 0.6), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_over_fits_any_subset_on_its_own_rows(seed, k, share, rows):
    # the root, the child over the subset's row set and the children over
    # other row sets, or over every channel, that hold the subset all fit it
    # as a fresh fit does
    rng = np.random.default_rng(seed)
    chans = {}
    for i in range(k):
        codes = rng.integers(0, 3, size=rows)
        codes[rng.random(rows) < share * rng.random()] = -1
        chans[f"c{i}"] = prebinned(f"c{i}", codes, 3)
    together = rng.random(rows) < share / 2
    for i in range(k // 2):
        chans[f"c{i}"].codes[together] = -1
    root = PairStats(list(chans.values()))
    subsets = list(enumerate_subsets(chans))
    row_sets = set(map(root.row_set, subsets)) | {tuple(chans)}
    for subset in subsets:
        own = root.row_set(subset)
        foreign = [names for names in row_sets
                   if names != own and set(subset) <= set(names or ())]
        sub = [chans[n] for n in subset]
        rows_kept = np.count_nonzero(_mask(chans, subset))
        fresh = tree_profile(build_tree(sub)) if rows_kept else None
        tried = [(names, root if names is None else PairStats(
            [chans[n] for n in names], root))
            for names in dict.fromkeys([None, own, *foreign])]
        for names, stats in tried:
            if fresh is None:
                with pytest.raises(DataError, match="no complete rows"):
                    build_tree(sub, stats)
            else:
                model = build_tree(sub, stats)
                assert _bits(tree_profile(model)) == _bits(fresh), (subset, names)
        for names, stats in tried:
            assert stats.over(subset).n == rows_kept, (subset, names)


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it runs
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # no __pycache__ under bench/
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def _children_built(monkeypatch, table, rule):
    """How many children run_sweep builds, wherever they are made."""
    children = []
    init = PairStats.__init__

    def counting(self, channels, parent=None):
        init(self, channels, parent)
        if parent is not None:
            children.append(self)

    monkeypatch.setattr(PairStats, "__init__", counting)
    with contextlib.redirect_stderr(io.StringIO()):
        run_sweep(table, rule)
    return len(children)


def test_one_child_per_leftover_row_set(monkeypatch, tmp_path):
    wl = _workloads()
    table = wl.csv_table(wl.csv_generate(3, tmp_path))
    chans = {name: bin_channel(table.column(name), "fd", name=name,
                               max_bins=MAX_JOINT_BINS)
             for name in table.channels}
    subsets = list(enumerate_subsets(table.channels))
    masks = {_mask(chans, subset).tobytes() for subset in subsets}
    assert len(subsets) == 120 and len(masks) == 57
    children = _children_built(monkeypatch, table, "fd")
    # one row set is the clean rows', which fits on the sweep's own counts
    assert children == 56
    assert len(masks) == children + int(
        _mask(chans, table.channels).tobytes() in masks)


_profile = sweep._profile
_range_log = None  # the file _logged_range appends to


def _logged_range(stats, subsets):
    """sweep._profile that first appends its process id and range to
    _range_log, one JSON line per call, from whichever process runs it."""
    with open(_range_log, "a") as fh:
        fh.write(json.dumps([os.getpid(), subsets]) + "\n")
    return _profile(stats, subsets)


@pytest.mark.parametrize("workers", [1, 2])
def test_no_unbinned_subset_reaches_a_worker(dropouts, monkeypatch, tmp_path,
                                             workers):
    table, chans, subsets = dropouts
    log = tmp_path / "ranges.jsonl"
    monkeypatch.setattr(sys.modules[__name__], "_range_log", log)
    monkeypatch.setattr(sweep, "_profile", _logged_range)
    errors = []
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        results = run_sweep(table, "fd", max_size=4, workers=workers,
                            errors=errors)
    # one range per process
    logged = [json.loads(line) for line in log.read_text().splitlines()]
    runs = {pid: [tuple(s) for s in part] for pid, part in logged}
    assert len(runs) == len(logged) == workers
    sent = [s for run in runs.values() for s in run]
    fitted = [s for s in subsets if "flat" not in s]
    assert sorted(sent) == sorted(fitted)
    assert [r.subset for r in results] == fitted
    # the grouped order: by row set in order of first appearance, each
    # group in canonical order
    root = PairStats(list(chans.values()))
    grouped = [s for want in dict.fromkeys(root.row_set(s) for s in fitted)
               for s in fitted if root.row_set(s) == want]
    own = runs.pop(os.getpid())
    if workers == 1:
        assert own == grouped
    else:
        # each process fits one contiguous run of the grouped order, the
        # caller the first, and their channel totals differ by at most the
        # size of one subset
        others = sorted(runs.values(), key=lambda run: grouped.index(run[0]))
        assert len(others) == workers - 1
        assert own + [s for run in others for s in run] == grouped
        totals = [sum(map(len, run)) for run in (own, *others)]
        assert max(totals) - min(totals) <= max(map(len, fitted))
    # the subsets with the unbinned channel keep their errors and count
    assert [subset for subset, _ in errors] == [s for s in subsets if "flat" in s]
    assert all(msg.startswith("not binned: channel 'flat': ")
               for _, msg in errors)
    total = len(subsets)
    assert err.getvalue().splitlines()[-1].split()[1] == f"{total}/{total}"


def test_the_full_channel_set_keeps_no_leftover_row_unsorted(dropouts,
                                                           monkeypatch):
    # a tree over all of its own channels, as build_tree, validate and
    # sensitivity fit, never sorts the leftover rows' missing patterns
    table, chans, _ = dropouts
    sorted_on = []
    patterns = PairStats._patterns.func
    monkeypatch.setattr(PairStats, "_patterns", property(
        lambda self: sorted_on.append(self) or patterns(self)))
    names = list(chans)
    sub = [chans[name] for name in ("acc.x", "gyr.y", "baro")]
    model = build_tree(sub)
    validate(sub)
    sensitivity(table, [ch.name for ch in sub], grid=(5, 8))
    root = PairStats(list(chans.values()))
    assert root.row_set(names[::-1]) is None
    assert root.over(names) is root
    assert root.n < len(table.rows)  # it has leftover rows all the same
    assert sorted_on == []
    assert root.row_set(["acc.x", "gyr.y"]) is not None  # a subset sorts them
    assert sorted_on == [root]
    rows = _mask(chans, [ch.name for ch in sub])
    fresh = build_tree([prebinned(ch.name, ch.codes[rows], ch.spec.bin_count)
                        for ch in sub])
    assert _bits(tree_profile(model)) == _bits(tree_profile(fresh))


def test_no_child_on_a_complete_table(monkeypatch):
    rng = np.random.default_rng(32)
    table = SampleTable(("a", "b", "c", "d"), rng.normal(size=(500, 4)), "unit")
    assert _children_built(monkeypatch, table, 8) == 0


def test_mi_is_worked_out_once_per_pair_and_matches_a_fresh_count(dropouts):
    _, chans, _ = dropouts
    root = PairStats(list(chans.values()))
    child = PairStats([chans["acc.x"], chans["baro"], chans["gyr.y"]], root)
    assert child.n > root.n
    for stats in (root, child):
        for a, b in itertools.combinations(stats.channels, 2):
            first = stats.mi(b, a)
            assert stats.mi(a, b) is first  # cached, whichever way asked
            assert stats._mis[tuple(sorted((a, b)))] is first
            rows = _mask(chans, stats.channels)
            for x, y in ((a, b), (b, a)):
                fresh = PairStats([prebinned(n, chans[n].codes[rows],
                                             chans[n].spec.bin_count)
                                   for n in (x, y)])
                assert fresh.mi(x, y).hex() == first.hex(), (x, y)

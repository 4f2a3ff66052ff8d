"""The tree passes cache what they compute on the PairStats they fit on.

Every value a pass returns with the caches in play must be bit for bit the
value a fresh fit of the same subset returns: its own PairStats, so no table,
marginal or cache is shared with any other tree. The Shannon pass is also
held to the top-down chain rule, on the same fits.
"""

import itertools

import numpy as np
import pytest

from entroscope import chowliu
from entroscope.chowliu import (
    ChowLiuModel,
    ConditionalTable,
    PairStats,
    build_tree,
    tree_max_prob,
    tree_power_sum,
    tree_profile,
    tree_shannon,
    tree_support_count,
)
from entroscope.ingest import SampleTable
from entroscope.quantize import Pmf, bin_channel
from entroscope.sweep import MAX_JOINT_BINS, enumerate_subsets, run_sweep
from oracles import chain_rule_shannon, exact_chain_rule_shannon, prebinned, ulps


def _profile_bits(prof):
    return tuple(v.hex() for v in (prof.h0, prof.h1, prof.h2, prof.hmin))


def _passes(model):
    """Every pass's value, floats as hex."""
    return (tree_support_count(model).hex(), tree_shannon(model).hex(),
            tree_power_sum(model, 2.0).hex(), tree_power_sum(model, 0.5).hex(),
            tree_max_prob(model).hex())


def _latent_table(rows, k, seed, holes=()):
    """k correlated channels; channel i misses a share holes[i] of its rows."""
    rng = np.random.default_rng(seed)
    data = (rng.normal(size=(rows, 3)) @ rng.normal(size=(3, k))
            + rng.normal(size=(rows, k)))
    for i, share in enumerate(holes):
        data[rng.random(rows) < share, i] = np.nan
    names = tuple(f"c{i:02d}" for i in range(k))
    return SampleTable(names, data, "unit")


def _binned(table, rule):
    return {name: bin_channel(table.column(name), rule, name=name,
                              max_bins=MAX_JOINT_BINS)
            for name in table.channels}


@pytest.fixture(scope="module")
def wide12():
    """A 12-channel table and each subset's profile from a fresh fit."""
    table = _latent_table(2000, 12, seed=21)
    chans = _binned(table, 4)
    fresh = [(subset, _profile_bits(tree_profile(build_tree(
                 [chans[n] for n in subset]))))
             for subset in enumerate_subsets(table.channels)]
    return table, chans, fresh


@pytest.mark.parametrize("workers", [1, 2])
def test_full_12_channel_sweep_matches_fresh_fits(wide12, workers):
    table, _, fresh = wide12
    results = run_sweep(table, 4, workers=workers)
    assert [(r.subset, _profile_bits(r.profile)) for r in results] == fresh


def _fits_within(monkeypatch, bound, table, chans, want):
    """Fits every subset on one PairStats under a cache of bound bytes, each
    to its want(subset, model) value, and checks the bound after each fit
    and that the first message stored was evicted."""
    monkeypatch.setattr(chowliu, "_CACHE_BYTES", bound)
    stats = PairStats(list(chans.values()))
    first = None
    for subset in enumerate_subsets(table.channels):
        model = build_tree([chans[n] for n in subset], stats)
        assert model.cache is stats.cache, subset
        want(subset, model)
        assert 0 < stats.cache.nbytes <= bound, subset
        first = first or next(iter(stats.cache))
    assert first not in stats.cache


def test_full_12_channel_sweep_within_a_small_cache_bound(wide12, monkeypatch):
    table, chans, fresh = wide12
    fresh = dict(fresh)

    def want(subset, model):
        assert _profile_bits(tree_profile(model)) == fresh[subset], subset

    _fits_within(monkeypatch, 4096, table, chans, want)


def test_caches_past_a_small_byte_bound_change_no_value(monkeypatch):
    table = _latent_table(1500, 6, seed=22)
    chans = _binned(table, "fd")

    def want(subset, model):
        sub = [chans[n] for n in subset]
        assert _passes(model) == _passes(build_tree(sub)), subset

    _fits_within(monkeypatch, 2048, table, chans, want)


def test_cache_counts_exactly_the_bytes_it_holds_under_eviction(monkeypatch):
    table = _latent_table(1500, 6, seed=22)
    chans = _binned(table, "fd")

    def want(subset, model):
        tree_profile(model)
        tree_power_sum(model, 0.5)
        cache = model.cache
        assert all(isinstance(v, np.ndarray) and v.ndim == 1
                   for v in cache.values()), subset
        assert cache.nbytes == sum(v.nbytes for v in cache.values()), subset

    _fits_within(monkeypatch, 2048, table, chans, want)


def test_gappy_sweep_mixes_shared_and_merged_tables():
    # c01 and c03 miss rows: a subset holding both uses the shared tables
    # when every other row misses one of them, the rest merge leftover rows
    table = _latent_table(2500, 6, seed=23, holes=(0.0, 0.05, 0.0, 0.1))
    chans = _binned(table, "fd")
    stats = PairStats(list(chans.values()))
    shared = {False: 0, True: 0}
    for subset in enumerate_subsets(table.channels):
        sub = [chans[n] for n in subset]
        shared[PairStats(sub, stats).n == stats.n] += 1
        want = _passes(build_tree(sub))
        # twice: the second time every message comes from the caches
        assert _passes(build_tree(sub, stats)) == want, subset
        assert _passes(build_tree(sub, stats)) == want, subset
    assert shared[True] and shared[False]
    results = run_sweep(table, "fd")
    for r in results:
        want = tree_profile(build_tree([chans[n] for n in r.subset]))
        assert _profile_bits(r.profile) == _profile_bits(want), r.subset


def test_fits_with_leftover_rows_leave_the_shared_cache_alone():
    table = _latent_table(2500, 6, seed=23, holes=(0.0, 0.05, 0.0, 0.1))
    chans = _binned(table, "fd")
    stats = PairStats(list(chans.values()))
    # c01 and c03 miss rows: a subset holding both has no leftover rows
    tree_profile(build_tree([chans["c01"], chans["c03"], chans["c05"]], stats))
    held = len(stats.cache)
    assert held
    for subset in enumerate_subsets(table.channels):
        sub = [chans[n] for n in subset]
        if PairStats(sub, stats).n > stats.n:
            model = build_tree(sub, stats)
            assert _passes(model) == _passes(build_tree(sub)), subset
            assert model.cache is not stats.cache and len(model.cache)
            assert len(stats.cache) == held, subset


def _shared_fits(table, chans):
    """Each subset's tree, fitted from one PairStats over the table."""
    stats = PairStats(list(chans.values()))
    for subset in enumerate_subsets(table.channels):
        yield subset, build_tree([chans[n] for n in subset], stats)


def test_shannon_near_chain_rule_on_12_channel_sweep(wide12):
    table, chans, _ = wide12
    for subset, model in _shared_fits(table, chans):
        assert ulps(tree_shannon(model), chain_rule_shannon(model)) <= 8, subset


def test_shannon_near_chain_rule_on_gappy_fits():
    # shared and merged tables alike (see the gappy sweep test above)
    table = _latent_table(2500, 6, seed=23, holes=(0.0, 0.05, 0.0, 0.1))
    fits = list(_shared_fits(table, _binned(table, "fd")))
    for subset, model in fits:
        assert ulps(tree_shannon(model), chain_rule_shannon(model)) <= 8, subset
    pytest.importorskip("mpmath")
    for subset, model in fits[::6]:
        assert ulps(tree_shannon(model), exact_chain_rule_shannon(model)) <= 1, subset


def _copy(model):
    """The same model with new tables and root pmf, so nothing is cached."""
    return ChowLiuModel(
        nodes=model.nodes, root=model.root, parent=dict(model.parent),
        root_marginal=Pmf(model.root_marginal.bins.copy(),
                          model.root_marginal.p.copy()),
        conditionals={
            child: ConditionalTable(t.parent_bins.copy(), t.indptr.copy(),
                                    t.child_bins.copy(), t.probs.copy())
            for child, t in model.conditionals.items()},
        edge_weights=dict(model.edge_weights),
        bin_counts=dict(model.bin_counts),
    )


def test_one_table_in_models_with_different_bin_counts():
    # child | root over root bins 0..3 and child bins 0..2
    shared = ConditionalTable(
        np.arange(4), np.array([0, 2, 3, 5, 6]), np.array([0, 2, 1, 0, 1, 2]),
        np.array([0.25, 0.75, 1.0, 0.5, 0.5, 1.0]))
    # grandchild | child over child bins 0..4 (3 and 4 are never reached)
    below = ConditionalTable(
        np.arange(5), np.arange(6), np.array([1, 0, 1, 0, 1]), np.ones(5))
    small_root = Pmf(np.arange(4), np.array([0.1, 0.2, 0.3, 0.4]))
    wide_root = Pmf(np.arange(6), np.array([0.1, 0.1, 0.2, 0.2, 0.2, 0.2]))

    def model(root_marginal, bin_counts, grandchild):
        nodes = ("r", "c", "g") if grandchild else ("r", "c")
        return ChowLiuModel(
            nodes=nodes, root="r",
            parent={"c": "r", "g": "c"} if grandchild else {"c": "r"},
            root_marginal=root_marginal,
            conditionals=({"c": shared, "g": below} if grandchild
                          else {"c": shared}),
            edge_weights={("c", "r"): 0.0, ("c", "g"): 0.0} if grandchild
            else {("c", "r"): 0.0},
            bin_counts=bin_counts,
        )

    models = [
        model(small_root, {"r": 4, "c": 3}, False),
        # more root bins: the child's messages to the root are longer
        model(wide_root, {"r": 6, "c": 3}, False),
        # more child bins: the child's marginal is longer, and read past 3
        model(small_root, {"r": 4, "c": 5, "g": 2}, True),
        model(small_root, {"r": 4, "c": 3}, False),
    ]
    for m in models + models[::-1]:
        assert _passes(m) == _passes(_copy(m))


def test_sweeps_over_interleaved_pair_stats():
    # same names and bin counts, different rows: only the caches' owners tell
    # the statistics apart, and a replaced PairStats may leave its ids free
    names = [f"c{i}" for i in range(5)]

    def stats_of(seed):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 4, size=600)
        chans = [prebinned(name, np.where(rng.random(600) < 0.6, base,
                                          rng.integers(0, 4, size=600)), 4)
                 for name in names]
        stats = PairStats(chans)
        return stats, {ch.name: ch for ch in chans}

    sides = [stats_of(31), stats_of(32)]
    subsets = list(enumerate_subsets(names))
    for step, subset in enumerate(subsets):
        if step == len(subsets) // 2:
            sides[0] = stats_of(33)
        for stats, chans in sides:
            sub = [chans[n] for n in subset]
            assert _passes(build_tree(sub, stats)) == _passes(build_tree(sub)), subset
    for (stats, chans), subset in itertools.product(sides, subsets):
        sub = [chans[n] for n in subset]
        assert _passes(build_tree(sub, stats)) == _passes(build_tree(sub)), subset

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroscope import chowliu, synth
from entroscope.entropy import joint_direct, profile_joint
from entroscope.errors import DataError
from helpers import expand_model_dict, profile_of_dict
from oracles import (
    TrueModel,
    as_chowliu,
    brute_profile,
    column_stack_sensor_table,
    prebinned,
    random_tree_model,
    sample,
)


def test_random_tree_model_deterministic():
    a = random_tree_model(seed=1, nodes=4, arity=3)
    b = random_tree_model(seed=1, nodes=4, arity=3)
    assert a.parents == b.parents
    assert np.array_equal(a.root_table, b.root_table)
    for ta, tb in zip(a.cond_tables, b.cond_tables):
        assert np.array_equal(ta, tb)


def test_random_tree_model_single_node():
    m = random_tree_model(seed=1, nodes=1, arity=4)
    assert m.parents == (-1,)
    assert m.root_table.shape == (4,)
    prof = brute_profile(m)
    assert prof.h0 == pytest.approx(2.0, abs=1e-12)


def test_model_size_arithmetic():
    m = random_tree_model(seed=7, nodes=5, arity=6)
    assert math.prod(m.arities) == 6 ** 5 == 7776


def test_brute_profile_uniform_independent():
    root = np.array([0.5, 0.5])
    cond = np.array([[0.5, 0.5], [0.5, 0.5]])
    m = TrueModel((-1, 0), (2, 2), root, (cond,))
    prof = brute_profile(m)
    assert prof == pytest.approx((2.0, 2.0, 2.0, 2.0)) or all(
        abs(v - 2.0) < 1e-12 for v in (prof.h0, prof.h1, prof.h2, prof.hmin)
    )


def test_brute_profile_point_mass():
    root = np.array([1.0, 0.0])
    cond = np.array([[0.0, 1.0], [0.5, 0.5]])
    m = TrueModel((-1, 0), (2, 2), root, (cond,))
    prof = brute_profile(m)
    assert (prof.h0, prof.h1, prof.h2, prof.hmin) == (0.0, 0.0, 0.0, 0.0)


def test_brute_profile_against_dict_oracle():
    for seed in range(8):
        m = random_tree_model(seed=seed, nodes=4, arity=4)
        want = profile_of_dict(
            expand_model_dict(m.parents, m.arities, m.root_table, m.cond_tables)
        )
        prof = brute_profile(m)
        got = (prof.h0, prof.h1, prof.h2, prof.hmin)
        for w, g in zip(want, got):
            assert g == pytest.approx(w, abs=1e-10)


def test_expansion_size_guard():
    m = random_tree_model(seed=2, nodes=21, arity=2)
    with pytest.raises(DataError, match="too large to expand"):
        brute_profile(m)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_brute_profile_ordering(seed, nodes, arity):
    prof = brute_profile(random_tree_model(seed, nodes, arity))
    assert prof.hmin <= prof.h2 + 1e-9 <= prof.h1 + 2e-9 <= prof.h0 + 3e-9


def test_sample_deterministic_and_in_range():
    m = random_tree_model(seed=5, nodes=4, arity=5)
    a = sample(m, 1000, seed=9)
    b = sample(m, 1000, seed=9)
    assert np.array_equal(a, b)
    assert a.shape == (1000, 4)
    for i, arity in enumerate(m.arities):
        assert a[:, i].min() >= 0
        assert a[:, i].max() < arity


def test_sample_point_mass():
    root = np.array([0.0, 1.0, 0.0])
    cond = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    m = TrueModel((-1, 0), (3, 2), root, (cond,))
    rows = sample(m, 5, seed=1)
    assert rows.tolist() == [[1, 1]] * 5


def test_sample_marginal_total_variation():
    m = random_tree_model(seed=12, nodes=3, arity=5)
    rows = sample(m, 1_000_000, seed=13)
    # true root marginal vs empirical, total variation
    counts = np.bincount(rows[:, 0], minlength=5) / rows.shape[0]
    tv = 0.5 * np.abs(counts - m.root_table).sum()
    assert tv < 0.01


def test_sample_h1_convergence():
    m = random_tree_model(seed=21, nodes=4, arity=6)
    rows = sample(m, 1_000_000, seed=22)
    chans = [
        prebinned(f"x{i}", rows[:, i], m.arities[i]) for i in range(4)
    ]
    fitted = chowliu.build_tree(chans)
    want = brute_profile(m).h1
    assert chowliu.tree_shannon(fitted) == pytest.approx(want, abs=0.05)


def test_as_chowliu_matches_brute():
    for seed in (0, 3, 14):
        m = random_tree_model(seed=seed, nodes=5, arity=4)
        prof = chowliu.tree_profile(as_chowliu(m))
        want = brute_profile(m)
        assert prof.h0 == pytest.approx(want.h0, abs=1e-9)
        assert prof.h1 == pytest.approx(want.h1, abs=1e-9)
        assert prof.h2 == pytest.approx(want.h2, abs=1e-9)
        assert prof.hmin == pytest.approx(want.hmin, abs=1e-9)


def test_build_tree_recovers_sampled_chain():
    # ancestral chain 0-1-2 with strong conditionals
    root = np.array([0.5, 0.5])
    strong = np.array([[0.9, 0.1], [0.1, 0.9]])
    m = TrueModel((-1, 0, 1), (2, 2, 2), root, (strong, strong))
    rows = sample(m, 100_000, seed=31)
    chans = [prebinned(f"x{i}", rows[:, i], 2) for i in range(3)]
    fitted = chowliu.build_tree(chans)
    assert set(fitted.edge_weights) == {("x0", "x1"), ("x1", "x2")}


def test_sensor_table_shape_and_determinism():
    t1 = synth.sensor_table(seed=7, rows=5000)
    t2 = synth.sensor_table(seed=7, rows=5000)
    assert t1.channels == synth.SENSOR_CHANNELS
    assert t1.rows.shape[0] == 5000
    assert np.array_equal(t1.rows, t2.rows)
    assert not np.array_equal(
        t1.rows, synth.sensor_table(seed=8, rows=5000).rows
    )


def test_sensor_table_magnitude_consistency():
    table = synth.sensor_table(seed=7, rows=2000)
    # magnitudes were computed from the quantized axes then re-gridded, so
    # they stay within one grid step of the direct formula
    acc = np.sqrt(
        table.column("Acc.X") ** 2
        + table.column("Acc.Y") ** 2
        + table.column("Acc.Z") ** 2
    )
    assert np.max(np.abs(acc - table.column("Acc.Mag"))) <= 0.004 / 2 + 1e-12


def test_sensor_table_channels_quantized():
    table = synth.sensor_table(seed=7, rows=50_000)
    for name in table.channels:
        col = table.column(name)
        step = 0.004 if name.startswith("Acc") else 0.002
        ratio = col / step
        assert np.allclose(ratio, np.round(ratio), atol=1e-6)
        # plateau mechanism needs visibly fewer levels than FD bins
        assert np.unique(col).size < 500


def test_single_channel_profiles_match_pmf():
    table = synth.sensor_table(seed=7, rows=20_000)
    col = table.column("Gyro.X")
    levels, codes = np.unique(col, return_inverse=True)
    prof = profile_joint(joint_direct([prebinned("Gyro.X", codes, levels.size)]))
    assert prof.h0 == pytest.approx(math.log2(levels.size), abs=1e-12)


def test_sensor_table_matches_fingerprint():
    # pins the first samples' reprs, the distinct-level counts and the mean
    # of every channel. The mean is math.fsum's correctly rounded sum divided
    # by the row count, so its bits do not depend on summation order; the
    # last bit of np.mean does, and moves between numpy versions and builds.
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "synth_fingerprint.json")) as fh:
        pin = json.load(fh)
    table = synth.sensor_table(seed=pin["seed"], rows=pin["rows"])
    assert list(table.channels) == pin["channels"]
    for name in table.channels:
        col = table.column(name)
        assert [repr(float(v)) for v in col[:4]] == pin["head"][name]
        assert repr(math.fsum(col.tolist()) / col.size) == pin["mean"][name]
        assert int(np.unique(col).size) == pin["distinct_levels"][name]


def test_sensor_table_is_one_column_major_array():
    table = synth.sensor_table(seed=3, rows=1000)
    assert table.rows.flags.f_contiguous
    for name in table.channels:
        col = table.column(name)
        assert col.flags.c_contiguous
        assert np.shares_memory(col, table.rows)


@pytest.mark.parametrize("seed, rows", [(0, 2), (3, 1000), (7, 100_000), (11, 12_345)])
def test_sensor_table_equals_the_column_stack_build(seed, rows):
    got = synth.sensor_table(seed=seed, rows=rows).rows
    want = column_stack_sensor_table(seed, rows)
    assert got.shape == want.shape
    assert got.tobytes(order="C") == want.tobytes(order="C")


def test_sensor_table_peaks_below_twice_its_size():
    # the table, three latent factors and one scratch column: 1.5x the table
    tracemalloc.start()
    try:
        table = synth.sensor_table(seed=7, rows=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * table.rows.nbytes

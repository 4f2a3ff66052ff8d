import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroscope.chowliu import PairStats
from entroscope.dependence import (
    KIND_MI,
    DependenceMatrix,
    matrix,
    pearson,
)
from entroscope.entropy import profile
from entroscope.errors import DataError
from entroscope.ingest import SampleTable
from entroscope.quantize import bin_channel, pmf_of
from helpers import binary_entropy, dict_mi
from oracles import prebinned


def test_pearson_self_and_negation():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_independent_near_zero():
    rng = np.random.default_rng(20260819)
    a = rng.random(200_000)
    b = rng.random(200_000)
    assert abs(pearson(a, b)) < 0.01


def test_pearson_constant_errors():
    with pytest.raises(DataError, match="undefined correlation"):
        pearson(np.ones(10), np.arange(10.0))


def test_pearson_pairwise_complete():
    x = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
    y = np.array([2.0, 4.0, 1.0, 8.0, np.nan])
    # only rows 0,1,3 are complete and they are exactly proportional
    assert pearson(x, y) == pytest.approx(1.0, abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=1000)
    y = rng.normal(size=1000) + 0.5 * x
    r = pearson(x, y)
    assert pearson(3.0 * x + 7.0, y) == pytest.approx(r, abs=1e-9)
    assert pearson(x, 0.25 * y - 2.0) == pytest.approx(r, abs=1e-9)


def _mi(a, b):
    """Plug-in MI of two channels on their pairwise-complete rows."""
    return PairStats([a, b]).mi(a.name, b.name)


def test_mi_self_equals_h1():
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 16, size=5000)
    ch = prebinned("x", codes, 16)
    h1 = profile(pmf_of(codes)).h1
    assert PairStats([ch]).mi("x", "x") == pytest.approx(h1, abs=1e-9)


def test_mi_independent_fair_bits_analytic():
    # all four joint cells equally occupied: exact zero
    a = prebinned("a", np.array([0, 0, 1, 1]), 2)
    b = prebinned("b", np.array([0, 1, 0, 1]), 2)
    assert _mi(a, b) == 0.0


def test_mi_binary_noise_channel():
    rng = np.random.default_rng(99)
    n = 1_000_000
    x = rng.integers(0, 2, size=n)
    flips = rng.random(n) < 0.25
    y = np.where(flips, 1 - x, x)
    mi = _mi(prebinned("x", x, 2), prebinned("y", y, 2))
    assert mi == pytest.approx(1.0 - binary_entropy(0.25), abs=0.01)


def test_mi_against_dict_oracle():
    rng = np.random.default_rng(7)
    x = rng.integers(0, 5, size=3000)
    y = (x + rng.integers(0, 3, size=3000)) % 5
    got = _mi(prebinned("x", x, 5), prebinned("y", y, 5))
    want = dict_mi(list(zip(x.tolist(), y.tolist())))
    assert got == pytest.approx(want, abs=1e-9)


def test_mi_empty_overlap():
    rows = np.array([[0.0, np.nan, 1.0], [np.nan, 1.0, 0.0]])
    table = SampleTable(("a", "b", "c"), rows, "test")
    binned = [prebinned("a", np.array([0, -1]), 2),
              prebinned("b", np.array([-1, 1]), 2),
              prebinned("c", np.array([1, 0]), 2)]
    dm = matrix(table, binned, "mi")
    assert dm.missing == (("a", "b", "empty overlap"),)
    assert math.isnan(dm.values[0, 1]) and math.isnan(dm.values[1, 0])
    assert dm.values[0, 2] == dm.values[1, 2] == 0.0


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(10, 400))
@settings(max_examples=60, deadline=None)
def test_mi_symmetry_and_bound(seed, bins, n):
    rng = np.random.default_rng(seed)
    a = prebinned("a", rng.integers(0, bins, size=n), bins)
    b = prebinned("b", rng.integers(0, bins, size=n), bins)
    ab = _mi(a, b)
    ba = _mi(b, a)
    assert abs(ab - ba) <= 1e-9
    ha = profile(pmf_of(a.codes)).h1
    hb = profile(pmf_of(b.codes)).h1
    assert ab <= min(ha, hb) + 1e-9
    assert ab >= 0.0


def _table(rng, names, n=400):
    rows = rng.normal(size=(n, len(names)))
    rows[:, 1] += rows[:, 0]  # give one pair real correlation
    return SampleTable(tuple(names), rows, "test")


def test_matrix_pearson_shape_and_diag():
    rng = np.random.default_rng(11)
    table = _table(rng, ["a", "b", "c"])
    dm = matrix(table, [], "pearson")
    assert dm.channels == ("a", "b", "c")
    assert np.allclose(np.diag(dm.values), 1.0)
    assert np.allclose(dm.values, dm.values.T, atol=1e-9)
    assert dm.values[0, 1] > 0.5


def test_matrix_mi_diag_is_h1():
    rng = np.random.default_rng(13)
    table = _table(rng, ["a", "b"])
    binned = [
        bin_channel(table.column(n), 8, name=n) for n in table.channels
    ]
    dm = matrix(table, binned, "mi")
    assert dm.kind == KIND_MI
    for i, name in enumerate(table.channels):
        h1 = profile(pmf_of(binned[i].codes)).h1
        assert dm.values[i, i] == pytest.approx(h1, abs=1e-12)


def _bits_of_codes(codes):
    """Plug-in entropy of a code column: bincount, drop empty bins, fsum."""
    counts = np.bincount(codes)
    p = counts[counts > 0] / codes.size
    return -math.fsum((p * np.log2(p)).tolist())


def test_matrix_mi_bitwise_equals_per_column_counts_with_nans():
    # each channel has its own holes and bin count, so every cell has its
    # own pairwise-complete rows
    rng = np.random.default_rng(37)
    n = 4000
    base = rng.normal(size=n)
    rows = np.stack([base, base + rng.normal(size=n), rng.normal(size=n),
                     base ** 2], axis=1)
    for j, share in enumerate([0.0, 0.03, 0.1, 0.2]):
        rows[rng.random(n) < share, j] = np.nan
    table = SampleTable(("a", "b", "c", "d"), rows, "test")
    binned = [bin_channel(table.column(name), "fd", name=name)
              for name in table.channels]
    dm = matrix(table, binned, "mi")
    assert dm.missing == ()
    for i, a in enumerate(binned):
        assert dm.values[i, i] == _bits_of_codes(a.codes[a.codes >= 0])
        for j in range(i + 1, len(binned)):
            b = binned[j]
            keep = (a.codes >= 0) & (b.codes >= 0)
            ca, cb = a.codes[keep], b.codes[keep]
            want = (_bits_of_codes(ca) + _bits_of_codes(cb)
                    - _bits_of_codes(ca.astype(np.int64) * b.spec.bin_count
                                     + cb))
            assert dm.values[i, j] == dm.values[j, i] == max(0.0, want)


def test_matrix_permutation_equivariance():
    rng = np.random.default_rng(17)
    table = _table(rng, ["a", "b", "c"], n=300)
    perm = ["c", "a", "b"]
    permuted = SampleTable(
        tuple(perm),
        np.stack([table.column(n) for n in perm], axis=1),
        "test",
    )
    m1 = matrix(table, [], "pearson")
    m2 = matrix(permuted, [], "pearson")
    idx = [list(table.channels).index(n) for n in perm]
    assert np.allclose(m2.values, m1.values[np.ix_(idx, idx)], atol=1e-12)


def test_matrix_records_missing_cells():
    rows = np.ones((50, 2))
    rows[:, 1] = np.arange(50.0)
    table = SampleTable(("const", "ramp"), rows, "test")
    dm = matrix(table, [], "pearson")
    assert math.isnan(dm.values[0, 1])
    assert dm.missing == (("const", "ramp", "undefined correlation"),)


def test_matrix_unbinned_channel_reported():
    rng = np.random.default_rng(19)
    table = _table(rng, ["a", "b"])
    binned = [bin_channel(table.column("a"), 8, name="a")]
    dm = matrix(table, binned, "mi")
    assert math.isnan(dm.values[0, 1])
    assert any(reason == "channel not binned" for _, _, reason in dm.missing)


def test_matrix_needs_two_channels():
    table = SampleTable(("a",), np.ones((10, 1)), "t")
    with pytest.raises(DataError):
        matrix(table, [], "pearson")


def test_matrix_unknown_kind():
    rng = np.random.default_rng(23)
    with pytest.raises(DataError):
        matrix(_table(rng, ["a", "b"]), [], "kendall")

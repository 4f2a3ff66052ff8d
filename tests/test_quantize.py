import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroscope.entropy import joint_direct
from entroscope.errors import DataError, DegenerateSpreadError
from entroscope.quantize import (
    _MAX_AUTO_BINS,
    MISSING,
    BinnedChannel,
    _bin_codes,
    _canonical_rule,
    bin_channel,
    code_dtype,
    fd_width,
    scott_width,
)
from helpers import from_probs
from oracles import percentile_fd_width, prebinned

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_fd_width_hand_value():
    # 1000 points evenly spaced on [0, 8]: interpolated IQR is exactly 4,
    # so the width is 2*4/cbrt(1000) = 0.8
    values = np.linspace(0.0, 8.0, 1000)
    assert math.isclose(fd_width(values), 0.8, rel_tol=1e-12)


def test_fd_width_uniform_golden():
    with open(os.path.join(DATA, "fd_uniform_golden.json")) as fh:
        golden = json.load(fh)
    rng = np.random.default_rng(golden["seed"])
    values = rng.random(golden["n"])
    assert fd_width(values) == pytest.approx(golden["width"], rel=1e-12)
    ch = bin_channel(values, "fd")
    assert ch.spec.bin_count == golden["bin_count"]
    # near-uniform codes: every bin within a few percent of uniform
    counts = joint_direct([ch])
    assert counts.size == golden["bin_count"]
    assert counts.max() / counts.sum() < 2.0 / golden["bin_count"]


def _width_or_error(width, values):
    try:
        return width(values).hex()
    except DataError as exc:
        return type(exc).__name__


def _quartile_cases():
    rng = np.random.default_rng(13)
    for n in range(2, 10):
        for _ in range(20):
            yield rng.normal(size=n)
            yield np.round(rng.normal(size=n), 1)
            yield rng.choice([-0.0, 0.0, -1.0, 1.0], size=n)
    for n in rng.integers(10, 5000, size=40):
        yield rng.gamma(2.0, size=n)
        # tie-heavy: a coarse grid, so quartiles often fall between equal values
        yield np.round(rng.normal(size=n), int(rng.integers(0, 2)))
        # signed zeros: -0.0 and 0.0 sort as equals, so either may land on
        # a quartile's order statistic
        yield np.round(rng.random(n)) * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    for exp in range(-300, 301, 20):
        for n in (2, 3, 5, 8, 101, 1000):
            yield rng.normal(size=n) * 10.0 ** exp


def test_fd_width_matches_percentile_bitwise():
    # every width, or the error, is the one np.percentile's quartiles give
    for values in _quartile_cases():
        assert _width_or_error(fd_width, values) == _width_or_error(
            percentile_fd_width, values), values


def test_fd_width_degenerate():
    with pytest.raises(DegenerateSpreadError, match="fixed_count"):
        fd_width(np.full(100, 3.0))


def test_scott_width_hand_values():
    rng = np.random.default_rng(1)
    x = rng.normal(size=1000)
    sigma = np.std(x, ddof=1)
    assert scott_width(x) == pytest.approx(3.5 * sigma / 10.0, rel=1e-12)
    # sigma=2, n=8 -> 3.5
    y = np.array([0.0, 0.0, 0.0, 0.0, 4.0, 4.0, 4.0, 4.0])
    s = float(np.std(y, ddof=1))
    assert scott_width(y) == pytest.approx(3.5 * s / 2.0, rel=1e-12)


def test_scott_width_constant():
    with pytest.raises(DegenerateSpreadError):
        scott_width(np.zeros(5))


def test_bin_channel_midpoint_half_open():
    ch = bin_channel(np.array([0.0, 0.5, 1.0]), 2)
    assert ch.codes.tolist() == [0, 1, 1]
    assert ch.spec.bin_count == 2


def test_bin_channel_single_value_one_bin():
    ch = bin_channel(np.full(10, 2.5), 1)
    assert ch.codes.tolist() == [0] * 10


def test_bin_channel_single_value_many_bins_errors():
    with pytest.raises(DataError):
        bin_channel(np.full(10, 2.5), 4)


def test_bin_channel_missing_values():
    ch = bin_channel(np.array([0.0, np.nan, 1.0]), 2)
    assert ch.codes.tolist() == [0, MISSING, 1]


def test_bin_channel_max_value_in_last_bin():
    rng = np.random.default_rng(3)
    values = rng.random(1000)
    ch = bin_channel(values, "fd")
    assert ch.codes[np.argmax(values)] == ch.spec.bin_count - 1
    assert ch.codes.max() == ch.spec.bin_count - 1
    assert ch.codes.min() == 0


def test_bin_channel_cap_falls_back_to_fixed():
    rng = np.random.default_rng(4)
    # heavy tails make FD explode past the cap
    values = rng.standard_cauchy(10_000)
    ch = bin_channel(values, "fd", max_bins=64)
    assert ch.spec.bin_count <= 64


def test_bin_channel_unknown_rule():
    with pytest.raises(DataError):
        bin_channel(np.arange(10.0), "sturges")


@pytest.mark.parametrize("rule", [_MAX_AUTO_BINS + 1, str(_MAX_AUTO_BINS + 1),
                                  np.int64(10 ** 12)])
def test_fixed_count_past_the_bin_limit_is_refused_before_any_edge(
        monkeypatch, rule):
    def no_linspace(*args, **kwargs):
        raise AssertionError("np.linspace called")

    monkeypatch.setattr(np, "linspace", no_linspace)
    with pytest.raises(DataError, match="over the 50000000 bin limit"):
        bin_channel(np.arange(10.0), rule)


def test_fixed_count_at_the_bin_limit_is_a_rule():
    assert _canonical_rule(_MAX_AUTO_BINS) == ("fixed_count", _MAX_AUTO_BINS)
    assert _canonical_rule(str(_MAX_AUTO_BINS)) == ("fixed_count", _MAX_AUTO_BINS)


def test_equal_width_interior_bins():
    rng = np.random.default_rng(5)
    values = rng.normal(size=5000)
    ch = bin_channel(values, "scott")
    widths = np.diff(ch.spec.edges)
    # every bin except possibly the last has the rule's width
    assert np.allclose(widths[:-1], scott_width(values), rtol=1e-9)
    assert ch.spec.edges[-1] == values.max()
    assert widths.min() > 0


def _searched(edges, v):
    """The codes by binary search, as bin_channel once assigned them."""
    return np.clip(np.searchsorted(edges, v, side="right") - 1, 0, edges.size - 2)


def _channel_values(kind):
    rng = np.random.default_rng(11)
    if kind == "constant":
        values = np.full(500, 3.25)
    elif kind == "heavy":  # a width rule asks for far more than 2048 bins
        values = rng.standard_cauchy(20_000)
    else:  # a skewed sample with ties, so many values sit on or near edges
        values = np.round(rng.gamma(2.0, size=20_000), 2)
    if kind != "complete":
        values[rng.random(values.size) < 0.05] = np.nan
        values[:3] = [np.inf, -np.inf, np.nan]
    return values


@pytest.mark.parametrize("kind, rule, max_bins", [
    ("complete", "fd", None),
    ("complete", 7, None),
    ("skewed", "fd", None),
    ("skewed", "scott", None),
    ("skewed", 1, None),
    ("skewed", 7, None),
    ("skewed", 2048, None),
    ("heavy", "fd", 2048),
    ("heavy", "fd", None),
    ("constant", 1, None),
])
def test_bin_codes_match_binary_search(kind, rule, max_bins):
    values = _channel_values(kind)
    ch = bin_channel(values, rule, max_bins=max_bins)
    edges = ch.spec.edges
    if max_bins:
        assert ch.spec.bin_count == max_bins  # the cap applied
    finite = np.isfinite(values)
    want = np.full(values.size, MISSING, dtype=np.int64)
    want[finite] = _searched(edges, values[finite])
    assert np.array_equal(ch.codes, want)
    # every edge and its neighbours one ulp away, and points past both ends
    probe = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [edges[0] - 1.0, edges[-1] + 1.0, -1e300, 1e300],
    ])
    assert np.array_equal(_bin_codes(edges, probe), _searched(edges, probe))


@pytest.mark.parametrize("kind", ["complete", "skewed", "constant"])
@pytest.mark.parametrize("rule", ["fd", "scott", 1, 64])
def test_binning_leaves_input_untouched(kind, rule):
    values = _channel_values(kind)
    before = values.copy()
    try:
        ch = bin_channel(values, rule, max_bins=2048)
    except DataError:
        pass
    else:
        assert not np.shares_memory(ch.codes, values)
    for width in (fd_width, scott_width):
        _width_or_error(width, values)
    assert values.tobytes() == before.tobytes()


def one_channel_pmf(codes):
    """{code: probability} over the complete rows, counted as the reports
    count one channel: joint_direct's counts come in ascending code order."""
    codes = np.asarray(codes, dtype=np.int64)
    counts = joint_direct([prebinned("x", codes, 31)])
    present = np.unique(codes[codes >= 0])
    return dict(zip(present.tolist(), (counts / counts.sum()).tolist()))


def test_pmf_of_hand_cases():
    assert one_channel_pmf([1, 1, 2, 2]) == {1: 0.5, 2: 0.5}
    assert one_channel_pmf([7]) == {7: 1.0}
    assert one_channel_pmf([0, 0, 0, 1]) == {0: 0.75, 1: 0.25}


def test_pmf_of_drops_missing():
    assert one_channel_pmf([0, MISSING, 0, 1]) == {0: 2 / 3, 1: 1 / 3}


def test_pmf_of_empty():
    for codes in ([], [MISSING, MISSING]):
        with pytest.raises(DataError, match="complete"):
            one_channel_pmf(codes)


def test_pmf_validation():
    with pytest.raises(DataError):
        from_probs({0: 0.5, 1: 0.4})
    with pytest.raises(DataError):
        from_probs({0: 1.5, 1: -0.5})


def test_prebinned_range_check():
    with pytest.raises(DataError):
        prebinned("x", np.array([0, 5]), 4)


@pytest.mark.parametrize("code", [
    70_000, -40_000,
    65_539, -65_537,  # would wrap to 3 and to MISSING in int16
    2 ** 32 + 3,  # and to 3 in int32
    -2,  # below MISSING, in range for any type
])
def test_out_of_range_codes_are_refused_before_the_cast(code):
    for dtype in (np.int64, np.uint64) if code > 0 else (np.int64,):
        with pytest.raises(DataError, match="out of range"):
            prebinned("x", np.array([0, code, 1], dtype=dtype), 10)


@pytest.mark.parametrize("count, dtype", [
    (1, np.int16), (2 ** 15, np.int16), (2 ** 15 + 1, np.int32),
    (_MAX_AUTO_BINS, np.int32),
])
def test_code_type_is_the_narrowest_that_holds_the_codes(count, dtype):
    assert code_dtype(count) == dtype
    info = np.iinfo(dtype)
    assert info.min <= MISSING and count - 1 <= info.max


@pytest.mark.parametrize("count, dtype", [(2 ** 15, np.int16),
                                          (2 ** 15 + 1, np.int32)])
def test_codes_are_stored_int16_up_to_32768_bins_then_int32(count, dtype):
    values = np.linspace(-1.0, 1.0, 3 * count)
    values[::5] = np.nan
    ch = bin_channel(values, count)
    assert ch.codes.dtype == dtype
    assert ch.codes.min() == MISSING and ch.codes.max() == count - 1
    finite = np.isfinite(values)
    want = np.full(values.size, MISSING, dtype=np.int64)
    want[finite] = _searched(ch.spec.edges, values[finite])
    assert np.array_equal(ch.codes, want)
    assert _bin_codes(ch.spec.edges, values[finite]).dtype == dtype
    # codes handed in, in any integer type, are kept in the same type
    for given_codes in (want, want.astype(np.int32), ch.codes):
        kept = BinnedChannel("x", ch.spec, given_codes)
        assert kept.codes.dtype == dtype
        assert np.array_equal(kept.codes, want)


@given(
    st.lists(
        st.floats(-1e6, 1e6, allow_subnormal=False),
        min_size=2,
        max_size=400,
    ),
    st.sampled_from([0.125, 0.25, 0.5, 2.0, 4.0, 8.0, 64.0]),
)
@settings(max_examples=60, deadline=None)
def test_scale_invariance(raw, a):
    # power-of-two scales commute exactly with every float rounding, so
    # the binning must be code-for-code identical
    values = np.asarray(raw)
    try:
        base = bin_channel(values, "fd", max_bins=4096)
    except DegenerateSpreadError:
        with pytest.raises(DegenerateSpreadError):
            bin_channel(a * values, "fd", max_bins=4096)
        return
    scaled = bin_channel(a * values, "fd", max_bins=4096)
    assert scaled.codes.tolist() == base.codes.tolist()
    assert scaled.spec.bin_count == base.spec.bin_count


def test_shift_invariance_fixed_data():
    rng = np.random.default_rng(42)
    values = rng.normal(size=3000)
    base = bin_channel(values, "fd")
    shifted = bin_channel(values + 3.25, "fd")
    assert shifted.codes.tolist() == base.codes.tolist()
    scaled = bin_channel(2.5 * values - 1.75, "scott")
    assert scaled.codes.tolist() == bin_channel(values, "scott").codes.tolist()


@given(st.integers(2, 5000), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_width_scaling_with_n(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.random(n) * 10
    try:
        w = fd_width(x)
    except DegenerateSpreadError:
        return
    # doubling the scale doubles the width; n is held fixed
    assert fd_width(2 * x) == pytest.approx(2 * w, rel=1e-9)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=500))
@settings(max_examples=60, deadline=None)
def test_pmf_sums_to_one(codes):
    p = list(one_channel_pmf(codes).values())
    assert math.isclose(math.fsum(p), 1.0, abs_tol=1e-9)
    assert all(v > 0 for v in p)

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroscope import entropy
from entroscope.entropy import (
    EntropyProfile,
    JointCounts,
    _shannon_bits_grouped,
    _shannon_bits_of_counts,
    joint_direct,
    profile,
    profile_joint,
    renyi,
)
from entroscope.errors import BudgetError, DataError
from entroscope.quantize import pmf_of
from helpers import from_probs
from oracles import prebinned

ALPHAS = (0.0, 0.5, 1.0, 2.0, 5.0, math.inf)


def uniform_pmf(n):
    return from_probs({i: 1.0 / n for i in range(n)})


def test_uniform_all_orders():
    pmf = uniform_pmf(256)
    for alpha in ALPHAS:
        assert renyi(pmf, alpha) == pytest.approx(8.0, abs=1e-12)


def test_renyi_hand_values():
    pmf = from_probs({0: 0.5, 1: 0.25, 2: 0.25})
    assert renyi(pmf, 2) == pytest.approx(-math.log2(0.375), abs=1e-12)
    assert renyi(pmf, math.inf) == pytest.approx(1.0, abs=1e-12)
    assert renyi(pmf, 0) == pytest.approx(math.log2(3), abs=1e-12)
    assert renyi(pmf, 1) == pytest.approx(1.5, abs=1e-12)


def test_renyi_negative_alpha():
    with pytest.raises(DataError):
        renyi(uniform_pmf(4), -0.5)


def test_near_one_routes_to_shannon():
    pmf = from_probs({0: 0.7, 1: 0.3})
    h1 = renyi(pmf, 1.0)
    assert renyi(pmf, 1.0 + 1e-7) == h1
    assert renyi(pmf, 1.0 - 1e-7) == h1


def test_profile_hand_case():
    prof = profile(from_probs({0: 0.5, 1: 0.25, 2: 0.25}))
    assert prof.h0 == pytest.approx(math.log2(3), abs=1e-12)
    assert prof.h1 == pytest.approx(1.5, abs=1e-12)
    assert prof.h2 == pytest.approx(-math.log2(0.375), abs=1e-12)
    assert prof.hmin == pytest.approx(1.0, abs=1e-12)


def test_profile_point_mass():
    prof = profile(from_probs({3: 1.0}))
    assert prof == EntropyProfile(0.0, 0.0, 0.0, 0.0)


def test_profile_two_point():
    prof = profile(from_probs({0: 0.75, 1: 0.25}))
    assert prof.h0 == pytest.approx(1.0, abs=1e-12)
    assert prof.h1 == pytest.approx(0.8112781244591328, abs=1e-12)
    assert prof.h2 == pytest.approx(-math.log2(0.625), abs=1e-12)
    assert prof.hmin == pytest.approx(-math.log2(0.75), abs=1e-12)


def test_ordering_enforced_on_construction():
    with pytest.raises(DataError):
        EntropyProfile(h0=1.0, h1=2.0, h2=0.5, hmin=0.1)


def random_pmf(rng, size):
    w = rng.random(size) + 1e-12
    p = w / w.sum()
    return from_probs({i: float(v) for i, v in enumerate(p)})


def test_monotone_in_alpha_seeded():
    rng = np.random.default_rng(2026)
    for _ in range(50):
        pmf = random_pmf(rng, int(rng.integers(2, 500)))
        values = [renyi(pmf, a) for a in ALPHAS]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-9


@given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.floats(0.0, 50.0))
@settings(max_examples=80, deadline=None)
def test_renyi_bounded_by_h0(size, seed, alpha):
    pmf = random_pmf(np.random.default_rng(seed), size)
    assert renyi(pmf, alpha) <= renyi(pmf, 0.0) + 1e-9


@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(size, seed):
    rng = np.random.default_rng(seed)
    w = rng.random(size) + 1e-12
    p = w / w.sum()
    perm = rng.permutation(size)
    a = from_probs({i: float(v) for i, v in enumerate(p)})
    b = from_probs({i: float(p[perm[i]]) for i in range(size)})
    for alpha in ALPHAS:
        assert renyi(a, alpha) == pytest.approx(renyi(b, alpha), abs=1e-9)


@pytest.mark.parametrize("bins", [
    (5,), (5000,),  # one column: dense, sorted
    (4, 6), (60, 70),  # two columns: dense, sorted
    (3, 4, 5), (30, 40, 50),  # three columns: dense, sorted
    (40, 50),  # a sorted base merged densely
])
@pytest.mark.parametrize("split", [None, 0, 400, 3000])
def test_joint_counts_match_unique(bins, split):
    # 3000 rows: the counts are dense exactly where the cells are no more
    rng = np.random.default_rng(len(bins) * 100 + bins[0])
    rows = 3000
    cols = [rng.integers(0, b, size=rows) for b in bins]
    cols[0][cols[0] == 1] = 2  # an empty bin inside the range
    before = [c.copy() for c in cols]
    if split is None:
        got = JointCounts(cols, list(bins))
    else:
        # the first split rows in the base, the rest merged into it
        base = JointCounts([c[:split] for c in cols], list(bins))
        base_before = base.keys.copy(), base.counts.copy()
        got = JointCounts([c[split:] for c in cols], list(bins), base)
        for g, w in zip((base.keys, base.counts), base_before):
            assert np.array_equal(g, w)  # the base is never written to
        assert base.n == split
    for g, w in zip(cols, before):
        assert np.array_equal(g, w)
    tuples, counts = np.unique(np.stack(cols, axis=1), axis=0, return_counts=True)
    assert got.n == rows
    assert got.bins == bins
    assert np.array_equal(got.keys, np.ravel_multi_index(tuples.T, bins))
    assert np.array_equal(got.counts, counts)
    p = counts / rows
    assert got.shannon.hex() == (-math.fsum((p * np.log2(p)).tolist())).hex()


@pytest.mark.parametrize("bins", [
    (6, 7),  # counted densely
    (2048, 2048), (2 ** 15, 2 ** 15),  # counted by a sort
])
def test_joint_counts_of_narrow_codes_match_int64_copies(bins):
    rng = np.random.default_rng(bins[0])
    rows = 3000
    chans = []
    for i, b in enumerate(bins):
        codes = rng.integers(0, b, size=rows)
        codes[:2] = 0, b - 1  # both ends of the range
        chans.append(prebinned(f"c{i}", codes, b))
    narrow = [ch.codes for ch in chans]
    assert all(c.dtype == np.int16 for c in narrow)
    before = [c.copy() for c in narrow]
    wide = [c.astype(np.int64) for c in narrow]
    for cols in ([narrow[0]], narrow):
        got = JointCounts(cols, list(bins[:len(cols)]))
        want = JointCounts([wide[0]] if len(cols) == 1 else wide,
                           list(bins[:len(cols)]))
        base = JointCounts([c[:1000] for c in cols], list(bins[:len(cols)]))
        merged = JointCounts([c[1000:] for c in cols], list(bins[:len(cols)]),
                             base)
        for g in (got, merged):
            for field in ("keys", "counts"):
                assert getattr(g, field).dtype == np.int64
                assert (getattr(g, field).tobytes()
                        == getattr(want, field).tobytes())
            assert g.shannon.hex() == want.shannon.hex()
    keys, counts = np.unique(wide[0] * bins[1] + wide[1], return_counts=True)
    assert np.array_equal(want.keys, keys)
    assert np.array_equal(want.counts, counts)
    for g, w in zip(narrow, before):  # fused in place, but never the codes
        assert g.tobytes() == w.tobytes()


def test_joint_counts_of_no_rows():
    empty = np.zeros(0, dtype=np.int64)
    for base in (None, JointCounts([empty, empty], [3, 4])):
        got = JointCounts([empty, empty], [3, 4], base)
        assert got.n == 0
        assert got.keys.size == got.counts.size == 0


def test_joint_direct_independent_bits():
    codes_a = np.array([0, 0, 1, 1], dtype=np.int64)
    codes_b = np.array([0, 1, 0, 1], dtype=np.int64)
    counts = joint_direct(
        [prebinned("a", codes_a, 2), prebinned("b", codes_b, 2)])
    assert counts.tolist() == [1, 1, 1, 1]
    assert profile_joint(counts) == EntropyProfile(2.0, 2.0, 2.0, 2.0)


def test_joint_direct_duplicated_channel():
    rng = np.random.default_rng(9)
    codes = rng.integers(0, 8, size=2000)
    ch = prebinned("x", codes, 8)
    counts = joint_direct([ch, ch])
    # the occupied tuples are (x, x), counted as often as x
    per_code = np.bincount(codes)
    assert np.array_equal(counts, per_code[per_code > 0])
    single = profile(pmf_of(codes))
    dup = profile_joint(counts)
    assert dup.h1 == pytest.approx(single.h1, abs=1e-9)
    assert dup.hmin == pytest.approx(single.hmin, abs=1e-9)


def test_joint_direct_skips_incomplete_rows():
    a = prebinned("a", np.array([0, -1, 1, 0]), 2)
    b = prebinned("b", np.array([1, 1, -1, 0]), 2)
    assert joint_direct([a, b]).tolist() == [1, 1]
    b = prebinned("b", np.array([1, 1, -1, 1]), 2)
    assert joint_direct([a, b]).tolist() == [2]


def test_joint_direct_orders_alike_past_fused_keys():
    # 2**21 bins on three channels: 2**63 states, too many for one int64 key
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 3, size=(500, 3)) * 2 ** 19
    wide = [prebinned(f"w{i}", rows[:, i], 2 ** 21) for i in range(3)]
    narrow = [prebinned(f"n{i}", rows[:, i] // 2 ** 19, 3) for i in range(3)]
    counts = joint_direct(narrow)
    assert np.array_equal(joint_direct(wide), counts)
    codes = rows // 2 ** 19
    _, want = np.unique(codes[:, 0] * 9 + codes[:, 1] * 3 + codes[:, 2],
                        return_counts=True)
    assert np.array_equal(counts, want)
    assert counts.sum() == 500


def test_joint_direct_no_complete_rows():
    a = prebinned("a", np.array([0, -1]), 2)
    b = prebinned("b", np.array([-1, 0]), 2)
    with pytest.raises(DataError, match="complete"):
        joint_direct([a, b])


def test_joint_direct_budget(monkeypatch):
    rng = np.random.default_rng(1)
    chans = [
        prebinned(f"c{i}", rng.integers(0, 1000, size=500), 1000)
        for i in range(4)
    ]
    # occupied states bounded by min(rows, bin product) = 500 > 100
    monkeypatch.setattr(entropy, "DEFAULT_JOINT_BUDGET", 100)
    with pytest.raises(BudgetError, match="Chow-Liu"):
        joint_direct(chans)


def test_joint_direct_h1_adds_for_independent():
    rng = np.random.default_rng(12)
    a = prebinned("a", rng.integers(0, 4, size=200_000), 4)
    b = prebinned("b", rng.integers(0, 8, size=200_000), 8)
    jp = profile_joint(joint_direct([a, b]))
    ha = profile(pmf_of(a.codes)).h1
    hb = profile(pmf_of(b.codes)).h1
    assert jp.h1 == pytest.approx(ha + hb, abs=0.01)


def test_profile_joint_product_of_uniforms():
    # 3 independent uniform channels over 4 bins: every order is 3*2
    prof = profile_joint(np.ones(64, dtype=np.int64))
    for v in (prof.h0, prof.h1, prof.h2, prof.hmin):
        assert v == pytest.approx(6.0, abs=1e-12)


def test_profile_joint_hand_case():
    prof = profile_joint(np.array([2, 1, 1]))
    assert prof.h1 == pytest.approx(1.5, abs=1e-12)
    assert prof.hmin == pytest.approx(1.0, abs=1e-12)


def _per_cell_bits(counts, n):
    """The per-cell Shannon sum the counts-based helpers must reproduce."""
    p = counts[counts > 0] / n
    return -math.fsum((p * np.log2(p)).tolist())


@pytest.mark.parametrize("case", [
    "distinct", "equal", "equal_few", "single", "small", "zeros", "wide", "n_above_sum"])
def test_shannon_of_counts_matches_per_cell_sum(case):
    rng = np.random.default_rng(list(map(ord, case)))
    for _ in range(200):
        cells = int(rng.integers(1, 3000))
        counts = {
            "distinct": rng.permutation(cells) + 1,
            "equal": np.full(cells, int(rng.integers(1, 10 ** 6))),
            "equal_few": np.full(cells, int(rng.integers(1, cells + 1))),
            "single": np.array([int(rng.integers(1, 10 ** 9))]),
            "small": rng.integers(1, 6, size=cells),
            "zeros": rng.integers(0, 40, size=cells),
            "wide": rng.integers(1, 10 ** 7, size=cells),
            "n_above_sum": rng.geometric(0.05, size=cells),
        }[case]
        n = int(counts.sum())
        if case == "n_above_sum" or n == 0:
            n += int(rng.integers(1, 1000))
        want = _per_cell_bits(counts, n).hex()
        # the multiplicity form directly, and the counts form by either route
        values, mult = np.unique(counts[counts > 0], return_counts=True)
        assert _shannon_bits_grouped(values, mult, n).hex() == want
        assert _shannon_bits_of_counts(counts, n).hex() == want


def test_shannon_grouped_exact_past_split_multiplicities():
    # mult[i] cells of count values[i], without making the cells: the oracle
    # is the exact rational sum of the per-cell terms, rounded once
    rng = np.random.default_rng(29)
    for trial in range(300):
        k = int(rng.integers(1, 40))
        values = np.sort(rng.choice(10 ** 6, size=k, replace=False)) + 1
        top = [2 ** 27 - 1, 2 ** 27 + 1, 2 ** 40, 2 ** 53 - 1][trial % 4]
        mult = rng.integers(1, top, size=k, endpoint=True)
        n = int(values @ mult.astype(object)) + int(rng.integers(0, 5))
        p = values / n
        terms = p * np.log2(p)
        exact = sum(Fraction(int(m)) * Fraction(float(t))
                    for m, t in zip(mult, terms))
        got = _shannon_bits_grouped(values, mult, n)
        assert got.hex() == (-float(exact)).hex()
    # small multiplicities against the per-cell sum itself
    values = np.array([1, 2, 3, 977])
    mult = np.array([5, 1, 1000, 3])
    n = int(values @ mult)
    got = _shannon_bits_grouped(values, mult, n)
    assert got.hex() == _per_cell_bits(np.repeat(values, mult), n).hex()

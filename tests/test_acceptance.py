"""Acceptance gate: ten numbered end-to-end checks, one verdict line each.

Run with plain pytest; every test prints `[criterion NN] PASS/FAIL ...`
through the capture bypass so the verdicts survive quiet runs. Criterion 8
needs an externally downloaded dataset and skips (never fails) without it.
"""

import math
import os
import time

import numpy as np
import pytest

from entroscope.chowliu import PairStats, build_tree, tree_profile, validate
from entroscope.entropy import joint_direct, profile_joint
from entroscope.guesswork import guesswork_table
from entroscope.ingest import load_manifest, load_table
from entroscope.quantize import Pmf, bin_channel
from entroscope.sweep import enumerate_subsets, run_sweep
from entroscope.synth import sensor_table
from oracles import as_chowliu, brute_profile, prebinned, random_tree_model, renyi

UCI_HAR_ENV = "ENTROSCOPE_UCI_HAR_DIR"
MANIFEST_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "manifests")


def _verdict(num: int, status: bool, name: str, detail: str, capsys) -> None:
    word = {True: "PASS", False: "FAIL", None: "SKIP"}[status]
    with capsys.disabled():
        print(f"[criterion {num:02d}] {word} {name} — {detail}")


@pytest.fixture(scope="module")
def synth_table():
    return sensor_table(seed=7, rows=100_000)


def test_criterion_01_order_monotonicity(capsys):
    # H_alpha never increases in alpha, checked on 1,000 random pmfs
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    grid = (0.0, 0.5, 1.0, 2.0, 5.0, math.inf)
    worst = -math.inf
    for _ in range(1000):
        size = int(rng.integers(2, 10_001))
        w = rng.random(size) + 1e-12
        pmf = Pmf(np.arange(size), w / w.sum())
        hs = [renyi(pmf, a) for a in grid]
        worst = max(worst, max(b - a for a, b in zip(hs, hs[1:])))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _verdict(1, ok, "Renyi order monotonicity",
             f"max increase {worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 5s)",
             capsys)
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_uniform_exactness(capsys):
    worst = 0.0
    for k in range(1, 17):
        prof = profile_joint(np.ones(2 ** k))
        for h in (prof.h0, prof.h1, prof.h2, prof.hmin):
            worst = max(worst, abs(h - k))
    ok = worst <= 1e-9
    _verdict(2, ok, "uniform pmf exactness",
             f"max |H - k| {worst:.2e} over k=1..16 (tol 1e-9)", capsys)
    assert worst <= 1e-9


def test_criterion_03_tree_oracle_equivalence(capsys):
    # tree message passing must equal brute-force expansion on known models
    t0 = time.perf_counter()
    master = np.random.default_rng(7)
    worst = 0.0
    for seed in range(50):
        nodes = int(master.integers(2, 7))
        arity = int(master.integers(2, 7))
        model = random_tree_model(seed, nodes, arity)
        want = brute_profile(model)
        got = tree_profile(as_chowliu(model))
        worst = max(
            worst,
            abs(got.h0 - want.h0), abs(got.h1 - want.h1),
            abs(got.h2 - want.h2), abs(got.hmin - want.hmin),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _verdict(3, ok, "tree vs brute-force oracle",
             f"max per-order gap {worst:.2e} over 50 models (tol 1e-6), "
             f"{elapsed:.2f}s (< 30s)", capsys)
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_04_direct_vs_tree_dominance(capsys):
    # non-tree data: the tree's Shannon entropy must dominate the direct
    # value, and the whole profile must stay close to it
    t0 = time.perf_counter()
    margins, rels = [], []
    for seed in range(20):
        rng = np.random.default_rng(20260819 + seed)
        n = 100_000
        shared = rng.standard_normal(n)  # common factor -> 3-way dependence
        chans = [
            bin_channel(shared + 0.8 * rng.standard_normal(n), "12", name=f"s{i}")
            for i in range(3)
        ]
        rep = validate(chans)
        margins.append(rep.chowliu.h1 - rep.direct.h1)
        rels.append(rep.rel_error_pct)
    elapsed = time.perf_counter() - t0
    mean_rel = math.fsum(rels) / len(rels)
    ok = min(margins) >= -1e-9 and mean_rel <= 15.0 and elapsed < 120.0
    _verdict(4, ok, "direct-vs-tree dominance",
             f"min h1 margin {min(margins):.2e} (>= -1e-9), mean rel err "
             f"{mean_rel:.2f}% (<= 15%), {elapsed:.1f}s (< 2min)", capsys)
    assert min(margins) >= -1e-9
    assert mean_rel <= 15.0
    assert elapsed < 120.0


def test_criterion_05_guesswork_golden_table(capsys):
    # frozen 5x4 cost grid; every cell is the formatter applied to
    # E[G] = 2^(hmin-1) and t = E[G]/rate, compared as exact strings
    expected_guesses = ("128", "2,048", "32,768", "524,288", "8.39e6")
    expected_times = (
        ("128 s", "12.8 s", "0.128 s", "0.128 ms"),
        ("34.1 min", "3.41 min", "2.05 s", "2.05 ms"),
        ("9.10 h", "54.6 min", "32.8 s", "32.8 ms"),
        ("6.07 d", "14.6 h", "8.74 min", "0.524 s"),
        ("97.1 d", "9.71 d", "2.33 h", "8.39 s"),
    )
    table = guesswork_table((8, 12, 16, 20, 24), (1, 10, 1e3, 1e6))
    bad = []
    for i, h in enumerate(table.hmins):
        if table.expected[i] != expected_guesses[i]:
            bad.append(f"E[G]@{h:g}: {table.expected[i]!r}")
        for j, r in enumerate(table.rates):
            if table.times[i][j] != expected_times[i][j]:
                bad.append(f"t@({h:g},{r:g}): {table.times[i][j]!r}")
    ok = not bad
    _verdict(5, ok, "guesswork golden table",
             "all 25 cells exact" if ok else f"mismatches: {bad}", capsys)
    assert table.times[2][3] == "32.8 ms"  # the formula value, kept on purpose
    assert not bad


def test_criterion_06_subset_counting(capsys):
    bad = []
    for n in range(2, 21):
        names = [f"c{i}" for i in range(n)]
        count = sum(1 for _ in enumerate_subsets(names, 2, None))
        if count != 2 ** n - n - 1:
            bad.append((n, count))
    ok = not bad
    _verdict(6, ok, "subset counting",
             "2^n - n - 1 exact for n=2..20" if ok else f"wrong: {bad}",
             capsys)
    assert not bad


def test_criterion_07_sweep_determinism_and_scale(synth_table, capsys):
    t0 = time.perf_counter()
    errors1, errors8 = [], []
    serial = run_sweep(synth_table, "fd", workers=1, errors=errors1)
    parallel = run_sweep(synth_table, "fd", workers=8, errors=errors8)
    elapsed = time.perf_counter() - t0
    identical = (
        len(serial) == len(parallel)
        and not errors1 and not errors8
        and all(
            a.subset == b.subset and a.profile == b.profile and a.gap == b.gap
            for a, b in zip(serial, parallel)
        )
    )
    ok = identical and len(serial) == 247 and elapsed < 300.0
    _verdict(7, ok, "sweep determinism at scale",
             f"{len(serial)} subsets, 1 vs 8 workers bitwise "
             f"{'identical' if identical else 'DIFFERENT'}, {elapsed:.1f}s "
             f"(< 5min)", capsys)
    assert len(serial) == 247
    assert identical
    assert elapsed < 300.0


def test_criterion_08_dataset_reproduction(capsys):
    root = os.environ.get(UCI_HAR_ENV, "").strip()
    if not root:
        _verdict(8, None, "dataset reproduction",
                 f"set {UCI_HAR_ENV} to the directory holding "
                 "uci_har_pooled.csv to run (non-blocking)", capsys)
        pytest.skip(f"{UCI_HAR_ENV} not set")
    try:
        manifest = load_manifest(os.path.join(MANIFEST_DIR, "uci-har.yaml"))
        table = load_table(manifest, root)
        chans = [
            bin_channel(table.column(name), "fd", name=name, max_bins=2048)
            for name in table.channels
        ]
        profs = [profile_joint(joint_direct([ch])) for ch in chans]
        mean_h1 = math.fsum(p.h1 for p in profs) / len(profs)
        mean_hmin = math.fsum(p.hmin for p in profs) / len(profs)
        joint_hmin = tree_profile(build_tree(chans)).hmin
    except Exception as exc:  # pragma: no cover - depends on local data
        _verdict(8, False, "dataset reproduction", f"{exc}", capsys)
        raise
    ok = (
        abs(mean_h1 - 6.235) <= 0.5
        and abs(mean_hmin - 3.508) <= 0.5
        and abs(joint_hmin - 11.008) <= 1.0
    )
    _verdict(8, ok, "dataset reproduction",
             f"mean H1 {mean_h1:.3f} (target 6.235±0.5), mean Hmin "
             f"{mean_hmin:.3f} (3.508±0.5), all-sensors Hmin {joint_hmin:.3f} "
             f"(11.008±1.0)", capsys)
    assert abs(mean_h1 - 6.235) <= 0.5
    assert abs(mean_hmin - 3.508) <= 0.5
    assert abs(joint_hmin - 11.008) <= 1.0


def test_criterion_09_bin_sensitivity_plateau(synth_table, capsys):
    # auto-selected bins must sit on the plateau the dense grid converges to
    fd = [
        bin_channel(synth_table.column(n), "fd", name=n, max_bins=2048)
        for n in synth_table.channels
    ]
    dense = [
        bin_channel(synth_table.column(n), "2048", name=n)
        for n in synth_table.channels
    ]
    prof_fd = tree_profile(build_tree(fd))
    prof_dense = tree_profile(build_tree(dense))
    rel = [
        abs(a - b) / b
        for a, b in (
            (prof_fd.h0, prof_dense.h0),
            (prof_fd.h1, prof_dense.h1),
            (prof_fd.h2, prof_dense.h2),
        )
    ]
    ok = max(rel) <= 0.05
    _verdict(9, ok, "bin-sensitivity plateau",
             f"max relative H0-H2 gap {max(rel):.2%} between auto bins and "
             "the 2048-bin reference (tol 5%)", capsys)
    assert max(rel) <= 0.05


def test_criterion_10_mutual_information_properties(capsys):
    rng = np.random.default_rng(4242)
    n = 1_000_000
    x = rng.integers(0, 2, n)
    y = np.where(rng.random(n) < 0.25, 1 - x, x)  # binary channel, 25% flips
    a = prebinned("x", x, 2)
    b = prebinned("y", y, 2)

    mi_ab = PairStats([a, b]).mi("x", "y")
    sym_gap = abs(mi_ab - PairStats([b, a]).mi("y", "x"))
    self_gap = abs(PairStats([a]).mi("x", "x") - profile_joint(joint_direct([a])).h1)
    hb = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    noise_gap = abs(mi_ab - (1.0 - hb))

    ok = sym_gap <= 1e-9 and self_gap <= 1e-9 and noise_gap <= 0.01
    _verdict(10, ok, "mutual-information properties",
             f"symmetry {sym_gap:.2e} (tol 1e-9), self-MI {self_gap:.2e} "
             f"(tol 1e-9), noisy-channel gap {noise_gap:.4f} bits (tol 0.01)",
             capsys)
    assert sym_gap <= 1e-9
    assert self_gap <= 1e-9
    assert noise_gap <= 0.01

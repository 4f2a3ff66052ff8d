import contextlib
import io
import json
import math
import os
import signal
import tracemalloc

import numpy as np
import pytest

from entroscope import sweep, synth
from entroscope.chowliu import PairStats, build_tree, tree_profile
from entroscope.cli_report import run
from entroscope.errors import DataError, EntroscopeError
from entroscope.ingest import SampleTable
from entroscope.quantize import bin_channel
from entroscope.sweep import (
    DEFAULT_GRID,
    MAX_JOINT_BINS,
    SubsetResult,
    enumerate_subsets,
    run_sweep,
    sensitivity,
    size_means,
    top_k,
)


def test_enumerate_counts_small():
    assert len(list(enumerate_subsets("abc", 2, 3))) == 4
    assert len(list(enumerate_subsets("abcdef", 2, 6))) == 57


def test_enumerate_counts_closed_form():
    for n in range(2, 21):
        names = [f"c{i}" for i in range(n)]
        count = sum(1 for _ in enumerate_subsets(names, 2, n))
        assert count == 2 ** n - n - 1


def test_enumerate_order_is_size_then_lex():
    subsets = list(enumerate_subsets(["a", "b", "c"], 2, 3))
    assert subsets == [("a", "b"), ("a", "c"), ("b", "c"), ("a", "b", "c")]


def test_enumerate_bounds_validation():
    with pytest.raises(DataError):
        list(enumerate_subsets("abc", 1, 3))
    with pytest.raises(DataError):
        list(enumerate_subsets("abc", 2, 4))
    with pytest.raises(DataError):
        list(enumerate_subsets("abc", 3, 2))


def test_run_sweep_checks_sizes_before_binning(monkeypatch):
    def no_binning(*args, **kwargs):
        raise AssertionError("binned a channel")

    monkeypatch.setattr(sweep, "bin_channel", no_binning)
    table = small_table(rows=50)
    for low, high in ((1, 3), (3, 2), (2, 5)):
        with pytest.raises(DataError, match="min_size"):
            run_sweep(table, 8, min_size=low, max_size=high)


def small_table(rows=4000, channels=4, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, channels))
    data[:, 1] += data[:, 0]
    names = tuple(f"ch{i}" for i in range(channels))
    return SampleTable(names, data, "unit")


def test_run_sweep_pair_count():
    table = small_table()
    results = run_sweep(table, 16, min_size=2, max_size=2)
    assert len(results) == 6
    assert all(r.size == 2 for r in results)


def test_run_sweep_canonical_order_and_gap():
    table = small_table()
    results = run_sweep(table, 8)
    subsets = [r.subset for r in results]
    assert subsets == list(enumerate_subsets(table.channels, 2, 4))
    for r in results:
        assert r.gap == r.profile.h1 - r.profile.hmin
        assert r.gap >= -1e-9


def test_run_sweep_worker_determinism():
    table = small_table(rows=2000)
    one = run_sweep(table, 8, workers=1)
    many = run_sweep(table, 8, workers=3)
    assert len(one) == len(many)
    for a, b in zip(one, many):
        assert a.subset == b.subset
        assert a.profile == b.profile  # exact float equality


def test_run_sweep_matches_direct_tree_call():
    table = small_table(rows=3000)
    results = run_sweep(table, 8, min_size=2, max_size=2)
    chans = {
        name: bin_channel(table.column(name), 8, name=name, max_bins=2048)
        for name in table.channels
    }
    first = results[0]
    want = tree_profile(build_tree([chans[n] for n in first.subset]))
    assert first.profile == want


@pytest.mark.parametrize("workers", [1, 3])
def test_run_sweep_matches_fresh_trees_with_missing_values(workers):
    # ch0, ch2 and ch4 are fully observed, so their subsets reuse the sweep's
    # pair counts; every subset with ch1 or ch3 counts on its own rows
    rng = np.random.default_rng(3)
    rows = 3000
    data = rng.normal(size=(rows, 5))
    data[:, 1] += data[:, 0]
    data[:, 3] += data[:, 2]
    data[rng.random(rows) < 0.05, 1] = np.nan
    data[rng.random(rows) < 0.1, 3] = np.nan
    names = tuple(f"ch{i}" for i in range(5))
    table = SampleTable(names, data, "unit")
    chans = {
        name: bin_channel(table.column(name), "fd", name=name,
                          max_bins=MAX_JOINT_BINS)
        for name in names
    }
    results = run_sweep(table, "fd", workers=workers)
    assert [r.subset for r in results] == list(enumerate_subsets(names))
    for r in results:
        want = tree_profile(build_tree([chans[n] for n in r.subset]))
        assert r.profile == want, r.subset
    # the sweep's state does not outlive it
    assert not any(isinstance(v, PairStats) for v in vars(sweep).values())


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_error_ledger(workers):
    rng = np.random.default_rng(5)
    data = np.column_stack([
        rng.normal(size=1000),
        np.full(1000, 3.0),  # constant: FD cannot bin it
        rng.normal(size=1000),
    ])
    table = SampleTable(("a", "bad", "c"), data, "unit")
    errors = []
    results = run_sweep(table, "fd", workers=workers, errors=errors)
    assert {r.subset for r in results} == {("a", "c")}
    assert len(errors) == 3  # every subset touching the constant channel
    assert all("bad" in subset for subset, _ in errors)
    assert all("not binned" in msg for _, msg in errors)
    assert not any(isinstance(v, PairStats) for v in vars(sweep).values())
    # every subset holds the constant channel: none is left to fit
    errors = []
    table = SampleTable(("a", "bad"), data[:, :2], "unit")
    assert run_sweep(table, "fd", workers=workers, errors=errors) == []
    assert [subset for subset, _ in errors] == [("a", "bad")]


def test_run_sweep_refuses_an_unknown_rule_before_any_subset():
    table = SampleTable(("a", "b", "c"), np.arange(30.0).reshape(10, 3), "unit")
    errors = []
    with pytest.raises(DataError, match="unknown binning rule 'bogus'"):
        run_sweep(table, "bogus", errors=errors)
    assert errors == []


def test_progress_counts_every_subset_alike_serial_and_pooled(capsys):
    # the constant channel fails to bin, and its subsets still count
    rng = np.random.default_rng(6)
    data = rng.normal(size=(1000, 4))
    data[:, 2] = 3.0
    table = SampleTable(("a", "b", "bad", "d"), data, "unit")
    counts = []
    for workers in (1, 2):
        capsys.readouterr()
        run_sweep(table, "fd", workers=workers)
        counts.append([
            line.split()[1] for line in capsys.readouterr().err.splitlines()
            if line.startswith("sweep: ")
        ])
    assert counts[0] == counts[1]
    assert counts[0][-1] == "11/11"


@pytest.fixture
def deadline():
    """Fail the test, rather than hang it, if it runs past 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)  # forked children do not inherit it
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _in_workers(monkeypatch, end):
    """Make every forked worker call end() in place of fitting its range."""
    caller = os.getpid()
    profile = sweep._profile

    def fit_range(stats, subsets):
        if os.getpid() != caller:
            end()
        return profile(stats, subsets)

    monkeypatch.setattr(sweep, "_profile", fit_range)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("end, how", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    (lambda: os._exit(3), "exited with status 3"),
], ids=["sigkill", "exit-3"])
def test_a_dead_worker_fails_the_sweep(monkeypatch, capsys, deadline, end, how):
    _in_workers(monkeypatch, end)
    with pytest.raises(EntroscopeError,
                       match=rf"^sweep worker 2 \(pid \d+\) {how}"):
        run_sweep(small_table(rows=500), 8, workers=2)
    _no_child_left()
    # a processing error: the CLI exits 2 and names the worker
    capsys.readouterr()
    assert run(["sweep", "--synthetic", "--rows", "300", "--max-size", "2",
                "--workers", "2"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: sweep worker 2 (pid ")
    _no_child_left()


def test_a_raising_worker_prints_its_traceback(monkeypatch, capfd, deadline):
    def fail():
        raise RuntimeError("no fit in this worker")

    _in_workers(monkeypatch, fail)
    # the first worker reaped fails the sweep; the caller kills the other
    with pytest.raises(EntroscopeError, match=r"worker 2 \(pid \d+\) exited "
                                              r"with status 1$"):
        run_sweep(small_table(rows=500), 8, workers=3)
    err = capfd.readouterr().err
    assert "Traceback (most recent call last):" in err
    assert "RuntimeError: no fit in this worker" in err
    _no_child_left()


def test_a_failing_caller_reaps_every_worker(monkeypatch, deadline):
    # the caller's own range raises while its workers still run or wait
    caller = os.getpid()
    fit = sweep.build_tree

    def build_tree_in_workers(chans, shared=None):
        if os.getpid() == caller:
            raise RuntimeError("the caller's range failed")
        return fit(chans, shared)

    monkeypatch.setattr(sweep, "build_tree", build_tree_in_workers)
    with pytest.raises(RuntimeError, match="the caller's range failed"):
        run_sweep(small_table(rows=500), 8, workers=3)
    _no_child_left()


def test_run_sweep_monotone_h0():
    table = small_table(rows=3000)
    results = {r.subset: r for r in run_sweep(table, 8)}
    for subset, r in results.items():
        for bigger, rb in results.items():
            if set(subset) < set(bigger):
                assert rb.profile.h0 >= r.profile.h0 - 1e-9


def test_top_k_ranking():
    table = small_table()
    results = run_sweep(table, 8)
    ranked = top_k(results, 5)
    assert len(ranked) == 5
    hmins = [r.profile.hmin for r in ranked]
    assert hmins == sorted(hmins, reverse=True)
    # k beyond the result count returns everything, still sorted
    full = top_k(results, 10_000)
    assert len(full) == len(results)


def test_top_k_tie_break_is_stable():
    prof_hi = tree_profile(
        build_tree([
            bin_channel(np.arange(100.0) % 7, 7, name="a"),
            bin_channel((np.arange(100.0) * 3) % 5, 5, name="b"),
        ])
    )
    r1 = SubsetResult(("a", "b"), prof_hi)
    r2 = SubsetResult(("a", "c"), prof_hi)
    assert top_k([r1, r2], 2) == [r1, r2]
    assert top_k([r2, r1], 2) == [r2, r1]


def test_top_k_validation():
    with pytest.raises(DataError):
        top_k([], 3)


def test_size_means():
    table = small_table()
    results = run_sweep(table, 8)
    means = size_means(results)
    sizes = [s for s, _, _ in means]
    assert sizes == [2, 3, 4]
    counts = {s: c for s, c, _ in means}
    assert counts == {2: 6, 3: 4, 4: 1}
    by_size = {}
    for r in results:
        by_size.setdefault(r.size, []).append(r.profile.h1)
    for size, _, prof in means:
        assert prof.h1 == pytest.approx(
            math.fsum(by_size[size]) / len(by_size[size]), abs=1e-12
        )


@pytest.mark.parametrize("rule", ["fd", "scott", 8])
def test_channel_range_past_float64_is_a_data_error(rule):
    # normals times 1e308 span more than float64 holds: vmax - vmin is inf
    rng = np.random.default_rng(8)
    data = rng.normal(size=(1000, 3))
    with np.errstate(over="ignore"):  # the largest few become inf: missing
        data[:, 1] *= 1e308
    data[:, 2] += data[:, 0]
    table = SampleTable(("a", "huge", "c"), data, "unit")
    with pytest.raises(DataError, match=r"channel 'huge': range \[-.*e\+308, .*e\+308\]"):
        bin_channel(table.column("huge"), rule, name="huge")
    errors = []
    results = run_sweep(table, rule, errors=errors)
    assert [r.subset for r in results] == [("a", "c")]
    assert [subset for subset, _ in errors] == [
        ("a", "huge"), ("huge", "c"), ("a", "huge", "c")]
    assert all(msg.startswith("not binned: channel 'huge': range [")
               for _, msg in errors)


def test_sensitivity_single_uniform_channel():
    # 4096 evenly spread values: fixed counts 2/4/8 give exactly uniform codes
    values = (np.arange(4096.0) + 0.5) / 4096.0
    table = SampleTable(("u",), values[:, None], "unit")
    curve = sensitivity(table, ["u"], [2, 4, 8])
    h1s = [prof.h1 for _, prof in curve.points]
    assert h1s == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)


def test_sensitivity_markers_and_defaults():
    table = small_table(rows=5000)
    curve = sensitivity(table, ["ch0", "ch1"])
    assert [c for c, _ in curve.points] == list(DEFAULT_GRID)
    # the markers are the mean bin counts of the channels binned by each rule
    counts = {
        rule: [bin_channel(table.column(n), rule, name=n).spec.bin_count
               for n in ("ch0", "ch1")]
        for rule in ("fd", "scott")
    }
    assert curve.markers == (float(np.mean(counts["fd"])),
                             float(np.mean(counts["scott"])))


def _mostly_zero_table():
    """a ~ N(0, 1); b is zero on 1,700 of 2,000 rows, so its quartiles meet
    and FD cannot bin it, while Scott can."""
    rng = np.random.default_rng(12)
    b = np.zeros(2000)
    b[rng.permutation(2000)[:300]] = rng.normal(size=300)
    return SampleTable(("a", "b"), np.column_stack([rng.normal(size=2000), b]),
                       "unit")


def test_sensitivity_marks_a_rule_that_cannot_bin_a_channel_nan():
    table = _mostly_zero_table()
    curve = sensitivity(table, ["a", "b"], [4, 8])
    fd, scott = curve.markers
    assert math.isnan(fd)
    scotts = [bin_channel(table.column(n), "scott", name=n).spec.bin_count
              for n in ("a", "b")]
    assert scott == float(np.mean(scotts))
    # the curve bins at fixed counts, so it is drawn all the same
    for count, prof in curve.points:
        assert prof == tree_profile(build_tree(
            [bin_channel(table.column(n), count, name=n) for n in ("a", "b")]))
    assert [count for count, _ in curve.points] == [4, 8]


def test_sensitivity_report_gives_a_failed_rule_a_null_marker(tmp_path):
    table = _mostly_zero_table()
    (tmp_path / "d.csv").write_text("a,b\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in table.rows.tolist()))
    (tmp_path / "m.yaml").write_text(
        "name: d\nchannels: [A, B]\n"
        "files:\n  - {path: d.csv, columns: {a: A, b: B}}\n")
    path = tmp_path / "sens.json"
    code = run(["sensitivity", "--manifest", str(tmp_path / "m.yaml"),
                "--subset", "A,B", "--grid", "4,8",
                "--format", "structured", "--out", str(path)])
    assert code == 0
    payload = json.loads(path.read_bytes())["payload"]
    assert payload["fd_marker"] is None
    assert payload["scott_marker"] > 0
    assert [row[0] for row in payload["rows"]] == [4, 8]


def test_sensitivity_markers_stop_at_the_sweep_cap():
    # a Cauchy channel's tails stretch its range far past its quartiles, so
    # FD alone would ask for tens of thousands of bins
    rng = np.random.default_rng(9)
    data = np.column_stack([rng.normal(size=20_000),
                            rng.standard_cauchy(size=20_000) * 1e4])
    table = SampleTable(("n", "c"), data, "unit")
    uncapped = bin_channel(table.column("c"), "fd", name="c", max_bins=10**6)
    assert uncapped.spec.bin_count > MAX_JOINT_BINS
    fd, scott = sensitivity(table, ["n", "c"], [4, 8]).markers
    assert fd <= MAX_JOINT_BINS and scott <= MAX_JOINT_BINS
    capped = bin_channel(table.column("n"), "fd", name="n").spec.bin_count
    assert fd == (capped + MAX_JOINT_BINS) / 2


def test_sensitivity_grid_validation():
    table = small_table(rows=500)
    with pytest.raises(DataError):
        sensitivity(table, ["ch0"], [8, 4])
    with pytest.raises(DataError):
        sensitivity(table, ["ch0"], [1, 4])
    one_point = sensitivity(table, ["ch0", "ch1"], [16])
    assert len(one_point.points) == 1


def test_sensitivity_profiles_ordered():
    table = small_table(rows=2000)
    curve = sensitivity(table, ["ch0", "ch2"], [5, 32, 256])
    for _, prof in curve.points:
        assert prof.hmin <= prof.h2 + 1e-9 <= prof.h1 + 2e-9 <= prof.h0 + 3e-9


def test_sweep_on_synthetic_table_small():
    table = synth.sensor_table(seed=7, rows=8000)
    results = run_sweep(table, "fd", min_size=2, max_size=2)
    assert len(results) == 28  # C(8,2)
    for r in results:
        assert r.profile.h0 > 0


def test_sweep_adds_under_three_quarters_of_its_float_table():
    # int16 codes fused in place in int64 keys: the working set is about
    # half the float table, where int64 codes alone were all of it (1.41x)
    table = synth.sensor_table(seed=7, rows=200_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stderr(io.StringIO()):
            results = run_sweep(table, "fd")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(results) == 2 ** 8 - 8 - 1
    assert peak <= 0.75 * table.rows.nbytes


def _binned(table, rule):
    return {
        name: bin_channel(table.column(name), rule, name=name,
                          max_bins=MAX_JOINT_BINS)
        for name in table.channels
    }


def test_sweep_without_clean_rows():
    # a is missing in the first half and b in the second, so no row is
    # complete in every channel; subsets holding both have no rows at all
    rng = np.random.default_rng(71)
    data = rng.normal(size=(2000, 4))
    data[:, 2] += data[:, 0]
    data[:1000, 0] = np.nan
    data[1000:, 1] = np.nan
    table = SampleTable(("a", "b", "c", "d"), data, "unit")
    errors = []
    results = run_sweep(table, "fd", errors=errors)
    assert errors == [
        (("a", "b"), "no complete rows"),
        (("a", "b", "c"), "no complete rows"),
        (("a", "b", "d"), "no complete rows"),
        (("a", "b", "c", "d"), "no complete rows"),
    ]
    assert [r.subset for r in results] == [
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"),
        ("a", "c", "d"), ("b", "c", "d"),
    ]
    chans = _binned(table, "fd")
    for r in results:
        # each subset fitted alone counts its pairs directly on its own rows
        assert r.profile == tree_profile(build_tree([chans[n] for n in r.subset]))
    assert results == run_sweep(table, "fd", workers=2)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_when_no_channel_bins(workers):
    table = SampleTable(("a", "b", "c"), np.ones((100, 3)), "unit")
    errors = []
    assert run_sweep(table, "fd", workers=workers, errors=errors) == []
    reason = {}
    for name in table.channels:
        with pytest.raises(EntroscopeError) as exc:
            bin_channel(table.column(name), "fd", name=name,
                        max_bins=MAX_JOINT_BINS)
        reason[name] = f"not binned: {exc.value}"
    assert errors == [
        (("a", "b"), reason["a"]),
        (("a", "c"), reason["a"]),
        (("b", "c"), reason["b"]),
        (("a", "b", "c"), reason["a"]),
    ]

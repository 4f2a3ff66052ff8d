"""Seeded inputs and one repetition of each benchmark workload.

A workload has a generator, which writes or builds its inputs from a seed,
and a repetition, which drives entroscope from those inputs to emitted
reports. Repetitions call only the stable entry points: run_sweep, top_k,
size_means, validate, bin_channel (for validate's channels), emit and
cli_report.run. Each module is looked up at call time, so a Tracer active
around a repetition sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from entroscope import chowliu, cli_report, ingest, quantize, sweep, synth

ROWS = 100_000
CSV_ROWS = 50_000
CSV_EMPTY_SHARE = 0.025
CSV_CHUNK_ROWS = 10_000  # bounds the writer's string buffers
# raw CSV column -> channel; Acc.Mag is added by the manifest as a magnitude
CSV_COLUMNS = {
    "acc_x": "Acc.X", "acc_y": "Acc.Y", "acc_z": "Acc.Z",
    "gyro_x": "Gyro.X", "gyro_y": "Gyro.Y", "gyro_z": "Gyro.Z",
}
WIDE_MIN_SIZE = 10
PARALLEL_WORKERS = 2
TOP_K = 10
VALIDATE_CHANNELS = 3
PROFILE_COLUMNS = ("h0", "h1", "h2", "hmin")
ORDER_SLACK = 1e-9  # the ordering tolerance EntropyProfile itself applies


class Ledger:
    """Operations attempted and failed over a whole benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"bench: {failed} of {attempted} failed: {what}",
                  file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, f"check {what}")


@dataclass
class Rep:
    """What one repetition produced: reports by name, and its sweep time."""

    outputs: dict[str, bytes] = field(default_factory=dict)
    sweep_s: float = 0.0
    subsets: int = 0


def canonical(data: bytes) -> bytes:
    """A structured report without its metadata, whose timestamp varies."""
    doc = json.loads(data)
    doc.pop("metadata", None)
    return json.dumps(doc, sort_keys=True).encode()


def check_profiles(name: str, data: bytes, ledger: Ledger) -> None:
    """Every row carrying a full profile keeps hmin <= h2 <= h1 <= h0."""
    payload = json.loads(data)["payload"]
    cols = payload["columns"]
    if not all(c in cols for c in PROFILE_COLUMNS):
        return
    at = [cols.index(c) for c in PROFILE_COLUMNS]
    bad = 0
    for row in payload["rows"]:
        h0, h1, h2, hmin = (row[i] for i in at)
        if h0 is None:  # a channel that could not be binned
            bad += 1
        elif not (0 <= hmin <= h2 + ORDER_SLACK and h2 <= h1 + ORDER_SLACK
                  and h1 <= h0 + ORDER_SLACK):
            bad += 1
    ledger.ops(len(payload["rows"]), bad, f"{name}: profile rows ordered")


def _profile_cells(p) -> list[float]:
    return [float(p.h0), float(p.h1), float(p.h2), float(p.hmin)]


def ranking_report(results) -> cli_report.Report:
    rows = [["+".join(r.subset), r.size, *_profile_cells(r.profile), float(r.gap)]
            for r in results]
    return cli_report.Report("subset_ranking", {
        "columns": ["modality", "size", "h0", "h1", "h2", "hmin", "gap"],
        "rows": rows,
    })


def emit_ranking(results) -> bytes:
    return cli_report.emit(ranking_report(results), "structured")


def means_report(results) -> cli_report.Report:
    rows = [[size, count, *_profile_cells(p)]
            for size, count, p in sweep.size_means(results)]
    return cli_report.Report("sweep_means_curve", {
        "columns": ["size", "subsets", "h0", "h1", "h2", "hmin"],
        "rows": rows,
    })


def validation_report(rep) -> cli_report.Report:
    rows = [[order, d, c, abs(d - c)] for order, d, c in zip(
        ("H0", "H1", "H2", "Hmin"), _profile_cells(rep.direct),
        _profile_cells(rep.chowliu))]
    return cli_report.Report("validation_table", {
        "columns": ["order", "direct", "chowliu", "abs_error"],
        "rows": rows,
        "subset": "+".join(rep.subset),
        "mae": float(rep.mae),
    })


def timed_sweep(table, ledger: Ledger, **kwargs):
    """run_sweep with its failures counted; returns (results, seconds)."""
    errors: list = []
    start = time.perf_counter()
    results = sweep.run_sweep(table, "fd", errors=errors, **kwargs)
    elapsed = time.perf_counter() - start
    ledger.ops(len(results) + len(errors), len(errors), "run_sweep subsets")
    return results, elapsed


# ---------------------------------------------------------------------------
# synth8-sweep: the paper's headline analysis on the built-in table

def synth8_generate(seed: int, workdir: Path):
    return synth.sensor_table(seed=seed, rows=ROWS)


def synth8_rep(table, ledger: Ledger, workers: int) -> Rep:
    rep = Rep()
    results, rep.sweep_s = timed_sweep(table, ledger, workers=workers)
    rep.subsets = len(results)
    chans = [
        quantize.bin_channel(table.column(name), "fd", name=name,
                             max_bins=sweep.MAX_JOINT_BINS)
        for name in table.channels[:VALIDATE_CHANNELS]
    ]
    reports = {
        "top10": ranking_report(sweep.top_k(results, TOP_K)),
        "means": means_report(results),
        "validate": validation_report(chowliu.validate(chans)),
    }
    rep.outputs = {name: cli_report.emit(r, "structured")
                   for name, r in reports.items()}
    return rep


# ---------------------------------------------------------------------------
# wide12-2w: 12 channels, subsets of 10-12, so every tree's H0 bound passes
# int64; the only workload that runs the fork pool

def wide12_generate(seed: int, workdir: Path):
    names: list[str] = []
    cols = []
    for device, dseed in (("dev1", seed), ("dev2", seed + 1)):
        t = synth.sensor_table(seed=dseed, rows=ROWS)
        for i, ch in enumerate(t.channels[:6]):  # the raw axes
            names.append(f"{device}.{ch}")
            cols.append(t.rows[:, i])
    return ingest.SampleTable(tuple(names), np.column_stack(cols),
                              source=f"wide12-{seed}")


def wide12_rep(table, ledger: Ledger, workers: int) -> Rep:
    rep = Rep()
    results, rep.sweep_s = timed_sweep(table, ledger, min_size=WIDE_MIN_SIZE,
                                       workers=workers)
    rep.subsets = len(results)
    reports = {
        "top10": ranking_report(sweep.top_k(results, TOP_K)),
        "means": means_report(results),
    }
    rep.outputs = {name: cli_report.emit(r, "structured")
                   for name, r in reports.items()}
    return rep


def same_table(a, b) -> bool:
    return a.channels == b.channels and np.array_equal(a.rows, b.rows)


# ---------------------------------------------------------------------------
# csv-pipeline: manifest and CSV in, the full analysis step list out

@dataclass
class CsvInput:
    manifest: Path
    csv: Path
    outdir: Path


def write_csv(path: Path, values: np.ndarray, empty: np.ndarray) -> None:
    """Headed CSV; each value in shortest round-trip form, empty where masked."""
    cells = values.astype(str)  # numpy formats in C, exact on reparse
    cells[empty] = ""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for lo in range(0, cells.shape[0], CSV_CHUNK_ROWS):
            block = cells[lo:lo + CSV_CHUNK_ROWS].tolist()
            fh.write("\n".join(map(",".join, block)) + "\n")


def csv_generate(seed: int, workdir: Path) -> CsvInput:
    workdir.mkdir(parents=True, exist_ok=True)
    table = synth.sensor_table(seed=seed, rows=CSV_ROWS)
    raw = table.rows[:, :len(CSV_COLUMNS)]
    # a stream of its own, so the holes do not track the values
    empty = np.random.default_rng([seed, 1]).random(raw.shape) < CSV_EMPTY_SHARE
    csv_path = workdir / "table.csv"
    write_csv(csv_path, raw, empty)
    manifest = {
        "name": "bench-csv",
        "channels": list(CSV_COLUMNS.values()),
        "files": [{"path": csv_path.name, "columns": dict(CSV_COLUMNS)}],
        "magnitudes": [{"x": "Acc.X", "y": "Acc.Y", "z": "Acc.Z",
                        "name": "Acc.Mag"}],
        "missing_policy": "drop-row-for-subset",
    }
    manifest_path = workdir / "manifest.yaml"
    manifest_path.write_text(yaml.safe_dump(manifest, sort_keys=False))
    outdir = workdir / "reports"
    outdir.mkdir(exist_ok=True)
    return CsvInput(manifest_path, csv_path, outdir)


def same_csv(a: CsvInput, b: CsvInput) -> bool:
    return (a.csv.read_bytes() == b.csv.read_bytes()
            and a.manifest.read_bytes() == b.manifest.read_bytes())


# sweep-running steps, whose wall time subsets_per_s divides by
CSV_SWEEP_STEPS = ("sweep", "top10", "top10_md", "means")


def csv_rep(inp: CsvInput, ledger: Ledger, workers: int) -> Rep:
    """The step list of scripts/run_full_analysis.py, through cli_report.run.

    Every report is structured except the second top-k, which stays markdown
    as in the script, so the markdown renderer is exercised too.
    """
    rep = Rep()
    data = ["--manifest", str(inp.manifest), "--bins", "fd"]
    sweepish = ["--workers", str(workers)]
    captured = io.StringIO()

    def step(name: str, argv: list[str], fmt: str = "structured") -> None:
        out = inp.outdir / (name + (".json" if fmt == "structured" else ".md"))
        start = time.perf_counter()
        code = cli_report.run([*argv, "--format", fmt, "--out", str(out)])
        elapsed = time.perf_counter() - start
        ledger.ops(1, int(code != 0), f"cli step {name} exit {code}")
        if name in CSV_SWEEP_STEPS:
            rep.sweep_s += elapsed
        rep.outputs[name] = out.read_bytes() if code == 0 else b""

    with contextlib.redirect_stderr(captured):
        step("single", ["single", *data])
        step("mi_matrix", ["matrix", *data, "--kind", "mi"])
        step("sweep", ["sweep", *data, *sweepish])
        step("top10", ["topk", *data, *sweepish, "--k", str(TOP_K)])
        step("top10_md", ["topk", *data, *sweepish, "--k", str(TOP_K)], "markdown")
        step("means", ["means", *data, *sweepish])
        if rep.outputs["top10"]:
            best = json.loads(rep.outputs["top10"])["payload"]["rows"][0][0]
            step("sensitivity",
                 ["sensitivity", *data, "--subset", best.replace("+", ",")])
            step("guesswork", ["guesswork", "--from-report",
                               str(inp.outdir / "top10.json")])
        else:
            ledger.ops(2, 2, "sensitivity and guesswork need the top-k report")

    # per-subset sweep failures and unbinnable channels surface as warnings
    warnings = sum(line.startswith("warning:")
                   for line in captured.getvalue().splitlines())
    channels = len(CSV_COLUMNS) + 1
    per_sweep = 2 ** channels - channels - 1
    rep.subsets = per_sweep * len(CSV_SWEEP_STEPS)
    ledger.ops(rep.subsets, warnings, "csv-pipeline warnings")
    return rep


def csv_table(inp: CsvInput):
    return ingest.load_table(ingest.load_manifest(inp.manifest), inp.manifest.parent)


@dataclass(frozen=True)
class Workload:
    generate: object  # (seed, workdir) -> input
    same_input: object  # (input, input) -> bool
    rep: object  # (input, ledger, workers) -> Rep
    workers: int  # for untraced repetitions
    sweep_table: object  # input -> SampleTable for the parallel comparison
    min_size: int = 2


WORKLOADS = {
    "synth8-sweep": Workload(synth8_generate, same_table, synth8_rep, 1,
                             lambda table: table),
    "csv-pipeline": Workload(csv_generate, same_csv, csv_rep, 1, csv_table),
    "wide12-2w": Workload(wide12_generate, same_table, wide12_rep,
                          PARALLEL_WORKERS, lambda table: table,
                          min_size=WIDE_MIN_SIZE),
}


def close(a, b, rel: float, abs_tol: float) -> bool:
    """Structural equality with floats compared within a tolerance.

    Table rows compare by column name over the reference's columns, so a
    report that gains a column or payload key still matches.
    """
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol))
    if isinstance(b, dict):
        if not isinstance(a, dict) or not set(b) <= set(a):
            return False
        if "columns" in b and "rows" in b:
            return _rows_close(a, b, rel, abs_tol) and all(
                close(a[k], b[k], rel, abs_tol) for k in b
                if k not in ("columns", "rows"))
        return all(close(a[k], b[k], rel, abs_tol) for k in b)
    if isinstance(b, list):
        return (isinstance(a, list) and len(a) == len(b)
                and all(close(x, y, rel, abs_tol) for x, y in zip(a, b)))
    return a == b


def _rows_close(a: dict, b: dict, rel: float, abs_tol: float) -> bool:
    if not set(b["columns"]) <= set(a["columns"]) or len(a["rows"]) != len(b["rows"]):
        return False
    at = [a["columns"].index(c) for c in b["columns"]]
    return all(
        close([ra[i] for i in at], rb, rel, abs_tol)
        for ra, rb in zip(a["rows"], b["rows"])
    )

#!/usr/bin/env python3
"""Time one pooled-CSV load and its peak memory, to compare two checkouts.

Writes a seeded N x 6 CSV with the csv-pipeline workload's generator and
writer (bench/workloads.py: synth.sensor_table values, a share of empty
cells drawn from their own stream, write_csv's shortest round-trip text),
split by rows into --files files of one manifest, then loads it with
ingest.load_table in a fresh child process per repeat. The files are
written in a child process of their own: a process inherits its parent's
peak RSS through fork and exec, so the parent stays small. Prints each
load's seconds and the loading child's peak RSS next to the table's size,
then the median load time, the largest peak RSS and the sha256 of the
loaded rows, so two checkouts that print the same digest loaded the same
table bit for bit, however many files hold it.
With --sweep, each child then runs one serial run_sweep of the loaded table
("fd" rule, every subset) and prints the sweep's tracemalloc peak as a
multiple of the table's bytes, and the sha256 of its ranking (top_k over
every subset: names and the hex of the four orders), so two checkouts that
print the same ranking digest ranked the same profiles bit for bit.
The entroscope package is taken from src/ next to this script, so each
checkout measures its own loader. bench/ is only read: no bytecode is
written there.

Usage, from the repository root:
    python3 scripts/load_probe.py
    python3 scripts/load_probe.py --rows 200000 --repeat 5
    python3 scripts/load_probe.py --rows 200000 --repeat 1 --sweep
    python3 scripts/load_probe.py --rows 1000000 --files 2
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # keep __pycache__ out of bench/

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from entroscope import ingest, sweep, synth  # noqa: E402
from workloads import CSV_COLUMNS, write_csv  # noqa: E402


def probe_paths(workdir: Path, files: int) -> list[Path]:
    return [workdir / f"probe{i}.csv" for i in range(files)]


def write_probe_csv(workdir: Path, files: int, rows: int, empty_share: float,
                    seed: int) -> None:
    """The probe table's rows, in order, split into `files` headed CSVs."""
    raw = synth.sensor_table(seed=seed, rows=rows).rows[:, :len(CSV_COLUMNS)]
    empty = np.random.default_rng([seed, 1]).random(raw.shape) < empty_share
    bounds = np.linspace(0, rows, files + 1).astype(int)
    for path, lo, hi in zip(probe_paths(workdir, files), bounds, bounds[1:]):
        write_csv(path, raw[lo:hi], empty[lo:hi])


def sweep_probe(table) -> dict:
    """One serial sweep of the table: its seconds, its tracemalloc peak over
    the table's bytes and the sha256 of its ranking."""
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):  # no progress lines
        results = sweep.run_sweep(table, "fd")
    seconds = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1] - before
    tracemalloc.stop()
    ranking = hashlib.sha256()
    for r in sweep.top_k(results, len(results)):
        orders = (r.profile.h0, r.profile.h1, r.profile.h2, r.profile.hmin)
        ranking.update(f"{' '.join(r.subset)}\t{' '.join(map(float.hex, orders))}"
                       "\n".encode())
    return {"sweep_s": seconds, "sweep_peak_x": peak / table.rows.nbytes,
            "ranking_sha256": ranking.hexdigest()}


def child(workdir: Path, files: int, then_sweep: bool) -> None:
    """Load the probe files as one manifest and print the load time, peak
    RSS and rows digest, and with then_sweep the figures of one sweep."""
    manifest = ingest.DatasetManifest(
        "probe", tuple(ingest.FileSpec(path.name, dict(CSV_COLUMNS))
                       for path in probe_paths(workdir, files)),
        tuple(CSV_COLUMNS.values()))
    start = time.perf_counter()
    table = ingest.load_table(manifest, workdir)
    seconds = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    out = {
        "load_s": seconds,
        "peak_rss_mib": peak_kib / 1024,
        "rows": table.rows.shape[0],
        "table_mib": table.rows.nbytes / 2 ** 20,
        "sha256": hashlib.sha256(table.rows.tobytes()).hexdigest(),
    }
    if then_sweep:
        out.update(sweep_probe(table))
    print(json.dumps(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--empty", type=float, default=0.025,
                        help="share of cells left empty")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--files", type=int, default=1,
                        help="CSV files the rows are split into")
    parser.add_argument("--repeat", type=int, default=3,
                        help="child processes, one load each")
    parser.add_argument("--sweep", action="store_true",
                        help="then run one serial sweep of each loaded table")
    parser.add_argument("--write", help=argparse.SUPPRESS)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write:
        write_probe_csv(Path(args.write), args.files, args.rows, args.empty,
                        args.seed)
        return 0
    if args.child:
        child(Path(args.child), args.files, args.sweep)
        return 0
    if (args.rows < 2 or not 0 <= args.empty < 1 or args.repeat < 1
            or not 1 <= args.files <= args.rows):
        parser.error("need --rows >= 2, 0 <= --empty < 1, --repeat >= 1 "
                     "and 1 <= --files <= --rows")
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        files = ["--files", str(args.files)]
        subprocess.run([sys.executable, __file__, "--write", tmp,
                        "--rows", str(args.rows), "--empty", str(args.empty),
                        "--seed", str(args.seed)] + files, check=True)
        size = sum(p.stat().st_size for p in probe_paths(Path(tmp), args.files))
        print(f"{args.rows} x {len(CSV_COLUMNS)} CSV in {args.files} "
              f"file{'s' * (args.files > 1)}, {size / 2**20:.1f} MiB", flush=True)
        for _ in range(args.repeat):
            out = subprocess.run(
                [sys.executable, __file__, "--child", tmp] + files
                + ["--sweep"] * args.sweep,
                check=True, capture_output=True, text=True).stdout
            run = json.loads(out)
            runs.append(run)
            line = (f"load {run['load_s']:.3f} s, "
                    f"peak RSS {run['peak_rss_mib']:.1f} MiB "
                    f"for a {run['table_mib']:.1f} MiB table")
            if args.sweep:
                line += (f"; sweep {run['sweep_s']:.3f} s, tracemalloc peak "
                         f"{run['sweep_peak_x']:.3f}x the table")
            print(line, flush=True)
    digests = {run["sha256"] for run in runs}
    print(f"median load {statistics.median(r['load_s'] for r in runs):.3f} s, "
          f"max peak RSS {max(r['peak_rss_mib'] for r in runs):.1f} MiB, "
          f"{runs[0]['rows']} rows, sha256 {' '.join(sorted(digests))}")
    if args.sweep:
        rankings = {run["ranking_sha256"] for run in runs}
        print(f"max sweep peak {max(r['sweep_peak_x'] for r in runs):.3f}x "
              f"the table, ranking sha256 {' '.join(sorted(rankings))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time one pooled-CSV load and its peak memory, to compare two checkouts.

Writes a seeded N x 6 CSV with the csv-pipeline workload's generator and
writer (bench/workloads.py: synth.sensor_table values, a share of empty
cells drawn from their own stream, write_csv's shortest round-trip text),
then loads it with ingest.load_table in a fresh child process per repeat.
The file is written in a child process of its own: a process inherits its
parent's peak RSS through fork and exec, so the parent stays small. Prints
each load's seconds and the loading child's peak RSS, then the median load
time, the largest peak RSS and the sha256 of the loaded rows, so two
checkouts that print the same digest loaded the same table bit for bit.
The entroscope package is taken from src/ next to this script, so each
checkout measures its own loader. bench/ is only read: no bytecode is
written there.

Usage, from the repository root:
    python3 scripts/load_probe.py
    python3 scripts/load_probe.py --rows 200000 --repeat 5
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # keep __pycache__ out of bench/

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from entroscope import ingest, synth  # noqa: E402
from workloads import CSV_COLUMNS, write_csv  # noqa: E402


def write_probe_csv(path: Path, rows: int, empty_share: float, seed: int) -> None:
    raw = synth.sensor_table(seed=seed, rows=rows).rows[:, :len(CSV_COLUMNS)]
    empty = np.random.default_rng([seed, 1]).random(raw.shape) < empty_share
    write_csv(path, raw, empty)


def child(csv_path: str) -> None:
    """Load one CSV and print its load time, peak RSS and rows digest."""
    manifest = ingest.DatasetManifest(
        "probe", (ingest.FileSpec(Path(csv_path).name, dict(CSV_COLUMNS)),),
        tuple(CSV_COLUMNS.values()))
    start = time.perf_counter()
    table = ingest.load_table(manifest, Path(csv_path).parent)
    seconds = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "load_s": seconds,
        "peak_rss_mib": peak_kib / 1024,
        "rows": table.rows.shape[0],
        "sha256": hashlib.sha256(table.rows.tobytes()).hexdigest(),
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--empty", type=float, default=0.025,
                        help="share of cells left empty")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3,
                        help="child processes, one load each")
    parser.add_argument("--write", help=argparse.SUPPRESS)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write:
        write_probe_csv(Path(args.write), args.rows, args.empty, args.seed)
        return 0
    if args.child:
        child(args.child)
        return 0
    if args.rows < 2 or not 0 <= args.empty < 1 or args.repeat < 1:
        parser.error("need --rows >= 2, 0 <= --empty < 1 and --repeat >= 1")
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "probe.csv"
        subprocess.run([sys.executable, __file__, "--write", str(csv_path),
                        "--rows", str(args.rows), "--empty", str(args.empty),
                        "--seed", str(args.seed)], check=True)
        print(f"{args.rows} x {len(CSV_COLUMNS)} CSV, "
              f"{csv_path.stat().st_size / 2**20:.1f} MiB", flush=True)
        for _ in range(args.repeat):
            out = subprocess.run([sys.executable, __file__, "--child", str(csv_path)],
                                 check=True, capture_output=True, text=True).stdout
            runs.append(json.loads(out))
            print(f"load {runs[-1]['load_s']:.3f} s, "
                  f"peak RSS {runs[-1]['peak_rss_mib']:.1f} MiB", flush=True)
    digests = {run["sha256"] for run in runs}
    print(f"median load {statistics.median(r['load_s'] for r in runs):.3f} s, "
          f"max peak RSS {max(r['peak_rss_mib'] for r in runs):.1f} MiB, "
          f"{runs[0]['rows']} rows, sha256 {' '.join(sorted(digests))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

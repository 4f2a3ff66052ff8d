#!/usr/bin/env python3
"""Fingerprint reports and fitted trees, to compare two checkouts.

Prints three parts, then one sha256 over all their lines:

- reports: one repetition of every workload in bench/workloads.py, from the
  same seeded generators, for each seed and worker count, as the sha256 of
  its reports (every report's name and bytes, in name order);
- trees: the synth8, wide12 and csv-pipeline tables of each seed, every
  channel binned with the "fd" rule and every subset of 2 to --max-size
  channels fitted, in canonical order, on one shared PairStats per table,
  as the sha256 over every tree's tests/oracles.dump rendering and the hex
  of its log2 modal probability;
- gappy: for each seed, the six raw axes of synth.sensor_table, a barometer
  channel and a constant one, written as two CSV files pooled by one
  manifest (the second file maps no gyroscope column, so the gyroscope
  drops out whole on its rows; the accelerometer drops out on a stretch of
  the first file, the barometer and Gyro.Z have holes of their own, the fd
  rule cannot bin the constant channel and the manifest adds the
  accelerometer magnitude), then for each worker count the sha256 of the
  report of `entroscope sweep --format structured` on it.

Two checkouts that print the same last line emitted the same bytes in every
report and fitted the same trees, bit for bit. The entroscope package is
taken from src/ next to this script, so each checkout fingerprints its own
code. bench/ and tests/ are only read: no bytecode is written there. Exits
1 if a workload operation failed.

Usage, from the repository root:
    python3 scripts/digest.py
    python3 scripts/digest.py --seeds 3 --workers 1 --max-size 4
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # keep __pycache__ out of bench/ and tests/

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from entroscope import chowliu, cli_report, quantize, sweep, synth  # noqa: E402
from oracles import dump  # noqa: E402

ROWS = 6000  # per gappy file
AXES = ("Acc.X", "Acc.Y", "Acc.Z", "Gyro.X", "Gyro.Y", "Gyro.Z")
CHANNELS = AXES + ("Baro", "Flat")


def report_lines(seeds, workers_list, failed: list):
    """One line per workload, seed and worker count; appends each
    repetition's failed operations to failed."""
    for name, wl in workloads.WORKLOADS.items():
        for seed in seeds:
            for workers in workers_list:
                ledger = workloads.Ledger()
                with tempfile.TemporaryDirectory() as tmp, \
                        contextlib.redirect_stderr(io.StringIO()):
                    rep = wl.rep(wl.generate(seed, Path(tmp)), ledger, workers)
                sha = hashlib.sha256()
                for key in sorted(rep.outputs):
                    data = rep.outputs[key]
                    sha.update(f"{key}\0{len(data)}\0".encode() + data)
                failed.append(ledger.failed)
                yield f"{name} seed {seed} workers {workers} {sha.hexdigest()}"


def tree_digest(table, max_size: int) -> tuple[str, int]:
    """sha256 over every fitted tree of the table, and the tree count."""
    # the channels that do not bin are skipped, as the sweep skips them
    binned, _ = quantize.bin_table(table, "fd", sweep.MAX_JOINT_BINS)
    chans = {ch.name: ch for ch in binned}
    stats = chowliu.PairStats(binned)
    sha = hashlib.sha256()
    trees = 0
    for subset in sweep.enumerate_subsets(
            tuple(chans), max_size=min(max_size, len(chans))):
        model = chowliu.build_tree([chans[n] for n in subset], stats)
        logp = chowliu.tree_max_prob(model).hex()
        sha.update(f"{dump(model)}{logp}\n".encode())
        trees += 1
    return sha.hexdigest(), trees


def tables(seed: int, workdir: Path):
    """Each workload's table, by workload name, one at a time."""
    yield "synth8-sweep", workloads.synth8_generate(seed, workdir)
    yield "wide12-2w", workloads.wide12_generate(seed, workdir)
    yield "csv-pipeline", workloads.csv_table(
        workloads.csv_generate(seed, workdir / "csv"))


def tree_lines(seeds, max_size: int):
    """One line per seed and table."""
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            for name, table in tables(seed, Path(tmp)):
                sha, trees = tree_digest(table, max_size)
                yield f"{name} seed {seed} trees {trees} {sha}"


def write_gappy(seed: int, workdir: Path) -> Path:
    """The two CSV files and their manifest; returns the manifest's path."""
    raw = synth.sensor_table(seed=seed, rows=2 * ROWS).rows[:, :len(AXES)]
    rng = np.random.default_rng([seed, 2])
    baro = 1013.0 + rng.normal(size=(2 * ROWS, 1))
    cells = np.column_stack([raw, baro, np.full(2 * ROWS, 1.5)]).astype(str)
    cells[ROWS // 4:ROWS // 2, 0:3] = ""  # the accelerometer drops out
    cells[rng.random(2 * ROWS) < 0.03, len(AXES)] = ""
    cells[rng.random(2 * ROWS) < 0.02, len(AXES) - 1] = ""
    files = []
    for i, (block, names) in enumerate([
            (cells[:ROWS], CHANNELS),
            (cells[ROWS:], tuple(n for n in CHANNELS if not n.startswith("Gyro")))]):
        keep = [CHANNELS.index(name) for name in names]
        path = workdir / f"part{i}.csv"
        lines = [",".join(n.lower() for n in names)]
        lines += [",".join(row) for row in block[:, keep].tolist()]
        path.write_text("\n".join(lines) + "\n")
        columns = "{" + ", ".join(f"{n.lower()}: {n}" for n in names) + "}"
        files.append(f"  - path: {path.name}\n    columns: {columns}\n")
    manifest = workdir / "gappy.yaml"
    manifest.write_text(
        f"name: gappy-{seed}\n"
        f"channels: [{', '.join(CHANNELS)}]\n"
        "files:\n" + "".join(files) +
        "magnitudes:\n  - {x: Acc.X, y: Acc.Y, z: Acc.Z, name: Acc.Mag}\n")
    return manifest


def gappy_lines(seeds, workers_list):
    """One line per seed and worker count."""
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            workdir = Path(tmp) / str(seed)
            workdir.mkdir()
            manifest = write_gappy(seed, workdir)
            for workers in workers_list:
                out = workdir / f"sweep-{workers}.json"
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli_report.run([
                        "sweep", "--manifest", str(manifest), "--format",
                        "structured", "--workers", str(workers), "--out", str(out)])
                if code != 0:
                    raise SystemExit(f"digest: gappy sweep exited {code}")
                sha = hashlib.sha256(out.read_bytes()).hexdigest()
                yield f"gappy seed {seed} workers {workers} {sha}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 7])
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--max-size", type=int, default=8)
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    failed: list[int] = []
    for line in itertools.chain(report_lines(args.seeds, args.workers, failed),
                                tree_lines(args.seeds, args.max_size),
                                gappy_lines(args.seeds, args.workers)):
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"all {total.hexdigest()}")
    if sum(failed):
        print(f"digest: {sum(failed)} operations failed", file=sys.stderr)
    return 1 if sum(failed) else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fingerprint CLI sweeps of a gappy table with an unbinnable channel.

For each seed, writes the six raw axes of synth.sensor_table, a barometer
channel and a constant one as two CSV files pooled by one manifest. The
second file maps no gyroscope column, so the gyroscope drops out whole on
its rows; the accelerometer drops out on a stretch of the first file,
the barometer and Gyro.Z have holes of their own, and the fd rule cannot
bin the constant channel. The manifest adds the accelerometer magnitude.
Then, for each worker count, `entroscope sweep --format structured` runs
on it through cli_report.run, and the script prints the sha256 of the
report, then one sha256 over all of them. The report holds every subset's
profile and the error of every subset with the constant channel, so two
checkouts that print the same last line answered every subset alike. The
entroscope package is taken from src/ next to this script, so each
checkout fingerprints its own code.

Usage, from the repository root:
    python3 scripts/gappy_digest.py
    python3 scripts/gappy_digest.py --seeds 3 --workers 1
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from entroscope import cli_report, synth  # noqa: E402

ROWS = 6000  # per file
AXES = ("Acc.X", "Acc.Y", "Acc.Z", "Gyro.X", "Gyro.Y", "Gyro.Z")
CHANNELS = AXES + ("Baro", "Flat")


def write_input(seed: int, workdir: Path) -> Path:
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


def digest(manifest: Path, workers: int) -> str:
    """sha256 of the structured sweep report of the manifest's table."""
    out = manifest.parent / f"sweep-{workers}.json"
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli_report.run(["sweep", "--manifest", str(manifest),
                               "--format", "structured", "--workers", str(workers),
                               "--out", str(out)])
    if code != 0:
        raise SystemExit(f"gappy_digest: sweep exited {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 7])
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            workdir = Path(tmp) / str(seed)
            workdir.mkdir()
            manifest = write_input(seed, workdir)
            for workers in args.workers:
                sha = digest(manifest, workers)
                line = f"gappy seed {seed} workers {workers} {sha}"
                print(line, flush=True)
                total.update(line.encode() + b"\n")
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

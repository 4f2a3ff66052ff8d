#!/usr/bin/env python3
"""Fingerprint the benchmark workloads' reports, to compare two checkouts.

Runs one repetition of every workload in bench/workloads.py, from the same
seeded generators, for each seed and worker count, and prints the sha256 of
its reports (every report's name and bytes, in name order), then one sha256
over all of them. Two checkouts that print the same last line emitted the
same bytes in every report. The entroscope package is taken from src/ next
to this script, so each checkout fingerprints its own code. bench/ is only
read: no bytecode is written there.

Usage, from the repository root:
    python3 scripts/report_digest.py
    python3 scripts/report_digest.py --seeds 3 --workers 1
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # keep __pycache__ out of bench/

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS, Ledger  # noqa: E402


def digest(workload: str, seed: int, workers: int) -> tuple[str, int]:
    """sha256 of one repetition's reports, and its failed operations."""
    wl = WORKLOADS[workload]
    ledger = Ledger()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()):
        rep = wl.rep(wl.generate(seed, Path(tmp)), ledger, workers)
    sha = hashlib.sha256()
    for name in sorted(rep.outputs):
        data = rep.outputs[name]
        sha.update(f"{name}\0{len(data)}\0".encode() + data)
    return sha.hexdigest(), ledger.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 7])
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    failed = 0
    for workload in WORKLOADS:
        for seed in args.seeds:
            for workers in args.workers:
                sha, bad = digest(workload, seed, workers)
                line = f"{workload} seed {seed} workers {workers} {sha}"
                print(line, flush=True)
                total.update(line.encode() + b"\n")
                failed += bad
    print(f"all {total.hexdigest()}")
    if failed:
        print(f"report_digest: {failed} operations failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

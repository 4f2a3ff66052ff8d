#!/usr/bin/env python3
"""Fingerprint the Chow-Liu trees fitted on the benchmark workloads' tables.

Builds the synth8, wide12 and csv-pipeline tables from the generators in
bench/workloads.py, bins every channel with the "fd" rule, and fits every
subset of 2 to --max-size channels, in canonical order, on one shared
PairStats per table. For each table it prints the sha256 over every tree's
tests/oracles.dump rendering and the hex of its log2 modal probability, then
one sha256 over all tables. Two checkouts that print the same last line fit
the same trees, bit for bit. The entroscope package is taken from src/ next
to this script, so each checkout fingerprints its own code. bench/ and
tests/ are only read: no bytecode is written there.

Usage, from the repository root:
    python3 scripts/tree_digest.py
    python3 scripts/tree_digest.py --seed 7 --max-size 4
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # keep __pycache__ out of bench/ and tests/

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from entroscope import chowliu, quantize, sweep  # noqa: E402
from entroscope.errors import DataError  # noqa: E402
from oracles import dump  # noqa: E402


def tables(seed: int, workdir: Path):
    """Each workload's table, by workload name."""
    yield "synth8-sweep", workloads.synth8_generate(seed, workdir)
    yield "wide12-2w", workloads.wide12_generate(seed, workdir)
    yield "csv-pipeline", workloads.csv_table(
        workloads.csv_generate(seed, workdir / "csv"))


def digest(table, max_size: int) -> tuple[str, int]:
    """sha256 over every fitted tree of the table, and the tree count."""
    chans = {}
    for name in table.channels:
        try:
            chans[name] = quantize.bin_channel(
                table.column(name), "fd", name=name,
                max_bins=sweep.MAX_JOINT_BINS)
        except DataError:
            pass  # a channel the sweep would skip
    stats = chowliu.PairStats(list(chans.values()))
    sha = hashlib.sha256()
    trees = 0
    for subset in sweep.enumerate_subsets(
            tuple(chans), max_size=min(max_size, len(chans))):
        model = chowliu.build_tree([chans[n] for n in subset], stats)
        logp = chowliu.tree_max_prob(model).hex()
        sha.update(f"{dump(model)}{logp}\n".encode())
        trees += 1
    return sha.hexdigest(), trees


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--max-size", type=int, default=8)
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, table in tables(args.seed, Path(tmp)):
            sha, trees = digest(table, args.max_size)
            line = f"{name} seed {args.seed} trees {trees} {sha}"
            print(line, flush=True)
            total.update(line.encode() + b"\n")
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pairwise redundancy: Pearson correlation on raw values, mutual
information on binned codes.

Each matrix cell uses pairwise-complete rows for its own pair, so no cell
throws away data because some third channel is missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chowliu import PairCounts, _mutual_information
from .entropy import _shannon_bits_of_counts
from .errors import DataError
from .quantize import BinnedChannel

KIND_PEARSON = "pearson"
KIND_MI = "mutual_information_bits"


@dataclass(frozen=True, eq=False)
class DependenceMatrix:
    channels: tuple[str, ...]
    values: np.ndarray  # n x n, symmetric; NaN where a cell errored
    kind: str
    missing: tuple[tuple[str, str, str], ...] = ()  # (a, b, reason) per bad cell


def pearson(a, b) -> float:
    """Sample Pearson coefficient over pairwise-complete rows, in [-1, 1]."""
    x = np.asarray(a, dtype=float).ravel()
    y = np.asarray(b, dtype=float).ravel()
    if x.size != y.size:
        raise DataError("sequences differ in length")
    keep = np.isfinite(x) & np.isfinite(y)
    x = x[keep]
    y = y[keep]
    if x.size < 2:
        raise DataError("need at least 2 pairwise-complete rows")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.dot(xc, xc))
    sy = float(np.dot(yc, yc))
    if sx == 0.0 or sy == 0.0:
        raise DataError("undefined correlation")
    r = float(np.dot(xc, yc)) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def mutual_information(a: BinnedChannel, b: BinnedChannel) -> float:
    """Plug-in I(a;b) = H(a) + H(b) - H(a,b) in bits, clamped at 0."""
    if a.codes.size != b.codes.size:
        raise DataError("channels differ in length")
    keep = (a.codes >= 0) & (b.codes >= 0)
    ca = a.codes[keep]
    cb = b.codes[keep]
    if ca.size == 0:
        raise DataError("empty overlap")
    joint = PairCounts(ca, cb, (a.spec.bin_count, b.spec.bin_count))
    h_a, h_b = (_shannon_bits_of_counts(np.bincount(c), c.size) for c in (ca, cb))
    return _mutual_information(h_a, h_b, joint)


def _canonical_kind(kind: str) -> str:
    key = kind.strip().lower()
    if key == KIND_PEARSON:
        return KIND_PEARSON
    if key in ("mi", "mutual_information", KIND_MI):
        return KIND_MI
    raise DataError(f"unknown dependence kind {kind!r}")


def matrix(table, binned: list[BinnedChannel], kind: str) -> DependenceMatrix:
    """Full symmetric dependence matrix in table channel order.

    table is a SampleTable; raw columns feed Pearson cells, binned codes feed
    MI cells. A failing pair is recorded in missing and left NaN.
    """
    kind = _canonical_kind(kind)
    names = list(table.channels)
    if len(names) < 2:
        raise DataError("matrix needs at least 2 channels")
    by_name = {ch.name: ch for ch in binned}
    n = len(names)
    values = np.full((n, n), np.nan)
    missing: list[tuple[str, str, str]] = []

    for i, name in enumerate(names):
        if kind == KIND_PEARSON:
            values[i, i] = 1.0
        elif name not in by_name:
            missing.append((name, name, "channel not binned"))
        else:
            ch = by_name[name]
            codes = ch.codes[ch.codes >= 0]
            values[i, i] = (_shannon_bits_of_counts(np.bincount(codes), codes.size)
                            if codes.size else np.nan)

    for i in range(n):
        for j in range(i + 1, n):
            try:
                if kind == KIND_PEARSON:
                    cell = pearson(table.column(names[i]), table.column(names[j]))
                else:
                    if names[i] not in by_name or names[j] not in by_name:
                        raise DataError("channel not binned")
                    cell = mutual_information(by_name[names[i]], by_name[names[j]])
            except DataError as exc:
                missing.append((names[i], names[j], str(exc)))
                continue
            values[i, j] = cell
            values[j, i] = cell

    return DependenceMatrix(tuple(names), values, kind, tuple(missing))

"""Pairwise redundancy: Pearson correlation on raw values, mutual
information on binned codes.

Each matrix cell uses pairwise-complete rows for its own pair, so no cell
throws away data because some third channel is missing. MI cells and the
entropy diagonal are read from PairStats: one over all binned channels
counts each pair once on the rows complete in every binned channel, and
each cell reads its channels' statistics from its over(), which merges in
the leftover rows complete across them; a table without gaps has none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chowliu import PairStats
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
    shared = PairStats(binned)
    n = len(names)
    values = np.full((n, n), np.nan)
    missing: list[tuple[str, str, str]] = []

    for i, name in enumerate(names):
        if kind == KIND_PEARSON:
            values[i, i] = 1.0
        elif name not in shared.channels:
            missing.append((name, name, "channel not binned"))
        else:
            stats = shared.over([name])
            values[i, i] = stats.entropy(name) if stats.n else np.nan

    for i in range(n):
        for j in range(i + 1, n):
            try:
                if kind == KIND_PEARSON:
                    cell = pearson(table.column(names[i]), table.column(names[j]))
                else:
                    if not {names[i], names[j]} <= shared.channels.keys():
                        raise DataError("channel not binned")
                    stats = shared.over([names[i], names[j]])
                    if stats.n == 0:
                        raise DataError("empty overlap")
                    cell = stats.mi(names[i], names[j])
            except DataError as exc:
                missing.append((names[i], names[j], str(exc)))
                continue
            values[i, j] = cell
            values[j, i] = cell

    return DependenceMatrix(tuple(names), values, kind, tuple(missing))

"""Shared oracles for the test suite.

Everything here is written with plain dicts and math so it cannot share a
bug with the package's vectorized implementations.
"""

import math

import numpy as np

from entroscope.quantize import Pmf


def expand_model_dict(parents, arities, root_table, cond_tables):
    """Full joint of an ancestral tree model as {code tuple: probability}.

    Pure-Python recursion over nodes in ancestral order; only strictly
    positive tuples are kept.
    """
    k = len(parents)
    joint = {}

    def extend(prefix, prob):
        i = len(prefix)
        if i == k:
            if prob > 0:
                joint[tuple(prefix)] = prob
            return
        if i == 0:
            row = [float(v) for v in root_table]
        else:
            row = [float(v) for v in cond_tables[i - 1][prefix[parents[i]]]]
        for code, p in enumerate(row):
            extend(prefix + [code], prob * p)

    extend([], 1.0)
    return joint


def profile_of_dict(joint):
    """(h0, h1, h2, hmin) of a {key: prob} map, bits, stdlib math only."""
    probs = [p for p in joint.values() if p > 0]
    h0 = math.log2(len(probs))
    h1 = -math.fsum(p * math.log2(p) for p in probs)
    h2 = -math.log2(math.fsum(p * p for p in probs))
    hmin = -math.log2(max(probs))
    return h0, h1, h2, hmin


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def dict_mi(pairs):
    """I(X;Y) in bits from a list of (x, y) samples, dict counting only."""
    n = len(pairs)
    cx, cy, cxy = {}, {}, {}
    for x, y in pairs:
        cx[x] = cx.get(x, 0) + 1
        cy[y] = cy.get(y, 0) + 1
        cxy[(x, y)] = cxy.get((x, y), 0) + 1

    def h(counts):
        return -math.fsum(
            (c / n) * math.log2(c / n) for c in counts.values()
        )

    return h(cx) + h(cy) - h(cxy)


def from_probs(probs):
    """Pmf from a {bin: probability} map, bins in ascending order."""
    items = sorted(probs.items())
    return Pmf(np.array([b for b, _ in items]), np.array([q for _, q in items]))


def bincount_pmf(codes):
    """Pmf of the non-missing codes (those >= 0), counted by one np.bincount:
    the occupied bins in ascending order, each with count / n."""
    c = np.asarray(codes, dtype=np.int64).ravel()
    c = c[c >= 0]
    counts = np.bincount(c)
    bins = np.flatnonzero(counts)
    return Pmf(bins, counts[bins] / c.size)


def codes_profile(codes):
    """(h0, h1, h2, hmin) in bits of bincount_pmf(codes), by the formulas a
    flat profile is pinned to bit for bit: log2 of the support, the fsum of
    p log2 p over numpy logs, H2 from the power sum scaled by the largest p,
    and -log2 of the largest p; every -0.0 becomes 0.0."""
    p = bincount_pmf(codes).p
    pmax = float(p.max())
    power = float(np.sum((p / pmax) ** 2.0))
    h2 = (2.0 * math.log2(pmax) + math.log2(power)) / (1.0 - 2.0)
    h1 = -math.fsum((p * np.log2(p)).tolist())
    return tuple(h + 0.0 for h in (math.log2(p.size), h1, h2, -math.log2(pmax)))

"""Renyi entropy profiles (orders 0, 1, 2, inf) in bits, and the one count
primitive, JointCounts: the occupied cells of the joint count table of one
or more code columns. Channel and pair statistics in tree fits, the MI
matrix and the direct joint of channel subsets all count through it, a
single channel's table too: joint_direct returns the counts of the occupied
code tuples, and profile_joint their profile.

Everything is plug-in estimation on empirical frequencies: no smoothing, no
bias correction. All logarithms are base 2. Shannon entropy is the correctly
rounded sum of its per-cell terms; from integer counts it is summed once per
distinct count, to the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DataError
from .quantize import BinnedChannel

_ORDER_TOL = 1e-9
# cap on occupied joint states for direct enumeration
DEFAULT_JOINT_BUDGET = 5e7


@dataclass(frozen=True)
class EntropyProfile:
    """The four orders in bits. Construction enforces hmin <= h2 <= h1 <= h0
    and turns -0.0 into 0.0, so no report shows a negative zero."""

    h0: float
    h1: float
    h2: float
    hmin: float

    def __post_init__(self):
        for name in ("h0", "h1", "h2", "hmin"):
            object.__setattr__(self, name, getattr(self, name) + 0.0)
        seq = (self.hmin, self.h2, self.h1, self.h0)
        for lo, hi in zip(seq, seq[1:]):
            if lo > hi + _ORDER_TOL:
                raise DataError(f"entropy ordering violated: {seq}")


def _shannon_bits(p: np.ndarray) -> float:
    # fsum rounds the exact sum once, so the order of the terms is irrelevant
    return -math.fsum((p * np.log2(p)).tolist())


def _shannon_bits_grouped(values: np.ndarray, mult: np.ndarray, n: int) -> float:
    """Shannon entropy in bits of mult[i] cells of count values[i] each, with
    p = count / n; _shannon_bits of the cells' probabilities, bit for bit.

    The mult[i] equal terms t = p log2 p sum exactly to mult[i] * t. Veltkamp's
    split cuts t into two halves of at most 26 significant bits, and the
    multiplicity (below 2**53) into a multiple of 2**27 with at most 26 and a
    remainder below 2**27, so each of the four partial products fits in 53 bits
    and is exact. fsum of those products is then the correctly rounded exact
    sum, the same number fsum of the per-cell terms gives.
    """
    p = values / n
    t = p * np.log2(p)
    scaled = t * (2.0 ** 27 + 1)  # Veltkamp's splitter for float64
    hi = scaled - (scaled - t)
    lo = t - hi
    m_lo = mult & (2 ** 27 - 1)
    m_hi = (mult - m_lo).astype(float)
    m_lo = m_lo.astype(float)
    parts = np.concatenate((hi * m_hi, hi * m_lo, lo * m_hi, lo * m_lo))
    return -math.fsum(parts.tolist())


def _shannon_bits_of_counts(counts: np.ndarray, n: int) -> float:
    """Shannon entropy in bits of cells with these integer counts (zeros are
    skipped), p = count / n; equals _shannon_bits(counts / n) bit for bit.

    Counts summing to n take at most sqrt(2n) distinct values, so many cells
    are summed once per value, through a table with one slot per value up to
    the largest count; where that count is not below the number of cells,
    summing the cells one term each is no dearer.
    """
    if counts.size and int(counts.max()) < counts.size:
        mult = np.bincount(counts)
        values = np.flatnonzero(mult[1:]) + 1
        return _shannon_bits_grouped(values, mult[values], n)
    # joint counts hold no zeros, and are not copied to drop them
    return _shannon_bits((counts if counts.all() else counts[counts > 0]) / n)


def complete_row_mask(channels: list[BinnedChannel]) -> np.ndarray:
    """Rows where every listed channel has a non-missing code."""
    if not channels:
        raise DataError("no channels")
    mask = channels[0].codes >= 0
    for ch in channels[1:]:
        if ch.codes.size != mask.size:
            raise DataError("channel code lengths differ")
        mask = mask & (ch.codes >= 0)
    return mask


class JointCounts:
    """Occupied cells of the joint count table of one or more code columns.

    The one count primitive of the package: channel pmfs and entropies, pair
    tables and MI, and the direct joint all derive from these integer
    counts. A cell's key fuses its codes in mixed radix, the first column
    most significant, so ascending keys list the cells in lexicographic code
    order; the product of bins must stay within int64. Codes of any integer
    type are fused into an int64 copy of the first column, in place, so the
    keys are the same whatever the codes' type. The rows of cols
    merge into base (the same columns on other rows) or into an empty table,
    exactly as if all were counted at once: through a dense table when it
    has no more cells than there are rows, through a sort of the new rows
    otherwise, so memory stays bounded by the rows even at 2048 x 2048 bins.
    The counts may cover no row at all.
    """

    def __init__(self, cols: list[np.ndarray], bins: list[int],
                 base: JointCounts | None = None):
        keys = cols[0].astype(np.int64)  # a copy, widened before fusing
        for col, b in zip(cols[1:], bins[1:]):
            keys *= b
            keys += col
        self.bins = tuple(bins)
        self.n = keys.size + (0 if base is None else base.n)
        cells = math.prod(bins)
        # sorted occupied keys and their counts
        if cells <= self.n:
            joint = np.bincount(keys, minlength=cells)
            if base is not None:
                joint[base.keys] += base.counts
            self.keys = np.flatnonzero(joint)
            self.counts = joint[self.keys]
        else:
            # a dense table would outgrow the rows; sort the new rows instead
            self.keys, self.counts = np.unique(keys, return_counts=True)
            if base is not None:  # add the base's, inserting the keys it lacks
                at = np.searchsorted(base.keys, self.keys)
                known = at < base.keys.size
                known[known] = base.keys[at[known]] == self.keys[known]
                counts = base.counts.copy()
                counts[at[known]] += self.counts[known]
                fresh = ~known
                self.keys = np.insert(base.keys, at[fresh], self.keys[fresh])
                self.counts = np.insert(counts, at[fresh], self.counts[fresh])

    @functools.cached_property
    def shannon(self) -> float:
        """Shannon entropy of the counted cells, in bits."""
        return _shannon_bits_of_counts(self.counts, self.n)


def joint_direct(channels: list[BinnedChannel]) -> np.ndarray:
    """Counts of the occupied code tuples over the rows complete in every
    channel, in ascending tuple order, first channel most significant.

    Raises DataError when no row is complete, and BudgetError before
    counting if the occupied-state bound min(complete rows, product of bin
    counts) exceeds DEFAULT_JOINT_BUDGET.
    """
    mask = complete_row_mask(channels)
    n = int(mask.sum())
    if n == 0:
        raise DataError("no complete rows")

    bin_counts = [ch.spec.bin_count for ch in channels]
    states = math.prod(bin_counts)
    if min(n, states) > DEFAULT_JOINT_BUDGET:
        raise BudgetError(
            f"direct joint needs up to {min(n, states)} occupied states, over "
            f"the budget of {DEFAULT_JOINT_BUDGET:.0f}; use the Chow-Liu tree path"
        )

    cols = [ch.codes[mask] for ch in channels]
    if states > 2 ** 62:  # too many for one int64 key
        return np.unique(np.stack(cols, axis=1), axis=0, return_counts=True)[1]
    return JointCounts(cols, bin_counts).counts


def profile_joint(counts: np.ndarray) -> EntropyProfile:
    """Entropy profile of the flat distribution p = counts / their total: of
    one channel's occupied states or of several channels' joint. H2 sums the
    squares of p scaled by its largest value, so they cannot underflow to
    zero. Raises DataError unless there are counts, each finite and positive."""
    total = counts.sum()
    if not (counts.size and counts.min() > 0 and total < math.inf):
        raise DataError("a joint needs counts, each finite and positive")
    p = counts / total
    pmax = float(p.max())
    return EntropyProfile(
        h0=math.log2(p.size),
        h1=_shannon_bits(p),
        h2=-(2.0 * math.log2(pmax) + math.log2(float(np.sum((p / pmax) ** 2.0)))),
        hmin=-math.log2(pmax),
    )

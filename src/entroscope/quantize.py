"""Channel quantization: bin-width rules and code assignment.

Bins are half-open [e_i, e_i+1) with the channel maximum folded into the last
bin. Width rules never fall back silently: zero spread raises so the caller
can choose fixed_count instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateSpreadError

# Code assigned to missing (non-finite) source values. Valid codes are >= 0.
MISSING = -1


def code_dtype(bin_count: int) -> np.dtype:
    """The narrowest signed type that holds bin_count - 1 and MISSING: int16
    up to 32,768 bins, int32 above (past any count a rule accepts)."""
    return np.dtype(np.int16 if bin_count <= 2 ** 15 else np.int32)


@dataclass(frozen=True, eq=False)
class BinningSpec:
    """How one channel was discretized."""

    bin_count: int
    edges: np.ndarray  # bin_count + 1 strictly increasing edges

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        object.__setattr__(self, "edges", edges)
        if edges.ndim != 1 or edges.size != self.bin_count + 1:
            raise DataError("edge array must hold bin_count + 1 values")
        if self.bin_count < 1:
            raise DataError("bin_count must be positive")
        if not np.all(np.diff(edges) > 0):
            raise DataError("bin edges must be strictly increasing")


@dataclass(frozen=True, eq=False)
class BinnedChannel:
    """A channel's codes, aligned 1:1 with the source rows."""

    name: str
    spec: BinningSpec
    codes: np.ndarray  # code_dtype(bin_count); MISSING marks rows with no value

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 1:
            raise DataError("codes must be one-dimensional")
        # checked in the caller's type, before the cast, so no code can wrap
        if codes.size and (int(codes.max()) >= self.spec.bin_count
                           or int(codes.min()) < MISSING):
            raise DataError("code out of range for bin_count")
        object.__setattr__(self, "codes", codes.astype(
            code_dtype(self.spec.bin_count), copy=False))


@dataclass(frozen=True, eq=False)
class Pmf:
    """A pmf over bin indices, such as a tree's root marginal. Zero-probability
    bins are never stored."""

    bins: np.ndarray  # sorted bin indices
    p: np.ndarray  # matching probabilities, all > 0, total 1 within 1e-9

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.int64)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "p", p)
        if bins.ndim != 1 or bins.shape != p.shape or p.size == 0:
            raise DataError("pmf needs matching nonempty bins and probabilities")
        if np.any(p <= 0):
            raise DataError("pmf probabilities must be strictly positive")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-9:
            raise DataError(f"pmf total is {total!r}, not 1")


def _finite_values(values) -> np.ndarray:
    """The finite values, flattened. When every value is finite this may be
    the caller's own array, so the result must not be written to."""
    v = np.asarray(values, dtype=float).ravel()
    finite = np.isfinite(v)
    return v if finite.all() else v[finite]


def _quantile(s: np.ndarray, q: float) -> float:
    """Quantile q of the sorted values s, bit for bit as numpy's "linear"
    percentile method: order statistics at (n-1)*q, combined as its _lerp."""
    at = (s.size - 1) * q
    lo = math.floor(at)
    t = at - lo
    a, b = float(s[lo]), float(s[lo + 1])
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def fd_width(values) -> float:
    """Freedman-Diaconis width 2*IQR/n^(1/3).

    IQR uses linear interpolation between order statistics, read from one sort.
    """
    v = _finite_values(values)
    n = v.size
    if n < 2:
        raise DataError("width rules need at least 2 samples")
    s = np.sort(v)
    iqr = _quantile(s, 0.75) - _quantile(s, 0.25)
    if iqr <= 0.0:
        raise DegenerateSpreadError("degenerate spread; use fixed_count")
    return 2.0 * iqr * n ** (-1.0 / 3.0)


def scott_width(values) -> float:
    """Scott width 3.5*sigma/n^(1/3), sigma the sample standard deviation."""
    v = _finite_values(values)
    n = v.size
    if n < 2:
        raise DataError("width rules need at least 2 samples")
    sigma = float(np.std(v, ddof=1))
    if sigma <= 0.0:
        raise DegenerateSpreadError("degenerate spread; use fixed_count")
    return 3.5 * sigma * n ** (-1.0 / 3.0)


# refuse to materialize edge arrays past this without an explicit cap
_MAX_AUTO_BINS = 50_000_000


def _canonical_rule(rule) -> tuple[str, int | None]:
    """The rule's kind and, for a fixed count, the count, which must be at
    least 1 and no more than _MAX_AUTO_BINS."""
    count = None
    if isinstance(rule, str):
        key = rule.strip().lower().replace("-", "_")
        if key in ("fd", "freedman_diaconis"):
            return "freedman_diaconis", None
        if key == "scott":
            return "scott", None
        if key.isdigit():
            count = int(key)
    elif isinstance(rule, (int, np.integer)) and not isinstance(rule, bool):
        count = int(rule)
    if count is None:
        raise DataError(f"unknown binning rule {rule!r}")
    if count < 1:
        raise DataError("fixed_count needs at least 1 bin")
    if count > _MAX_AUTO_BINS:
        raise DataError(f"fixed count {count} is over the {_MAX_AUTO_BINS} "
                        "bin limit")
    return "fixed_count", count


def _width_edges(vmin: float, vmax: float, width: float) -> np.ndarray:
    span = vmax - vmin
    nb = max(1, math.ceil(span / width))
    # float noise in ceil can park the last interior edge on or past vmax;
    # drop it so edges stay strictly increasing
    while nb > 1 and vmin + width * (nb - 1) >= vmax:
        nb -= 1
    edges = vmin + width * np.arange(nb + 1, dtype=float)
    edges[-1] = vmax  # last bin absorbs the rounding remainder
    return edges


def bin_channel(values, rule, name: str = "channel",
                max_bins: int | None = None) -> BinnedChannel:
    """Quantize one channel of raw values.

    Non-finite entries keep their row slot and get the MISSING code. When a
    width rule asks for more than max_bins bins, the channel is rebinned to
    max_bins equal-width bins instead (joint analyses cap blow-up this way).
    """
    raw = np.asarray(values, dtype=float).ravel()
    if raw.size == 0:
        raise DataError("cannot bin an empty channel")
    finite = np.isfinite(raw)
    complete = finite.all()
    v = raw if complete else raw[finite]
    spec = _binning_spec(v, rule, name, max_bins)
    if complete:
        return BinnedChannel(name, spec, _bin_codes(spec.edges, v))
    codes = np.full(raw.shape, MISSING, dtype=code_dtype(spec.bin_count))
    codes[finite] = _bin_codes(spec.edges, v)
    return BinnedChannel(name, spec, codes)


def _binning_spec(v: np.ndarray, rule, name: str,
                  max_bins: int | None = None) -> BinningSpec:
    """The spec bin_channel gives a channel whose finite values are v."""
    if v.size == 0:
        raise DataError("channel has no non-missing values")
    vmin = float(v.min())
    vmax = float(v.max())
    if not math.isfinite(vmax - vmin):
        raise DataError(f"channel {name!r}: range [{vmin:g}, {vmax:g}] "
                        "is wider than float64 can hold")

    kind, k = _canonical_rule(rule)
    if kind == "fixed_count":
        if vmax == vmin:
            if k != 1:
                raise DataError("constant channel supports only fixed_count(1)")
            edges = np.array([vmin - 0.5, vmin + 0.5])
        else:
            edges = np.linspace(vmin, vmax, k + 1)
        return BinningSpec(k, edges)
    width = fd_width(v) if kind == "freedman_diaconis" else scott_width(v)
    # size check before allocating: a tiny spread against a huge range
    # can imply astronomically many bins
    estimate = (vmax - vmin) / width
    if max_bins is not None and estimate > max_bins:
        edges = np.linspace(vmin, vmax, max_bins + 1)
    elif estimate > _MAX_AUTO_BINS:
        raise DataError(
            f"channel {name!r}: width {width:g} over range "
            f"[{vmin:g}, {vmax:g}] implies {estimate:.3g} bins; "
            "pass max_bins or use fixed_count"
        )
    else:
        edges = _width_edges(vmin, vmax, width)
    return BinningSpec(edges.size - 1, edges)


def _bin_codes(edges: np.ndarray, v: np.ndarray) -> np.ndarray:
    """clip(searchsorted(edges, v, "right") - 1, 0, nb - 1) without a search.

    Each code is first guessed from the first bin's width, which every bin
    but a width rule's shorter last one shares, then stepped down while v
    lies below its bin's lower edge and up while v reaches its upper edge,
    comparing against the real edges, so the codes are exact. The outer
    edges are open (-inf and inf) to clip. Few values need a step. The
    guess is worked out in one float array, cast once to code_dtype(nb).
    """
    nb = edges.size - 1
    guess = np.subtract(v, edges[0])
    guess /= edges[1] - edges[0]
    np.floor(guess, out=guess)
    np.fmax(guess, 0, out=guess)
    np.fmin(guess, nb - 1, out=guess)
    codes = guess.astype(code_dtype(nb))
    del guess  # freed before the steps' temporaries are made
    lower = np.concatenate(([-np.inf], edges[1:-1]))
    upper = np.concatenate((edges[1:-1], [np.inf]))
    at = np.flatnonzero(v < lower[codes])
    while at.size:
        codes[at] -= 1
        at = at[v[at] < lower[codes[at]]]
    at = np.flatnonzero(v >= upper[codes])
    while at.size:
        codes[at] += 1
        at = at[v[at] >= upper[codes[at]]]
    return codes


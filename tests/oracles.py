"""Brute-force tree oracle for the message-pass tests.

TrueModel holds an analytic tree-factored distribution whose entropy profile
is computable by brute enumeration; that enumeration is the oracle every
message-pass result is checked against, so it deliberately shares no code
with the tree routines. as_chowliu hands the same tables to those routines,
and prebinned wraps sampled codes as channels. chain_rule_shannon and
exact_chain_rule_shannon are references for tree_shannon on any tree, fitted
ones included, exact_support_count for tree_support_count, and dump renders a
fitted tree's structure for comparison. The reference_* passes are the four
passes as four separate upward walks, one semiring each and no cache, which
the one walk that serves all four must match bit for bit.
percentile_fd_width is the reference for quantize.fd_width's quartiles,
column_stack_sensor_table for synth.sensor_table's in-place build. renyi
is the general-order entropy of a pmf; the package computes only the four
reported orders, which renyi must give bit for bit. tuple_key_prim is the
tree fit's Prim loop on (-MI, name pair) tuples, the reference for the fit
over integer pair ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from entroscope.chowliu import ChowLiuModel, ConditionalTable
from entroscope.entropy import EntropyProfile, _shannon_bits
from entroscope.errors import DataError, DegenerateSpreadError
from entroscope.quantize import BinnedChannel, BinningSpec, Pmf

# joints above this many states are not expandable
MAX_EXPANSION = 1_000_000
# alpha this close to 1 is routed to the Shannon limit
SHANNON_WINDOW = 1e-6


def renyi(pmf: Pmf, alpha) -> float:
    """Renyi entropy of the given order, in bits. Refuses a NaN or negative
    order; alpha = inf is the min-entropy."""
    p, alpha = pmf.p, float(alpha)
    if math.isnan(alpha) or alpha < 0:
        raise DataError("alpha must be nonnegative")
    if alpha == 0:
        return math.log2(p.size)
    if math.isinf(alpha):
        return -math.log2(float(p.max()))
    if abs(alpha - 1.0) < SHANNON_WINDOW:
        return _shannon_bits(p)
    # scale by the max so p**alpha cannot underflow to a zero sum
    pmax = float(p.max())
    power = float(np.sum((p / pmax) ** alpha))
    return (alpha * math.log2(pmax) + math.log2(power)) / (1.0 - alpha)


@dataclass(frozen=True, eq=False)
class TrueModel:
    """Exact tree-factored distribution in ancestral order.

    parents[0] is -1 for the root; parents[i] < i otherwise. cond_tables[i-1]
    has shape (arity of parent, arity of node i) with rows summing to 1.
    """

    parents: tuple[int, ...]
    arities: tuple[int, ...]
    root_table: np.ndarray
    cond_tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        k = len(self.parents)
        if k < 1 or len(self.arities) != k or len(self.cond_tables) != k - 1:
            raise DataError("model pieces disagree on node count")
        if self.parents[0] != -1 or any(self.parents[i] >= i for i in range(1, k)):
            raise DataError("parents must be ancestral: parents[i] < i")
        if self.root_table.shape != (self.arities[0],):
            raise DataError("root table shape mismatch")
        if abs(float(self.root_table.sum()) - 1.0) > 1e-9 or np.any(self.root_table < 0):
            raise DataError("root table must be a distribution")
        for i, table in enumerate(self.cond_tables, start=1):
            want = (self.arities[self.parents[i]], self.arities[i])
            if table.shape != want:
                raise DataError(f"conditional {i} shape {table.shape}, want {want}")
            if np.any(table < 0) or np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-9):
                raise DataError(f"conditional {i} rows must be distributions")


def random_tree_model(seed: int, nodes: int, arity: int) -> TrueModel:
    """Deterministic random model: random topology, strictly positive tables."""
    if nodes < 1 or arity < 2:
        raise DataError("need nodes >= 1 and arity >= 2")
    rng = np.random.default_rng(seed)
    parents = [-1] + [int(rng.integers(0, i)) for i in range(1, nodes)]
    # the +0.1 floor keeps every entry strictly positive
    root = rng.random(arity) + 0.1
    root /= root.sum()
    conds = []
    for _ in range(1, nodes):
        t = rng.random((arity, arity)) + 0.1
        t /= t.sum(axis=1, keepdims=True)
        conds.append(t)
    return TrueModel(tuple(parents), (arity,) * nodes, root, tuple(conds))


def expand_joint(model: TrueModel) -> np.ndarray:
    """The full joint as a dense array indexed by code tuples."""
    k = len(model.parents)
    states = math.prod(model.arities)
    if states > MAX_EXPANSION:
        raise DataError(f"joint of {states} states is too large to expand")
    shape = [1] * k
    shape[0] = model.arities[0]
    joint = model.root_table.reshape(shape)
    for i in range(1, k):
        p = model.parents[i]
        shape = [1] * k
        shape[p] = model.arities[p]
        shape[i] = model.arities[i]
        joint = joint * model.cond_tables[i - 1].reshape(shape)
    return joint


def brute_profile(model: TrueModel) -> EntropyProfile:
    """Oracle profile from the fully expanded joint.

    The four orders are computed inline on purpose; reusing the entropy or
    tree routines here would make the cross-checks circular.
    """
    p = expand_joint(model).ravel()
    p = p[p > 0]
    h0 = math.log2(p.size)
    h1 = -math.fsum((p * np.log2(p)).tolist())
    h2 = -math.log2(math.fsum((p * p).tolist()))
    hmin = -math.log2(float(p.max()))
    return EntropyProfile(h0=h0, h1=h1, h2=h2, hmin=hmin)


def sample(model: TrueModel, count: int, seed: int) -> np.ndarray:
    """Ancestral sampling; returns an int64 (count, k) code table."""
    if count < 1:
        raise DataError("need at least 1 sample")
    rng = np.random.default_rng(seed)
    k = len(model.parents)
    out = np.empty((count, k), dtype=np.int64)
    cum = np.cumsum(model.root_table)
    cum[-1] = 1.0  # close the rounding gap so u < 1 always lands in range
    out[:, 0] = (cum < rng.random(count)[:, None]).sum(axis=1)
    for i in range(1, k):
        rows = np.cumsum(model.cond_tables[i - 1], axis=1)
        rows[:, -1] = 1.0
        u = rng.random(count)
        out[:, i] = (rows[out[:, model.parents[i]]] < u[:, None]).sum(axis=1)
    return out


def _marginals(model: TrueModel) -> list[np.ndarray]:
    margs = [model.root_table]
    for i in range(1, len(model.parents)):
        margs.append(margs[model.parents[i]] @ model.cond_tables[i - 1])
    return margs


def _h_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return -math.fsum((p * np.log2(p)).tolist())


def as_chowliu(model: TrueModel) -> ChowLiuModel:
    """The same distribution as a ChowLiuModel, tables copied verbatim.

    Lets the message passes run on exact analytic tables, which is how they
    get compared against brute_profile.
    """
    k = len(model.parents)
    names = tuple(f"x{i}" for i in range(k))
    margs = _marginals(model)

    root_bins = np.flatnonzero(model.root_table > 0)
    root_marginal = Pmf(root_bins, model.root_table[root_bins])

    parent: dict[str, str] = {}
    conditionals: dict[str, ConditionalTable] = {}
    edge_weights: dict[tuple[str, str], float] = {}
    for i in range(1, k):
        p = model.parents[i]
        parent[names[i]] = names[p]
        table = model.cond_tables[i - 1]
        # rows only for parent bins the model can actually reach
        live = np.flatnonzero(margs[p] > 0)
        rows = []
        for pb in live:
            cb = np.flatnonzero(table[pb] > 0)
            rows.append((pb, cb, table[pb, cb]))
        parent_bins = np.array([pb for pb, _, _ in rows], dtype=np.int64)
        lens = np.array([cb.size for _, cb, _ in rows])
        indptr = np.r_[0, np.cumsum(lens)]
        child_bins = np.concatenate([cb for _, cb, _ in rows])
        probs = np.concatenate([pr for _, _, pr in rows])
        conditionals[names[i]] = ConditionalTable(parent_bins, indptr, child_bins, probs)

        edge_joint = margs[p][:, None] * table
        mi = _h_bits(margs[p]) + _h_bits(margs[i]) - _h_bits(edge_joint.ravel())
        a, b = sorted((names[p], names[i]))
        edge_weights[(a, b)] = max(0.0, mi)

    return ChowLiuModel(
        nodes=names,
        root=names[0],
        parent=parent,
        root_marginal=root_marginal,
        conditionals=conditionals,
        edge_weights=edge_weights,
        bin_counts={names[i]: model.arities[i] for i in range(k)},
    )


def prebinned(name: str, codes, bin_count: int) -> BinnedChannel:
    """Wrap already-discrete codes (synthetic samples) as a BinnedChannel."""
    edges = np.arange(bin_count + 1, dtype=float) - 0.5
    return BinnedChannel(name, BinningSpec(bin_count, edges), codes)


def percentile_fd_width(values) -> float:
    """Freedman-Diaconis width with its quartiles from np.percentile."""
    v = np.asarray(values, dtype=float).ravel()
    v = v[np.isfinite(v)]
    n = v.size
    if n < 2:
        raise DataError("width rules need at least 2 samples")
    q25, q75 = np.percentile(v, [25.0, 75.0])
    iqr = float(q75 - q25)
    if iqr <= 0.0:
        raise DegenerateSpreadError("degenerate spread; use fixed_count")
    return 2.0 * iqr * n ** (-1.0 / 3.0)


def dump(model: ChowLiuModel) -> str:
    """Stable text rendering of the fitted structure, for logs and goldens."""
    lines = [f"root {model.root}"]
    for name in model.nodes:
        lines.append(f"node {name} bins {model.bin_counts[name]}")
    for (a, b), w in sorted(model.edge_weights.items()):
        lines.append(f"edge {a} -- {b} weight {w!r}")
    for child in model.nodes:
        if child in model.parent:
            lines.append(f"parent {child} <- {model.parent[child]}")
    return "\n".join(lines) + "\n"


def chain_rule_shannon(model: ChowLiuModel) -> float:
    """Chain-rule Shannon entropy H(root) + sum of H(child | parent).

    Walks the tree top-down, pushing each node's dense marginal through its
    children's tables, in float64 with fsum per term and over the terms. It
    touches no message cache.
    """
    dense_root = np.zeros(model.bin_counts[model.root])
    dense_root[model.root_marginal.bins] = model.root_marginal.p
    marginals = {model.root: dense_root}
    terms = [_shannon_bits(model.root_marginal.p)]
    for child in model.order[1:]:
        cond = model.conditionals[child]
        pm = marginals[model.parent[child]][cond.parent_bins]
        # per-row plug-in entropies, weighted by the parent marginal
        contrib = -(cond.probs * np.log2(cond.probs))
        row_h = np.add.reduceat(contrib, cond.indptr[:-1])
        dense = np.zeros(model.bin_counts[child])
        np.add.at(dense, cond.child_bins,
                  cond.probs * np.repeat(pm, np.diff(cond.indptr)))
        terms.append(math.fsum((pm * row_h).tolist()))
        marginals[child] = dense
    return math.fsum(terms)


def exact_chain_rule_shannon(model: ChowLiuModel):
    """The same chain rule over the same float tables, evaluated in mpmath
    with 200-bit arithmetic; returns an mpf. Needs mpmath."""
    import mpmath

    with mpmath.workprec(200):
        def h_row(probs):
            return -mpmath.fsum(mpmath.mpf(p) * mpmath.log(p, 2) for p in probs)

        root = model.root_marginal
        marginals = {model.root: dict(zip(root.bins.tolist(),
                                          map(mpmath.mpf, root.p.tolist())))}
        total = h_row(root.p.tolist())
        for child in model.order[1:]:
            cond = model.conditionals[child]
            above = marginals[model.parent[child]]
            below: dict = {}
            for row, pb in enumerate(cond.parent_bins.tolist()):
                lo, hi = cond.indptr[row], cond.indptr[row + 1]
                probs = cond.probs[lo:hi].tolist()
                weight = above.get(pb, mpmath.mpf(0))
                total += weight * h_row(probs)
                for cb, p in zip(cond.child_bins[lo:hi].tolist(), probs):
                    below[cb] = below.get(cb, mpmath.mpf(0)) + weight * p
            marginals[child] = below
        return +total


def exact_support_count(model: ChowLiuModel) -> int:
    """Number of code tuples with positive tree probability, in Python
    integers, one conditional row at a time."""
    messages: dict[str, dict[int, int]] = {}

    def ways(node, codes):
        # completions of the subtree below node, summed over node's codes
        total = 0
        for code in codes:
            count = 1
            for child in model.children[node]:
                count *= messages[child].get(code, 0)
            total += count
        return total

    for node in reversed(model.order[1:]):
        cond = model.conditionals[node]
        messages[node] = {
            parent_bin: ways(node, cond.child_bins[
                int(cond.indptr[r]):int(cond.indptr[r + 1])].tolist())
            for r, parent_bin in enumerate(cond.parent_bins.tolist())
        }
    return ways(model.root, model.root_marginal.bins.tolist())


def ulps(value: float, reference) -> float:
    """|value - reference| in units in the last place of the float nearest
    the reference."""
    ref = float(reference)
    return float(abs(value - reference)) / math.ulp(ref)


def column_stack_sensor_table(seed: int, rows: int) -> np.ndarray:
    """synth.sensor_table's rows as it once built them: each channel a fresh
    array, stacked row-major by np.column_stack."""
    rng = np.random.default_rng(seed)
    motion = rng.standard_normal(rows)
    acc_group = rng.standard_normal(rows)
    gyro_group = rng.standard_normal(rows)

    def axis(group, w_motion, w_group, sigma, step):
        w_noise = math.sqrt(max(0.0, 1.0 - w_motion ** 2 - w_group ** 2))
        raw = sigma * (w_motion * motion + w_group * group
                       + w_noise * rng.standard_normal(rows))
        return np.round(raw / step) * step

    acc_step, gyro_step = 0.004, 0.002
    ax = axis(acc_group, 0.45, 0.55, 0.040, acc_step)
    ay = axis(acc_group, 0.40, 0.60, 0.044, acc_step)
    az = axis(acc_group, 0.35, 0.50, 0.048, acc_step)
    gx = axis(gyro_group, 0.40, 0.55, 0.024, gyro_step)
    gy = axis(gyro_group, 0.35, 0.60, 0.026, gyro_step)
    gz = axis(gyro_group, 0.30, 0.50, 0.028, gyro_step)
    amag = np.round(np.sqrt(ax ** 2 + ay ** 2 + az ** 2) / acc_step) * acc_step
    gmag = np.round(np.sqrt(gx ** 2 + gy ** 2 + gz ** 2) / gyro_step) * gyro_step
    return np.column_stack([ax, ay, az, gx, gy, gz, amag, gmag])


def reference_upward(model: ChowLiuModel, weights, combine, reduce, zero):
    """One upward pass over the tree in the semiring the arguments define,
    with no cache.

    Children come before their parents. A node's terms start as
    weights(probs) of its table; each child's message, read at the table's
    child bins, is folded in with combine, in child order; reduce(table,
    terms) collapses each parent row to one value; the message to the parent
    holds those values at the row's parent bins and zero elsewhere. Returns
    the root's terms (weights of the root marginal, children folded in).
    """
    sent: dict[str, np.ndarray] = {}
    for node in reversed(model.order[1:]):
        cond = model.conditionals[node]
        terms = weights(cond.probs)
        for child in model.children[node]:
            terms = combine(terms, sent[child][cond.child_bins])
        msg = np.full(model.bin_counts[model.parent[node]], zero)
        msg[cond.parent_bins] = reduce(cond, terms)
        sent[node] = msg
    terms = weights(model.root_marginal.p)
    for child in model.children[model.root]:
        terms = combine(terms, sent[child][model.root_marginal.bins])
    return terms


def reference_shannon(model: ChowLiuModel) -> float:
    """tree_shannon by its own walk in the expectation semiring."""
    terms = reference_upward(
        model, np.log2, np.add,
        lambda cond, t: np.add.reduceat(cond.probs * t, cond.indptr[:-1]), 0.0)
    return -math.fsum((model.root_marginal.p * terms).tolist())


def reference_power_sum(model: ChowLiuModel, alpha: float) -> float:
    """tree_power_sum by its own walk, sum-product in log2 domain."""
    def log_sum_rows(cond: ConditionalTable, terms: np.ndarray):
        starts = cond.indptr[:-1]
        peak = np.maximum.reduceat(terms, starts)
        spread = np.exp2(terms - np.repeat(peak, np.diff(cond.indptr)))
        return peak + np.log2(np.add.reduceat(spread, starts))

    terms = reference_upward(model, lambda p: alpha * np.log2(p), np.add,
                             log_sum_rows, -np.inf)
    peak = float(terms.max())
    return peak + math.log2(float(np.sum(np.exp2(terms - peak))))


def reference_max_prob(model: ChowLiuModel) -> float:
    """tree_max_prob by its own walk, max-product in log2 domain."""
    terms = reference_upward(
        model, np.log2, np.add,
        lambda cond, t: np.maximum.reduceat(t, cond.indptr[:-1]), -np.inf)
    return float(terms.max())


def reference_support_count(model: ChowLiuModel) -> float:
    """tree_support_count by its own walk, sum-product over the support
    indicator in float64, for a count within float64's range."""
    return float(reference_upward(
        model, np.ones_like, np.multiply,
        lambda cond, w: np.add.reduceat(w, cond.indptr[:-1]), 0.0).sum())


def tuple_key_prim(names, mi):
    """Prim from names[0] under the strict key (-MI, sorted name pair), a
    tuple rebuilt for every pair it reads, with mi(a, b) the pair's MI; the
    parent map and the adopted edges' weights by sorted name pair, in
    adoption order."""
    def key(a, b):
        return -mi(a, b), (a, b) if a <= b else (b, a)

    parent, weights = {}, {}
    best = {name: key(names[0], name) for name in names[1:]}
    while best:
        node = min(best, key=best.__getitem__)
        neg_mi, edge = best.pop(node)
        parent[node] = edge[0] if edge[1] == node else edge[1]
        weights[edge] = -neg_mi
        for other in best:
            best[other] = min(best[other], key(node, other))
    return parent, weights

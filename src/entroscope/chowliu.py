"""Chow-Liu tree models over binned channels.

The tree is the maximum-weight spanning tree under pairwise mutual
information, grown by Prim from the first channel, with plug-in tables. All
four entropy orders come out of message passes over the tree, never from
expanding the joint state space. The four passes read one upward walk
(_upward) in four semirings at once: sum-product over the support indicator
for the support count (in float64: exact below 2**53, its log2 within 1 ulp
beyond, refused past float64's range), the expectation semiring for Shannon
entropy, sum-product in log2 domain for the sum of squared probabilities,
max-product for the modal probability; the model keeps the walk's root
terms.
The counts a tree needs, of each channel and each pair, are JointCounts,
the package's one count primitive, which merges rows into an empty table or
into shared counts; conditional tables and MI are worked out from them here.
One class holds them (PairStats): a root counts every channel and pair on
its clean rows when it is built, and over(names) gives the statistics on
the rows complete across any channel set, the root's or a child's that
merges in the root's leftover rows complete across the set. Channel sets
that keep the same leftover rows share a row set (row_set) and so one
child. Sweeps and the MI matrix read all their statistics through over.

Each node's four messages are cached, as one entry, on the PairStats the
tree was fitted on (see _upward), so in a sweep they are computed once for
all the trees fitted on the root that send them, and once for all the trees
fitted on one child that send them; a child's cache dies with it. Each cache
holds at most _CACHE_BYTES of messages, dropping the oldest first, so memory
stays bounded however many subsets a sweep visits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import (
    EntropyProfile,
    JointCounts,
    complete_row_mask,
    joint_direct,
    profile_joint,
)
from .errors import DataError
from .quantize import BinnedChannel, Pmf, code_dtype

# most bytes of messages one cache holds, all four of each entry counted;
# past it the oldest entries go
_CACHE_BYTES = 64 * 2 ** 20


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """p(child | parent) in a CSR-like layout.

    Rows exist only for parent bins seen with nonzero count; probabilities
    within a row are strictly positive and sum to 1.
    """

    parent_bins: np.ndarray  # (P,) strictly increasing parent codes
    indptr: np.ndarray  # (P + 1,) row boundaries into the flat arrays
    child_bins: np.ndarray  # (nnz,) ascending within each row
    probs: np.ndarray  # (nnz,)

    def __post_init__(self):
        if self.parent_bins.size + 1 != self.indptr.size:
            raise DataError("conditional table indptr shape mismatch")
        if np.any(np.diff(self.parent_bins) <= 0):
            raise DataError("parent bins must be strictly increasing")
        if np.any(self.probs <= 0):
            raise DataError("conditional probabilities must be positive")
        sums = np.add.reduceat(self.probs, self.indptr[:-1])
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise DataError("conditional rows must each sum to 1")


class MessageCache(dict):
    """A subtree's four messages by key (see _upward), at most _CACHE_BYTES
    of them; past that the oldest entries go first."""

    nbytes = 0

    def remember(self, key, msgs: tuple[np.ndarray, ...]) -> tuple:
        self[key] = msgs
        self.nbytes += sum(msg.nbytes for msg in msgs)
        while self.nbytes > _CACHE_BYTES:
            self.nbytes -= sum(m.nbytes for m in self.pop(next(iter(self))))
        return msgs


@dataclass(frozen=True, eq=False)
class ChowLiuModel:
    nodes: tuple[str, ...]
    root: str
    parent: dict[str, str]  # child -> parent; root has no entry
    root_marginal: Pmf
    conditionals: dict[str, ConditionalTable]  # keyed by child
    edge_weights: dict[tuple[str, str], float]  # sorted name pair -> MI bits
    bin_counts: dict[str, int]
    # messages of the walks over the models fitted on one PairStats
    cache: MessageCache = field(default_factory=MessageCache, repr=False)
    # derived from parent: each node's children in nodes order, and every
    # node in a top-down order (root first, each parent before its children)
    children: dict[str, tuple[str, ...]] = field(init=False, repr=False)
    order: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.root not in self.nodes:
            raise DataError("root is not a node")
        non_root = set(self.nodes) - {self.root}
        if set(self.parent) != non_root or set(self.conditionals) != non_root:
            raise DataError("every non-root node needs a parent and a table")
        kids: dict[str, list[str]] = {name: [] for name in self.nodes}
        for child in self.nodes:
            if child in self.parent:
                kids.get(self.parent[child], []).append(child)
        # each non-root node is listed under one parent, so the walk from the
        # root visits every node at most once; it reaches them all only if the
        # parent map is one tree (a cycle or an unknown parent is cut off)
        order = [self.root]
        for node in order:
            order.extend(kids[node])
        if len(order) != len(self.nodes):
            raise DataError("parent map is not connected")
        object.__setattr__(self, "children",
                           {name: tuple(c) for name, c in kids.items()})
        object.__setattr__(self, "order", tuple(order))

    @functools.cached_property
    def _root_terms(self):
        """The root terms of the model's walk (see _upward), the count's
        summed, worked out on first use. The count may overflow: numpy's
        warnings are off, and tree_support_count refuses a non-finite total."""
        with np.errstate(over="ignore", invalid="ignore"):
            count, *rest = _upward(self)
        return (count.sum(), *rest)


@dataclass(frozen=True)
class ValidationReport:
    subset: tuple[str, ...]
    n: int
    direct: EntropyProfile
    chowliu: EntropyProfile
    mae: float
    rel_error_pct: float


def _edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _conditional(joint: JointCounts, flip: bool) -> ConditionalTable:
    """p(second column | first) of a pair's counts, or p(first | second)
    if flip."""
    # // and - split the nonnegative keys as np.divmod does, several times
    # faster
    parents = joint.keys // joint.bins[1]
    children = joint.keys - parents * joint.bins[1]
    counts = joint.counts
    if flip:
        # keys ascend, so a stable sort by the second column groups its rows
        # with the first column ascending within each; numpy radix-sorts
        # the narrow codes, to the permutation an int64 sort gives
        order = np.argsort(children.astype(code_dtype(joint.bins[1])), kind="stable")
        parents, children, counts = children[order], parents[order], counts[order]
    fresh = np.ones(parents.size, bool)  # each row's first entry
    np.not_equal(parents[1:], parents[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    indptr = np.append(starts, parents.size)
    totals = np.add.reduceat(counts, starts)
    probs = counts / np.repeat(totals, np.diff(indptr))
    return ConditionalTable(parents[starts], indptr, children, probs)


class PairStats:
    """Channel and pair statistics of channels on the rows complete across
    them.

    Each channel and each pair is counted at most once, however many trees
    ask for it, into one dict of JointCounts keyed by name tuple: 1-tuples
    for channels, sorted 2-tuples (_edge_key) for pairs, whichever way a
    pair is asked for. Without a parent a PairStats is a root: it counts its
    rows, and every channel and pair on them, when it is built, so forked
    workers inherit the counts, and it keeps every channel's codes on the
    leftover rows, the others, to lend to children. With a parent, a root
    over a superset of the channels, it is a child: its rows are the
    parent's plus the parent's leftover rows complete across the channels,
    and it counts only the latter, merging them into the parent's counts on
    first use. over(names) picks or makes the PairStats for any channel set.
    The cache holds the messages of the trees fitted on it (see _upward).
    """

    def __init__(self, channels: list[BinnedChannel],
                 parent: PairStats | None = None):
        self.channels = {ch.name: ch for ch in channels}
        self._parent = parent
        # the row set whose rows it holds (None for a root), for over()
        self._made_over = None if parent is None else tuple(self.channels)
        # the channels on the rows it may count: all rows, or the parent's
        # leftover rows; it counts those complete across the channels
        source = channels if parent is None else [
            parent._leftover[name] for name in self.channels]
        rows = complete_row_mask(source) if source else np.ones(0, bool)
        own = int(np.count_nonzero(rows))
        self.n = own + (0 if parent is None else parent.n)
        # each channel's codes on the rows counted here; no copy if all are,
        # else gathered by one index, faster than the mask once per column
        at = None if own == rows.size else np.flatnonzero(rows)
        self._cols = {ch.name: ch.codes if at is None else ch.codes[at]
                      for ch in source}
        self.cache = MessageCache()
        self._joints: dict[tuple[str, ...], JointCounts] = {}
        self._tables: dict[tuple[str, str], ConditionalTable] = {}
        self._marginals: dict[str, Pmf] = {}
        self._mis: dict[tuple[str, str], float] = {}  # keyed as _joints
        self._ranks: dict[str, dict[str, int]] = {}  # see _rank_table
        self._ranked = 0  # how many pairs _ranks ranks
        if parent is None:  # a child lends to no one, so keeps no leftovers
            leftover = np.flatnonzero(~rows)
            self._leftover = {ch.name: BinnedChannel(ch.name, ch.spec,
                                                     ch.codes[leftover])
                              for ch in channels}
            names = list(self.channels)
            for i, a in enumerate(names):
                self.entropy(a)
                for b in names[i + 1:]:
                    self.mi(a, b)

    def _joint(self, names: tuple[str, ...]) -> JointCounts:
        """The joint counts of the named channels on these rows, in that
        order, made on first use."""
        joint = self._joints.get(names)
        if joint is None:
            base = None if self._parent is None else self._parent._joint(names)
            joint = self._joints[names] = JointCounts(
                [self._cols[name] for name in names],
                [self.channels[name].spec.bin_count for name in names], base)
        return joint

    @functools.cached_property
    def _patterns(self) -> tuple[int, dict[str, int]]:
        """The distinct missing patterns of a root's leftover rows, one bit
        each: every pattern's bit, and for each channel the bits of those it
        is present on."""
        names = list(self.channels)
        missing = np.array([self._leftover[name].codes < 0 for name in names])
        # sorted, each column that differs from the one before is a new
        # pattern (np.unique by axis would load numpy.ma for this)
        missing = missing[:, np.lexsort(missing)]
        fresh = np.ones(missing.shape[1], bool)
        fresh[1:] = (missing[:, 1:] != missing[:, :-1]).any(axis=0)
        missing = missing[:, fresh]
        return (1 << missing.shape[1]) - 1, {
            name: int.from_bytes(np.packbits(~row, bitorder="little"), "little")
            for name, row in zip(names, missing)}

    def row_set(self, names) -> tuple[str, ...] | None:
        """The channels, in order, present on every leftover row complete
        across the named ones, or None when no leftover row is.

        It holds the named channels, and the leftover rows complete across
        it are theirs, so two channel sets keep the same rows exactly when
        their row sets are equal, and a child over it counts their rows. A
        child answers for its root. Every leftover row misses one of the
        root's channels, so the root's own channel set keeps none of them:
        that is answered without sorting the leftover rows' patterns."""
        root = self._parent or self
        names = set(names)
        if names == root.channels.keys():
            return None
        kept, present = root._patterns
        for name in names:  # the patterns that miss none of them
            kept &= present[name]
        if not kept:
            return None
        return tuple(name for name, bits in present.items()
                     if bits & kept == kept)

    def marginal(self, name: str) -> Pmf:
        """The channel's pmf on these rows, built once, so the trees rooted
        at the channel do not each rebuild it from the counts."""
        pmf = self._marginals.get(name)
        if pmf is None:
            joint = self._joint((name,))
            pmf = self._marginals[name] = Pmf(joint.keys, joint.counts / self.n)
        return pmf

    def entropy(self, name: str) -> float:
        """Shannon entropy of one channel on these rows, in bits."""
        return self._joint((name,)).shannon

    def mi(self, a: str, b: str) -> float:
        """Plug-in I(a;b) = H(a) + H(b) - H(a,b) on these rows, in bits,
        clamped at 0, worked out once per pair (float addition commutes, so
        either order gives the same bits)."""
        names = _edge_key(a, b)
        mi = self._mis.get(names)
        if mi is None:
            mi = self._mis[names] = max(0.0, self.entropy(a) + self.entropy(b)
                                        - self._joint(names).shannon)
        return mi

    def _rank_table(self, names) -> dict[str, dict[str, int]]:
        """Each pair's place, table[a][b] = table[b][a], in the strict order
        (-MI, then _edge_key) over the pairs whose MI is worked out here,
        which takes in every pair of the named channels. A root works out
        every pair when it is built, so it ranks once; a child works out
        only the pairs it is asked for, and ranks again when a fit brings
        new ones."""
        if self._parent is not None:
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    self.mi(a, b)
        if self._ranked != len(self._mis):
            self._ranked = len(self._mis)
            self._ranks = {name: {} for name in self.channels}
            order = sorted(self._mis, key=lambda e: (-self._mis[e], e))
            for rank, (a, b) in enumerate(order):
                self._ranks[a][b] = self._ranks[b][a] = rank
        return self._ranks

    def conditional(self, parent: str, child: str) -> ConditionalTable:
        """p(child | parent) on these rows, built once."""
        table = self._tables.get((parent, child))
        if table is None:
            names = _edge_key(parent, child)
            table = self._tables[(parent, child)] = _conditional(
                self._joint(names), names[0] == child)
        return table

    def over(self, names) -> PairStats:
        """The statistics on the rows complete across the named channels:
        this PairStats if its row set is theirs, the root if they keep no
        leftover row, else a new child over their row set."""
        names = self.row_set(names)
        if names == self._made_over:
            return self
        root = self._parent or self
        if names is None:
            return root
        return PairStats([root.channels[name] for name in names], root)


def build_tree(channels: list[BinnedChannel],
               shared: PairStats | None = None) -> ChowLiuModel:
    """Fit the maximum-MI spanning tree on rows complete across the subset.

    Weight ties break toward the lexicographically smallest name pair; the
    root is the first channel in input order. Both choices exist purely so
    repeated runs produce the identical model. Pair counts come from
    shared.over(channels) when shared is given, a PairStats, root or child,
    whose root holds these channels and possibly more; without it, from a
    PairStats over these channels alone. Each pair's counts are keyed by
    sorted names, and p(child | parent) reads them either way to the same
    table, so the model is the same whichever way it is fitted.
    """
    if len(channels) < 2:
        raise DataError("tree needs at least 2 channels")
    names = [ch.name for ch in channels]
    if len(set(names)) != len(names):
        raise DataError("duplicate channel names")
    stats = (shared or PairStats(channels)).over(names)
    if stats.n == 0:
        raise DataError("no complete rows")
    bins = {ch.name: ch.spec.bin_count for ch in channels}

    # Prim from the root: each step adopts the cheapest edge from the tree to
    # a node outside it under the strict key (-MI, name pair). A strict total
    # order has one minimum spanning tree, so these are the edges Kruskal
    # takes, and the edge that adopts a node names its parent. The key is
    # read as each pair's integer rank in that order, so a step compares
    # ints: each node outside the tree keeps its best rank to the tree and
    # the tree node it comes from.
    ranks = stats._rank_table(names)
    root = names[0]
    parent: dict[str, str] = {}
    tree_weights: dict[tuple[str, str], float] = {}
    near = {name: ranks[root][name] for name in names[1:]}
    via = dict.fromkeys(near, root)
    while near:
        node = min(near, key=near.__getitem__)
        del near[node]
        par = parent[node] = via[node]
        tree_weights[_edge_key(node, par)] = stats.mi(node, par)
        row = ranks[node]
        for other, rank in near.items():
            if row[other] < rank:
                near[other], via[other] = row[other], node

    conditionals = {
        child: stats.conditional(par, child)
        for child, par in parent.items()
    }
    return ChowLiuModel(
        nodes=tuple(names),
        root=root,
        parent=parent,
        root_marginal=stats.marginal(root),
        conditionals=conditionals,
        edge_weights=tree_weights,
        bin_counts=bins,
        cache=stats.cache,
    )


def _terms(p, log_p, bins, below):
    """A node's count, Shannon, power-sum and max-product terms: 1, log2 p,
    2 log2 p and log2 p, each child's messages read at bins folded in by
    product (from the first child's), sum, sum and sum."""
    count, mean, power, top = None, log_p, 2.0 * log_p, log_p
    for c, s, w, m in below:
        count = c[bins] if count is None else count * c[bins]
        mean, power, top = mean + s[bins], power + w[bins], top + m[bins]
    return np.ones_like(p) if count is None else count, mean, power, top


def _upward(model: ChowLiuModel):
    """One upward walk over the tree in four semirings; returns the root's
    terms. For each parent bin v a node sends its subtree's number of code
    tuples with positive probability given v; t(v) = sum over x of p(x|v)
    (log2 p(x|v) + its children's t at x), the expected log2-probability
    given v; log2 of the sum over x of p(x|v)**2 times its children's power
    sums at x; the largest log2-probability given v; and each semiring's zero
    at a parent bin without a row.

    They depend only on the node's subtree, whose shape is (parent name,
    node name, *its children's shapes): within one PairStats a pair of names
    fixes the table and the parent's bin count. So the model's cache keeps
    the four as one entry under the shape, and a tree computes only those no
    earlier tree fitted on its PairStats sent.
    """
    sent, shapes = {}, {}
    for node in reversed(model.order[1:]):
        cond = model.conditionals[node]
        kids = model.children[node]
        shape = shapes[node] = (model.parent[node], node,
                                *(shapes[child] for child in kids))
        msgs = model.cache.get(shape)
        if msgs is None:
            starts = cond.indptr[:-1]
            count, mean, power, top = _terms(
                cond.probs, np.log2(cond.probs), cond.child_bins,
                [sent[child] for child in kids])
            peak = np.maximum.reduceat(power, starts)
            spread = np.exp2(power - np.repeat(peak, np.diff(cond.indptr)))
            msgs = np.full((4, model.bin_counts[model.parent[node]]), -np.inf)
            msgs[:2] = 0.0  # the count's and Shannon's zero; the others' is -inf
            msgs[:, cond.parent_bins] = (
                np.add.reduceat(count, starts),
                np.add.reduceat(cond.probs * mean, starts),
                peak + np.log2(np.add.reduceat(spread, starts)),
                np.maximum.reduceat(top, starts))
            msgs = model.cache.remember(shape, tuple(msgs))
        sent[node] = msgs
    root = model.root_marginal
    return _terms(root.p, np.log2(root.p), root.bins,
                  [sent[child] for child in model.children[model.root]])


def tree_shannon(model: ChowLiuModel) -> float:
    """Shannon entropy of the tree distribution, in bits (see _upward)."""
    return -math.fsum((model.root_marginal.p * model._root_terms[1]).tolist())


def tree_power_sum(model: ChowLiuModel) -> float:
    """log2 of the sum of squared probabilities of the tree distribution, in
    log2 domain throughout (see _upward); H2 is minus it."""
    terms = model._root_terms[2]
    peak = float(terms.max())
    return peak + math.log2(float(np.sum(np.exp2(terms - peak))))


def tree_max_prob(model: ChowLiuModel) -> float:
    """log2 of the modal probability of the tree distribution (H-infinity is
    minus it), by max-product in log2 domain (see _upward)."""
    return float(model._root_terms[3].max())


def tree_support_count(model: ChowLiuModel) -> float:
    """Number of code tuples with positive tree probability, as a float.

    Sum-product over the support indicator, in float64 (see _upward): its
    values are nonnegative integers, every intermediate that reaches the
    total is at most the total (the rest are multiplied by zero) and rounding
    is monotone, so a total below 2**53 is exact. Beyond, a relative error of
    k ulps in the total moves its log2 (53 or more) by at most k/44 of an ulp
    of that log2, so log2 of the total is within 1 ulp of log2 of the exact
    count unless the rounding of the walk piles up past about 20 ulps. Past
    float64's range (about 2**1024) the total is inf, or NaN where an
    overflowed message met a zero: the count is refused with DataError.
    """
    total = model._root_terms[0]
    if not math.isfinite(total):
        raise DataError("support count exceeds float64's range (about "
                        "2**1024 code tuples); use fewer channels")
    return float(total)


def tree_profile(model: ChowLiuModel) -> EntropyProfile:
    """All four orders of the tree distribution, from one walk."""
    return EntropyProfile(
        h0=math.log2(tree_support_count(model)),
        h1=tree_shannon(model),
        h2=-tree_power_sum(model),
        hmin=-tree_max_prob(model),
    )


def validate(channels: list[BinnedChannel]) -> ValidationReport:
    """Direct joint profile against the tree profile on identical rows.

    Only arities 2 and 3 are supported: past that the direct enumeration this
    comparison exists for stops being the trustworthy side.
    """
    if len(channels) < 2:
        raise DataError("validation requires n >= 2")
    if len(channels) > 3:
        raise DataError("validation compares against direct enumeration; use n <= 3")
    direct = profile_joint(joint_direct(channels))
    approx = tree_profile(build_tree(channels))
    pairs = list(zip(
        (direct.h0, direct.h1, direct.h2, direct.hmin),
        (approx.h0, approx.h1, approx.h2, approx.hmin),
    ))
    mae = math.fsum(abs(d - c) for d, c in pairs) / 4.0
    if all(d > 0 for d, _ in pairs):
        rel = 100.0 * math.fsum(abs(d - c) / d for d, c in pairs) / 4.0
    else:
        rel = math.nan
    return ValidationReport(
        subset=tuple(ch.name for ch in channels),
        n=len(channels),
        direct=direct,
        chowliu=approx,
        mae=mae,
        rel_error_pct=rel,
    )


import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroscope import chowliu
from entroscope.chowliu import (
    ChowLiuModel,
    ConditionalTable,
    PairStats,
    build_tree,
    tree_max_prob,
    tree_power_sum,
    tree_profile,
    tree_shannon,
    tree_support_count,
    validate,
)
from entroscope.entropy import (
    JointCounts,
    complete_row_mask,
    joint_direct,
    profile_joint,
)
from entroscope.errors import DataError
from entroscope.quantize import BinnedChannel, Pmf
from helpers import bincount_pmf, codes_profile, profile_of_dict
from oracles import (
    as_chowliu,
    chain_rule_shannon,
    dump,
    exact_chain_rule_shannon,
    exact_support_count,
    prebinned,
    random_tree_model,
    sample,
    ulps,
)


def _top_down(model):
    """(children by node, a root-first order), from the parent map alone."""
    kids = {name: [] for name in model.nodes}
    for child in model.nodes:
        if child != model.root:
            kids[model.parent[child]].append(child)
    order = [model.root]
    i = 0
    while i < len(order):
        order.extend(kids[order[i]])
        i += 1
    return kids, order


def expand_chowliu_dict(model):
    """Flat {code tuple: prob} joint of a ChowLiuModel, pure Python."""
    _, order = _top_down(model)
    joint = {}

    def extend(assign, prob, idx):
        if idx == len(order):
            joint[tuple(assign[n] for n in model.nodes)] = prob
            return
        name = order[idx]
        if name == model.root:
            items = zip(model.root_marginal.bins.tolist(),
                        model.root_marginal.p.tolist())
        else:
            cond = model.conditionals[name]
            row = cond.parent_bins.tolist().index(assign[model.parent[name]])
            lo, hi = int(cond.indptr[row]), int(cond.indptr[row + 1])
            items = zip(cond.child_bins[lo:hi].tolist(), cond.probs[lo:hi].tolist())
        for code, p in items:
            assign[name] = code
            extend(assign, prob * p, idx + 1)
            del assign[name]

    extend({}, 1.0, 0)
    return joint


def chans_from(rows, bins):
    return [
        prebinned(f"x{i}", rows[:, i], bins[i]) for i in range(rows.shape[1])
    ]


def test_build_tree_two_channels():
    rng = np.random.default_rng(0)
    a = prebinned("a", rng.integers(0, 4, size=1000), 4)
    b = prebinned("b", rng.integers(0, 4, size=1000), 4)
    model = build_tree([a, b])
    assert model.nodes == ("a", "b")
    assert model.root == "a"
    assert model.parent == {"b": "a"}
    assert model.edge_weights[("a", "b")] == pytest.approx(
        _mi_bits(a.codes, b.codes, 4), abs=1e-9
    )


def test_build_tree_recovers_chain():
    # x0 -> x1 -> x2 with strong links; the (0,2) MI is weaker than either
    rng = np.random.default_rng(5)
    n = 100_000
    x0 = rng.integers(0, 4, size=n)
    noise1 = rng.integers(0, 4, size=n)
    x1 = np.where(rng.random(n) < 0.85, x0, noise1)
    noise2 = rng.integers(0, 4, size=n)
    x2 = np.where(rng.random(n) < 0.85, x1, noise2)
    model = build_tree(chans_from(np.stack([x0, x1, x2], axis=1), [4, 4, 4]))
    edges = set(model.edge_weights)
    assert edges == {("x0", "x1"), ("x1", "x2")}


def test_build_tree_independent_deterministic():
    rng = np.random.default_rng(8)
    rows = rng.integers(0, 3, size=(5000, 3))
    chans = chans_from(rows, [3, 3, 3])
    m1 = build_tree(chans)
    m2 = build_tree(chans)
    assert m1.parent == m2.parent
    assert list(m1.edge_weights) == list(m2.edge_weights)
    assert m1.root == "x0"


def _kruskal_parent(names, weights):
    """Reference parent map: Kruskal over edges sorted by falling MI, ties by
    name pair, with a union-find, then a breadth-first walk from names[0] to
    orient the adopted edges."""
    index = {name: i for i, name in enumerate(names)}
    uf = list(range(len(names)))

    def find(x):
        while uf[x] != x:
            x = uf[x]
        return x

    neighbors = {name: [] for name in names}
    for (a, b), _w in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0])):
        ra, rb = find(index[a]), find(index[b])
        if ra != rb:
            uf[ra] = rb
            neighbors[a].append(b)
            neighbors[b].append(a)
    parent, frontier = {}, [names[0]]
    while frontier:
        node = frontier.pop(0)
        for nb in sorted(neighbors[node], key=index.__getitem__):
            if nb != names[0] and nb not in parent:
                parent[nb] = node
                frontier.append(nb)
    return parent


def test_build_tree_matches_kruskal_on_tied_weights():
    # few rows and few bins make many pairs share one MI, often 0, so most
    # edges are chosen by the name-pair tie-break
    rng = np.random.default_rng(71)
    for _ in range(600):
        k, rows = int(rng.integers(2, 8)), int(rng.integers(2, 12))
        bins = [int(rng.integers(2, 4)) for _ in range(k)]
        chans = chans_from(np.stack([rng.integers(0, b, size=rows) for b in bins],
                                    axis=1), bins)
        chans = [chans[i] for i in rng.permutation(k)]
        names = [ch.name for ch in chans]
        stats = PairStats(chans)
        weights = {tuple(sorted(e)): stats.mi(*e)
                   for e in itertools.combinations(names, 2)}
        model = build_tree(chans)
        parent = _kruskal_parent(names, weights)
        assert model.parent == parent
        assert model.edge_weights == {
            tuple(sorted(e)): weights[tuple(sorted(e))] for e in parent.items()}


def test_build_tree_errors():
    ch = prebinned("a", np.array([0, 1]), 2)
    with pytest.raises(DataError):
        build_tree([ch])
    other = prebinned("b", np.array([-1, -1]), 2)
    with pytest.raises(DataError, match="complete"):
        build_tree([ch, other])
    with pytest.raises(DataError, match="duplicate"):
        build_tree([ch, prebinned("a", np.array([1, 0]), 2)])


def test_tree_shannon_independent_sums():
    rng = np.random.default_rng(10)
    rows = np.stack(
        [rng.integers(0, 4, size=40_000), rng.integers(0, 8, size=40_000)],
        axis=1,
    )
    chans = chans_from(rows, [4, 8])
    model = build_tree(chans)
    h_sum = sum(codes_profile(c.codes)[1] for c in chans)
    # independence holds only statistically; plug-in MI adds a small bias
    assert tree_shannon(model) == pytest.approx(h_sum, abs=0.01)


def test_tree_shannon_duplicated_pair():
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 8, size=5000)
    model = build_tree(
        [prebinned("x", codes, 8), prebinned("y", codes, 8)]
    )
    assert tree_shannon(model) == pytest.approx(
        codes_profile(codes)[1], abs=1e-9
    )


def _random_models():
    """Oracle trees of 1 to 9 nodes over 2 to 6 bins each."""
    return [as_chowliu(random_tree_model(seed, nodes=1 + seed % 9,
                                         arity=2 + seed % 5))
            for seed in range(18)]


def test_tree_shannon_within_8_ulp_of_chain_rule_on_random_trees():
    for model in _random_models():
        assert ulps(tree_shannon(model), chain_rule_shannon(model)) <= 8


def test_tree_shannon_within_1_ulp_of_exact_chain_rule():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    base = rng.integers(0, 9, size=3000)
    rows = np.stack([np.where(rng.random(3000) < share, base,
                              rng.integers(0, 9, size=3000))
                     for share in (1.0, 0.7, 0.5, 0.3, 0.0)], axis=1)
    fitted = build_tree(chans_from(rows, [9, 9, 9, 9, 9]))
    for model in [*_random_models(), fitted]:
        assert ulps(tree_shannon(model), exact_chain_rule_shannon(model)) <= 1


def uniform_product_model(k, m):
    """k independent channels, each uniform over 2^m bins."""
    bins = 2 ** m
    codes = np.arange(bins)
    marg = Pmf(codes, np.full(bins, 1.0 / bins))
    table = ConditionalTable(
        codes,
        np.arange(bins + 1) * bins,
        np.tile(codes, bins),
        np.full(bins * bins, 1.0 / bins),
    )
    names = tuple(f"u{i}" for i in range(k))
    return ChowLiuModel(
        nodes=names,
        root=names[0],
        parent={names[i]: names[i - 1] for i in range(1, k)},
        root_marginal=marg,
        conditionals={names[i]: table for i in range(1, k)},
        edge_weights={
            tuple(sorted((names[i - 1], names[i]))): 0.0 for i in range(1, k)
        },
        bin_counts={n: bins for n in names},
    )


def test_uniform_product_all_orders():
    model = uniform_product_model(3, 2)
    prof = tree_profile(model)
    for v in (prof.h0, prof.h1, prof.h2, prof.hmin):
        assert v == pytest.approx(6.0, abs=1e-9)
    assert tree_support_count(model) == 64


def test_power_sum_fair_bits():
    model = uniform_product_model(2, 1)
    assert tree_power_sum(model) == pytest.approx(-2.0, abs=1e-12)


def test_max_prob_point_mass():
    marg = Pmf(np.array([2]), np.array([1.0]))
    table = ConditionalTable(
        np.array([2]), np.array([0, 1]), np.array([5]), np.array([1.0])
    )
    model = ChowLiuModel(
        nodes=("a", "b"),
        root="a",
        parent={"b": "a"},
        root_marginal=marg,
        conditionals={"b": table},
        edge_weights={("a", "b"): 0.0},
        bin_counts={"a": 3, "b": 6},
    )
    logp = tree_max_prob(model)
    assert logp == 0.0
    prof = tree_profile(model)
    assert prof == pytest.approx((0.0, 0.0, 0.0, 0.0)) or prof.h0 == 0.0


def test_max_prob_hand_joint():
    # p(a=0)=0.75, p(b|a) chosen so the largest joint cell is 0.375
    marg = Pmf(np.array([0, 1]), np.array([0.75, 0.25]))
    table = ConditionalTable(
        np.array([0, 1]),
        np.array([0, 2, 4]),
        np.array([0, 1, 0, 1]),
        np.array([0.5, 0.5, 0.2, 0.8]),
    )
    model = ChowLiuModel(
        nodes=("a", "b"),
        root="a",
        parent={"b": "a"},
        root_marginal=marg,
        conditionals={"b": table},
        edge_weights={("a", "b"): 0.0},
        bin_counts={"a": 2, "b": 2},
    )
    logp = tree_max_prob(model)
    assert 2.0 ** logp == pytest.approx(0.375, abs=1e-12)


def _point_root_model(root_bin, table, child_bins):
    """a -> b with all of a's mass on root_bin, so the pass must use that row."""
    return ChowLiuModel(
        nodes=("a", "b"),
        root="a",
        parent={"b": "a"},
        root_marginal=Pmf(np.array([root_bin]), np.array([1.0])),
        conditionals={"b": table},
        edge_weights={("a", "b"): 0.0},
        bin_counts={"a": 4, "b": child_bins},
    )


def test_max_prob_ties_pick_smallest_bin_in_every_row():
    # every row of p(b | a) has its maximum on two or more bins
    table = ConditionalTable(
        np.array([0, 1, 3]),
        np.array([0, 3, 5, 9]),
        np.array([1, 2, 4, 0, 3, 0, 2, 3, 4]),
        np.array([0.25, 0.375, 0.375, 0.5, 0.5, 0.125, 0.125, 0.375, 0.375]),
    )
    want = {0: 0.375, 1: 0.5, 3: 0.375}
    for root_bin, p in want.items():
        logp = tree_max_prob(_point_root_model(root_bin, table, 5))
        assert logp == math.log2(p)


def test_max_prob_tie_through_child_message():
    # a -> b -> c; every b carries log2 p(b | a) + max log2 p(c | b) = -2,
    # and the c row under b = 0 ties too
    model = ChowLiuModel(
        nodes=("a", "b", "c"),
        root="a",
        parent={"b": "a", "c": "b"},
        root_marginal=Pmf(np.array([0]), np.array([1.0])),
        conditionals={
            "b": ConditionalTable(np.array([0]), np.array([0, 3]),
                                  np.array([0, 1, 2]), np.array([0.5, 0.25, 0.25])),
            "c": ConditionalTable(np.array([0, 1, 2]), np.array([0, 2, 3, 4]),
                                  np.array([2, 3, 0, 1]),
                                  np.array([0.5, 0.5, 1.0, 1.0])),
        },
        edge_weights={("a", "b"): 0.0, ("b", "c"): 0.0},
        bin_counts={"a": 1, "b": 3, "c": 4},
    )
    logp = tree_max_prob(model)
    assert logp == -2.0


def _max_prob_row_loop(model):
    """Max-product with one max per conditional row, as a reference: the
    log2 modal probability."""
    kids, order = _top_down(model)
    messages = {}
    for node in reversed(order[1:]):
        cond = model.conditionals[node]
        terms = np.log2(cond.probs)
        for child in kids[node]:
            terms = terms + messages[child][cond.child_bins]
        msg = np.full(model.bin_counts[model.parent[node]], -np.inf)
        for r in range(cond.parent_bins.size):
            lo, hi = int(cond.indptr[r]), int(cond.indptr[r + 1])
            msg[cond.parent_bins[r]] = terms[lo:hi].max()
        messages[node] = msg
    terms = np.log2(model.root_marginal.p)
    for child in kids[model.root]:
        terms = terms + messages[child][model.root_marginal.bins]
    return float(terms.max())


def test_max_prob_matches_row_loop_on_fitted_models():
    rng = np.random.default_rng(41)
    for trial in range(6):
        k = 3 + trial % 3
        bins = [int(b) for b in rng.integers(2, 9, size=k)]
        # few rows over few bins, so equal counts and so exact ties are common
        rows = np.stack([rng.integers(0, b, size=60) for b in bins], axis=1)
        rows[:, 1] = (rows[:, 0] + rows[:, 1]) % bins[1]
        model = build_tree(chans_from(rows, bins))
        assert tree_max_prob(model) == _max_prob_row_loop(model)


def test_support_count_independent_and_duplicated():
    rng = np.random.default_rng(13)
    a = rng.integers(0, 3, size=20_000)
    b = rng.integers(0, 5, size=20_000)
    model = build_tree(
        [prebinned("a", a, 3), prebinned("b", b, 5)]
    )
    assert tree_support_count(model) == 15

    codes = rng.integers(0, 7, size=20_000)
    dup = build_tree([prebinned("x", codes, 7), prebinned("y", codes, 7)])
    assert tree_support_count(dup) == 7


def test_support_count_big_integer_path():
    # nine 200-bin channels, all tuples allowed: 200^9 = 2^27 * 5^18 is past
    # 2^62 yet a float64, so the count is exact
    bins = 200
    codes = np.arange(bins)
    marg = Pmf(codes, np.full(bins, 1.0 / bins))
    table = ConditionalTable(
        codes,
        np.arange(bins + 1) * bins,
        np.tile(codes, bins),
        np.full(bins * bins, 1.0 / bins),
    )
    names = tuple(f"u{i}" for i in range(9))
    model = ChowLiuModel(
        nodes=names,
        root=names[0],
        parent={names[i]: names[i - 1] for i in range(1, 9)},
        root_marginal=marg,
        conditionals={names[i]: table for i in range(1, 9)},
        edge_weights={
            tuple(sorted((names[i - 1], names[i]))): 0.0 for i in range(1, 9)
        },
        bin_counts={n: bins for n in names},
    )
    assert tree_support_count(model) == bins ** 9
    prof = tree_profile(model)
    assert prof.h0 == pytest.approx(9 * math.log2(bins), rel=1e-12)


def test_support_count_small_support_past_int64_state_bound():
    # nine 200-bin channels, each a permutation of its parent: 200^9 states
    # exceed 2^62, yet only 200 tuples have positive probability
    bins = 200
    codes = np.arange(bins)
    marg = Pmf(codes, np.full(bins, 1.0 / bins))
    names = tuple(f"p{i}" for i in range(9))
    rng = np.random.default_rng(43)
    conditionals = {
        name: ConditionalTable(codes, np.arange(bins + 1),
                               rng.permutation(bins), np.ones(bins))
        for name in names[1:]
    }
    model = ChowLiuModel(
        nodes=names,
        root=names[0],
        parent={names[i]: names[i - 1] for i in range(1, 9)},
        root_marginal=marg,
        conditionals=conditionals,
        edge_weights={
            tuple(sorted((names[i - 1], names[i]))): 0.0 for i in range(1, 9)
        },
        bin_counts={n: bins for n in names},
    )
    assert math.prod(model.bin_counts.values()) > 2 ** 62
    assert tree_support_count(model) == exact_support_count(model) == bins


def _log2_ulps(count, exact):
    """How far log2 of a float count is from log2 of the exact count, in
    ulps."""
    return ulps(math.log2(count), math.log2(exact))


def _sparse_tree(rng):
    """A random hand-built tree of 5 to 40 nodes over up to 2,048 bins each.
    Only a few codes of each node (live) have rows in its children's tables;
    an inner node's rows pick among its live codes, a leaf's rows up to all
    of its bins, so counts run past 2**128 on few table entries."""
    k = int(rng.integers(5, 41))
    names = [f"s{i}" for i in range(k)]
    bins = [int(b) for b in rng.integers(2, 2049, size=k)]
    up = {i: int(rng.integers(0, i)) for i in range(1, k)}
    inner = set(up.values())
    live = [np.sort(rng.choice(b, size=min(b, int(rng.integers(1, 17))),
                               replace=False)) for b in bins]

    def row(i):
        pool, most = (live[i], live[i].size) if i in inner else (bins[i], bins[i])
        return np.sort(rng.choice(pool, size=int(rng.integers(1, most + 1)),
                                  replace=False))

    conditionals = {}
    for i, p in up.items():
        rows = live[p][rng.random(live[p].size) < 0.9]  # some rows missing
        rows = rows if rows.size else live[p][:1]
        child = [row(i) for _ in rows]
        widths = np.array([c.size for c in child])
        conditionals[names[i]] = ConditionalTable(
            rows, np.r_[0, np.cumsum(widths)], np.concatenate(child),
            np.repeat(1 / widths, widths))
    parent = {names[i]: names[p] for i, p in up.items()}
    return ChowLiuModel(
        nodes=tuple(names), root=names[0], parent=parent,
        root_marginal=Pmf(live[0], np.full(live[0].size, 1 / live[0].size)),
        conditionals=conditionals,
        edge_weights={tuple(sorted(e)): 0.0 for e in parent.items()},
        bin_counts=dict(zip(names, bins)))


def test_support_count_matches_python_int_pass_on_random_trees():
    # fitted trees: counts below 2**53, which the float64 pass gets exactly
    rng = np.random.default_rng(53)
    for trial in range(20):
        k = int(rng.integers(2, 7))
        bins = [int(b) for b in rng.integers(2, 12, size=k)]
        n = int(rng.integers(5, 400))
        rows = np.stack([rng.integers(0, b, size=n) for b in bins], axis=1)
        model = build_tree(chans_from(rows, bins))
        assert tree_support_count(model) == exact_support_count(model), trial
    # sparse hand-built trees, with counts up to past 2**128: log2 within an
    # ulp
    rng = np.random.default_rng(2026)
    exacts = []
    for trial in range(40):
        model = _sparse_tree(rng)
        count, exact = tree_support_count(model), exact_support_count(model)
        if exact < 2 ** 53:
            assert count == exact, trial
        else:
            assert _log2_ulps(count, exact) <= 1, trial
        exacts.append(exact)
    assert max(exacts) > 2 ** 128


def _scrambled_model():
    """A 5-node tree whose root is not nodes[0] and in which two children
    are listed before their parents: root c; c -> a, c -> e, a -> d, a -> b."""
    def table(parent_bins, rows):
        indptr = np.cumsum([0] + [len(r) for r in rows])
        bins = np.array([b for r in rows for b, _ in r])
        probs = np.array([q for r in rows for _, q in r])
        return ConditionalTable(np.array(parent_bins), indptr, bins, probs)

    return ChowLiuModel(
        nodes=("d", "a", "b", "c", "e"),
        root="c",
        parent={"a": "c", "e": "c", "d": "a", "b": "a"},
        root_marginal=Pmf(np.array([0, 2]), np.array([0.375, 0.625])),
        conditionals={
            "a": table([0, 2], [[(0, 0.5), (1, 0.5)], [(1, 0.25), (2, 0.75)]]),
            "e": table([0, 2], [[(1, 1.0)], [(0, 0.5), (1, 0.5)]]),
            "d": table([0, 1, 2], [[(0, 0.125), (3, 0.875)], [(2, 1.0)],
                                   [(0, 0.5), (1, 0.25), (3, 0.25)]]),
            "b": table([0, 1, 2], [[(1, 1.0)], [(0, 0.625), (1, 0.375)],
                                   [(0, 1.0)]]),
        },
        edge_weights={("a", "c"): 0.0, ("c", "e"): 0.0, ("a", "d"): 0.0,
                      ("a", "b"): 0.0},
        bin_counts={"a": 3, "b": 2, "c": 3, "d": 4, "e": 2},
    )


def test_passes_on_model_with_children_listed_before_parents():
    model = _scrambled_model()
    assert model.nodes.index("d") < model.nodes.index("a")  # child first
    joint = expand_chowliu_dict(model)
    got = tree_profile(model)
    assert tree_support_count(model) == len(joint) == 14
    assert (got.h0, got.h1, got.h2, got.hmin) == pytest.approx(
        profile_of_dict(joint), abs=1e-12)
    assert tree_max_prob(model) == _max_prob_row_loop(model)


def test_tree_shape_errors():
    model = _scrambled_model()
    fields = dict(root_marginal=model.root_marginal,
                  conditionals=model.conditionals,
                  edge_weights=model.edge_weights, bin_counts=model.bin_counts)
    # a and d parent each other: a cycle the root never reaches
    with pytest.raises(DataError, match="not connected"):
        ChowLiuModel(nodes=model.nodes, root="c",
                     parent={"a": "d", "e": "c", "d": "a", "b": "a"}, **fields)
    # a's parent is not a node, which cuts a, d and b off from the root
    with pytest.raises(DataError, match="not connected"):
        ChowLiuModel(nodes=model.nodes, root="c",
                     parent={"a": "x", "e": "c", "d": "a", "b": "a"}, **fields)
    with pytest.raises(DataError, match="needs a parent"):
        ChowLiuModel(nodes=model.nodes, root="c",
                     parent={"a": "c", "e": "c", "d": "a"}, **fields)


@pytest.mark.parametrize("widths", [[64] * 8 + [32], [64] * 9, [64] * 10 + [3]])
def test_support_count_exact_between_float64_and_int64_limits(widths):
    # root bin 0 allows w codes on each leaf, root bin 1 one code: prod(w) + 1
    # tuples, 2**53 + 1, 2**54 + 1 and 3 * 2**60 + 1, which float64 rounds
    # down by one, a rounding far below an ulp of log2: the oracle is exact,
    # the float64 count's log2 within 1 ulp
    leaves = tuple(f"l{i}" for i in range(len(widths)))
    conditionals = {
        leaf: ConditionalTable(
            np.array([0, 1]),
            np.array([0, w, w + 1]),
            np.r_[np.arange(w), 0],
            np.r_[np.full(w, 1 / w), 1.0],
        )
        for leaf, w in zip(leaves, widths)
    }
    model = ChowLiuModel(
        nodes=("r",) + leaves,
        root="r",
        parent={leaf: "r" for leaf in leaves},
        root_marginal=Pmf(np.array([0, 1]), np.array([0.5, 0.5])),
        conditionals=conditionals,
        edge_weights={tuple(sorted(("r", leaf))): 0.0 for leaf in leaves},
        bin_counts={"r": 2, **dict(zip(leaves, widths))},
    )
    want = math.prod(widths) + 1
    assert 2 ** 53 < want < 2 ** 62 and float(want) != want
    assert exact_support_count(model) == want
    assert _log2_ulps(tree_support_count(model), want) <= 1


def _uniform_rows(rows):
    """A conditional table from {parent bin: child bins}, uniform in each row."""
    parents = sorted(rows)
    return ConditionalTable(
        np.array(parents), np.cumsum([0] + [len(rows[p]) for p in parents]),
        np.concatenate([np.asarray(rows[p]) for p in parents]),
        np.concatenate([np.full(len(rows[p]), 1 / len(rows[p])) for p in parents]))


def _tree_of(parent, conditionals, bin_counts, root="r"):
    """A model rooted at root's one bin, with zero edge weights."""
    return ChowLiuModel(
        nodes=(root, *parent), root=root, parent=parent,
        root_marginal=Pmf(np.array([0]), np.array([1.0])),
        conditionals=conditionals,
        edge_weights={tuple(sorted(e)): 0.0 for e in parent.items()},
        bin_counts=bin_counts)


def test_support_count_in_int64_past_a_message_beyond_int64():
    # r -> x -> {c, d}; c's six children allow 2047 codes each at c = 0, so
    # c sends 2047**6 > 2**64 at x = 0, where d's table has no row: that
    # message is multiplied by zero. The count is c's 1 at x = 1 times d's
    # five children's widths, between 2**53 and 2**62 (in int64's range)
    widths = [2047, 2039, 2029, 2017, 2011]
    kids_c = [f"c{i}" for i in range(6)]
    kids_d = [f"d{i}" for i in range(5)]
    conditionals = {
        "x": _uniform_rows({0: [0, 1]}),
        "c": _uniform_rows({0: [0], 1: [1]}),
        "d": _uniform_rows({1: [0]}),
        **{k: _uniform_rows({0: np.arange(2047), 1: [0]}) for k in kids_c},
        **{k: _uniform_rows({0: np.arange(w)}) for k, w in zip(kids_d, widths)},
    }
    parent = {"x": "r", "c": "x", "d": "x", **dict.fromkeys(kids_c, "c"),
              **dict.fromkeys(kids_d, "d")}
    model = _tree_of(parent, conditionals, {
        "r": 1, "x": 2, "c": 2, "d": 1, **dict.fromkeys(kids_c, 2047),
        **dict(zip(kids_d, widths))})
    want = math.prod(widths)
    assert 2 ** 53 <= want < 2 ** 62 and 2047 ** 6 > 2 ** 64
    assert exact_support_count(model) == want
    assert _log2_ulps(tree_support_count(model), want) <= 1


def test_support_count_refused_past_float64_range():
    # a star of 94 leaves that allow 2048 codes each: 2**1034 tuples, so the
    # total is inf
    leaves = [f"l{i}" for i in range(94)]
    star = _tree_of(dict.fromkeys(leaves, "r"),
                    dict.fromkeys(leaves, _uniform_rows({0: np.arange(2048)})),
                    {"r": 1, **dict.fromkeys(leaves, 2048)})
    # the same leaves under c = 0 in r -> x -> {c, d}: c sends inf at x = 0,
    # where d has no row, so the total is NaN though only one tuple is allowed
    parent = {"x": "r", "c": "x", "d": "x", **dict.fromkeys(leaves, "c")}
    hidden = _tree_of(parent, {
        "x": _uniform_rows({0: [0, 1]}),
        "c": _uniform_rows({0: [0], 1: [1]}),
        "d": _uniform_rows({1: [0]}),
        **dict.fromkeys(leaves, _uniform_rows({0: np.arange(2048), 1: [0]})),
    }, {"r": 1, "x": 2, "c": 2, "d": 1, **dict.fromkeys(leaves, 2048)})
    assert exact_support_count(star) == 2 ** 1034
    assert exact_support_count(hidden) == 1
    for model in (star, hidden):
        with pytest.raises(DataError, match="float64's range"):
            tree_support_count(model)
        with pytest.raises(DataError, match="float64's range"):
            tree_profile(model)


def _bits(codes):
    """Plug-in Shannon entropy of codes, summed one term per occupied cell."""
    counts = np.bincount(codes)
    p = counts[counts > 0] / codes.size
    return -math.fsum((p * np.log2(p)).tolist())


def _mi_bits(ca, cb, b_bins):
    # fused in int64: narrow codes times b_bins can wrap in their own type
    return max(0.0, _bits(ca) + _bits(cb)
               - _bits(ca.astype(np.int64) * b_bins + cb))


@pytest.mark.parametrize("a_bins, b_bins", [(6, 7), (60, 70)])
def test_pair_counts_match_direct_counting(a_bins, b_bins):
    # 6 x 7 cells fit under 3000 rows (dense count); 60 x 70 do not (sort)
    rng = np.random.default_rng(47)
    ca = rng.integers(0, a_bins, size=3000)
    cb = (ca * 2 + rng.integers(0, 3, size=3000)) % b_bins
    ca[ca == 4] = 5  # an empty bin inside the range
    pair = JointCounts([ca, cb], [a_bins, b_bins])
    keys, counts = np.unique(ca * b_bins + cb, return_counts=True)
    assert pair.n == ca.size
    assert np.array_equal(pair.keys, keys)
    assert np.array_equal(pair.counts, counts)
    a, b = prebinned("a", ca, a_bins), prebinned("b", cb, b_bins)
    stats = PairStats([a, b])
    for parent, (cp, cc, child_bins) in zip(
            "ab", [(ca, cb, b_bins), (cb, ca, a_bins)]):
        uniq, counts = np.unique(cp * child_bins + cc, return_counts=True)
        child = "b" if parent == "a" else "a"
        table = stats.conditional(parent, child)
        assert stats.conditional(parent, child) is table
        assert np.array_equal(table.child_bins, uniq % child_bins)
        rows = uniq // child_bins
        assert np.array_equal(table.parent_bins, np.unique(rows))
        totals = np.array([counts[rows == r].sum() for r in rows])
        assert np.array_equal(table.probs, counts / totals)
    want = _mi_bits(ca, cb, b_bins).hex()
    assert stats.mi("a", "b").hex() == stats.mi("b", "a").hex() == want


def _same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _assert_pair_counted_directly(child, chans, a, b):
    """child's statistics of (a, b) equal a direct count on the subset's rows."""
    by_name = {ch.name: ch for ch in chans}
    mask = complete_row_mask(chans)
    first, second = names = tuple(sorted((a, b)))
    got = child._joint(names)
    want = JointCounts([by_name[first].codes[mask], by_name[second].codes[mask]],
                       [by_name[first].spec.bin_count,
                        by_name[second].spec.bin_count])
    assert got.n == want.n == child.n
    assert got.bins == want.bins
    _same_bits(got.keys, want.keys)
    _same_bits(got.counts, want.counts)
    ca, cb = by_name[a].codes[mask], by_name[b].codes[mask]
    mi = _mi_bits(ca, cb, by_name[b].spec.bin_count).hex()
    assert child.mi(a, b).hex() == child.mi(b, a).hex() == mi
    for name, codes in ((a, ca), (b, cb)):
        assert child.entropy(name).hex() == _bits(codes).hex()
    # p(second | first) needs no re-sort; p(first | second) does
    direct = PairStats([BinnedChannel(name, by_name[name].spec,
                                      by_name[name].codes[mask])
                        for name in names])
    for parent, kid in (names, names[::-1]):
        g = child.conditional(parent, kid)
        w = direct.conditional(parent, kid)
        assert g is child.conditional(parent, kid)
        for field in ("parent_bins", "indptr", "child_bins", "probs"):
            _same_bits(getattr(g, field), getattr(w, field))
    for g, w in [(child.marginal(name), bincount_pmf(by_name[name].codes[mask]))
                 for name in (a, b)]:
        _same_bits(g.bins, w.bins)
        _same_bits(g.p, w.p)
    # asked both ways, the pair is counted once, under its sorted names
    for stats in {child, child._parent or child}:
        assert names in stats._joints and names[::-1] not in stats._joints


def _assert_fits_on(model, stats):
    """The model's tables, root pmf and message cache are stats' own."""
    assert model.cache is stats.cache
    assert model.root_marginal is stats.marginal(model.root)
    for node, par in model.parent.items():
        assert model.conditionals[node] is stats.conditional(par, node)


@pytest.mark.parametrize("seed, rows, bin_range, holes", [
    (61, 3000, (2, 7), (0.0, 0.02, 0.1, 0.0, 0.3)),  # dense counts
    (62, 300, (2048, 2049), (0.05, 0.0, 0.2, 0.1)),  # sorted counts
    (63, 400, (2, 40), (0.0, 0.5, 0.5, 0.9, 0.0)),  # both, few clean rows
    (64, 500, (3, 9), (0.0, 0.0, 0.0)),  # every row clean
])
def test_pair_stats_with_parent_match_direct_counting(seed, rows, bin_range, holes):
    rng = np.random.default_rng(seed)
    chans = []
    for i, share in enumerate(holes):
        bins = int(rng.integers(*bin_range))
        codes = rng.integers(0, bins, size=rows)
        if i:  # tie to the first channel, so pairs carry information
            codes = np.where(rng.random(rows) < 0.5, chans[0].codes % bins, codes)
        codes[rng.random(rows) < share] = -1
        chans.append(prebinned(f"c{i}", codes, bins))
    shared = PairStats(chans)  # counts each pair in channel order when built
    # a child's pairs are first asked in channel order for odd seeds and
    # reversed for even ones; neither order may change a count or a table
    flips = (False, True) if seed % 2 else (True, False)
    leftover_subsets = 0
    for size in range(2, len(chans) + 1):
        for subset in itertools.combinations(chans, size):
            subset = list(subset)
            # a fresh child per flip, so each order is asked first once
            for flip in flips:
                child = PairStats(subset, shared)
                for x, y in itertools.combinations(subset, 2):
                    asks = [(x.name, y.name), (y.name, x.name)]
                    for a, b in asks[::-1] if flip else asks:
                        _assert_pair_counted_directly(child, subset, a, b)
            leftover_subsets += child.n > shared.n
            # a subset without leftover rows fits on the shared statistics
            if child.n == shared.n > 0:
                _assert_fits_on(build_tree(subset, shared), shared)
    assert leftover_subsets > 0 or not any(holes)


def test_pair_stats_with_parent_merge_sorted_counts_densely():
    # 20 x 20 cells: more than the 250 clean rows, so the shared counts are
    # sorted, but no more than the 250 + 300 rows of the subset {a, b}, so
    # the merge with its leftover rows counts through the dense table
    rng = np.random.default_rng(67)
    rows = 550
    a = rng.integers(0, 20, size=rows)
    b = np.where(rng.random(rows) < 0.6, (a * 3) % 20, rng.integers(0, 20, size=rows))
    c = rng.integers(0, 4, size=rows)
    c[250:] = -1
    chans = [prebinned("a", a, 20), prebinned("b", b, 20), prebinned("c", c, 4)]
    shared = PairStats(chans)
    child = PairStats(chans[:2], shared)
    assert shared.n < 20 * 20 <= child.n == rows
    for x, y in (("a", "b"), ("b", "a")):
        _assert_pair_counted_directly(child, chans[:2], x, y)


def test_pair_stats_with_parent_and_one_leftover_row():
    rng = np.random.default_rng(66)
    a, b, c = (rng.integers(0, 3, size=50) for _ in range(3))
    a[7] = -1
    chans = [prebinned("a", a, 3), prebinned("b", b, 3), prebinned("c", c, 3)]
    child = PairStats(chans[1:], PairStats(chans))
    assert child.n == 50
    _assert_pair_counted_directly(child, chans[1:], "c", "b")


def _snapshot(stats):
    """Copies of everything a PairStats has counted, each as a tuple of arrays."""
    return (
        {key: (c.keys.copy(), c.counts.copy()) for key, c in stats._joints.items()},
        {name: (m.bins.copy(), m.p.copy()) for name, m in stats._marginals.items()},
        {name: (ch.codes.copy(),) for name, ch in stats._leftover.items()},
    )


def test_pair_stats_children_never_write_into_their_parent():
    rng = np.random.default_rng(68)
    chans = []
    # pairs with c2 have more cells than rows: they merge by the sorted route
    for i, bins in enumerate((3, 5, 300, 6, 2)):
        codes = rng.integers(0, bins, size=400)
        codes[rng.random(400) < 0.08 * i] = -1
        chans.append(prebinned(f"c{i}", codes, bins))
    parent = PairStats(chans)
    for ch in chans:
        parent.marginal(ch.name)
    before, n = _snapshot(parent), parent.n
    merged = 0
    for size in range(2, len(chans) + 1):
        for subset in map(list, itertools.combinations(chans, size)):
            child = PairStats(subset, parent)
            for x, y in itertools.combinations(subset, 2):
                child.mi(x.name, y.name)
            merged += child.n > n
            for ch in subset:
                child.marginal(ch.name)
            tree_profile(build_tree(subset, parent))
    assert merged > 20
    assert parent.n == n
    for got, want in zip(_snapshot(parent), before):
        assert got.keys() == want.keys()
        for key in want:
            for g, w in zip(got[key], want[key]):
                _same_bits(g, w)


def test_build_tree_without_leftover_rows_fits_on_the_shared_stats():
    # a and b miss different rows, so every leftover row of the parent misses
    # one of them: a subset holding both has no rows of its own
    rng = np.random.default_rng(69)
    a, b, c = (rng.integers(0, 4, size=300) for _ in range(3))
    a[:30] = -1
    b[30:60] = -1
    chans = [prebinned("a", a, 4), prebinned("b", b, 4), prebinned("c", c, 4)]
    parent = PairStats(chans)
    for subset in (chans[:2], chans[1::-1], chans, chans[::-1]):
        assert PairStats(subset, parent).n == parent.n
        _assert_fits_on(build_tree(subset, parent), parent)
    # a subset over a and c takes rows 30..59 of its own: nothing is lent
    model = build_tree([chans[0], chans[2]], parent)
    assert model.cache is not parent.cache
    assert model.root_marginal is not parent.marginal("a")
    assert model.conditionals["c"] is not parent.conditional("a", "c")


def test_pair_stats_without_clean_rows():
    # a and b are never observed together, so no row is clean
    n = 200
    rng = np.random.default_rng(65)
    a, b, c = (rng.integers(0, 4, size=n) for _ in range(3))
    a[:n // 2] = -1
    b[n // 2:] = -1
    chans = [prebinned("a", a, 4), prebinned("b", b, 4), prebinned("c", c, 4)]
    shared = PairStats(chans)
    assert shared.n == 0
    for x, y in (("a", "c"), ("c", "b")):
        subset = [ch for ch in chans if ch.name in (x, y)]
        _assert_pair_counted_directly(PairStats(subset, shared), subset, x, y)
    assert PairStats(chans[:2], shared).n == 0
    for subset in (chans[:2], chans):
        with pytest.raises(DataError, match="no complete rows"):
            build_tree(subset, shared)


def test_pair_stats_of_no_channels():
    assert PairStats([]).n == 0


def test_profile_matches_expansion_on_fitted_models():
    rng = np.random.default_rng(17)
    for trial in range(5):
        rows = np.stack(
            [
                rng.integers(0, 3, size=4000),
                (rng.integers(0, 3, size=4000) + rng.integers(0, 2, size=4000)) % 3,
                rng.integers(0, 4, size=4000),
                rng.integers(0, 2, size=4000),
            ],
            axis=1,
        )
        model = build_tree(chans_from(rows, [3, 3, 4, 2]))
        want = profile_of_dict(expand_chowliu_dict(model))
        prof = tree_profile(model)
        got = (prof.h0, prof.h1, prof.h2, prof.hmin)
        for w, g in zip(want, got):
            assert g == pytest.approx(w, abs=1e-9)


def test_root_invariance_of_profile():
    rng = np.random.default_rng(19)
    rows = np.stack(
        [
            rng.integers(0, 4, size=8000),
            rng.integers(0, 3, size=8000),
            rng.integers(0, 5, size=8000),
        ],
        axis=1,
    )
    rows[:, 1] = (rows[:, 0] + rows[:, 1]) % 3
    chans = chans_from(rows, [4, 3, 5])
    base = tree_profile(build_tree(chans))
    for rot in (1, 2):
        rotated = chans[rot:] + chans[:rot]
        prof = tree_profile(build_tree(rotated))
        assert prof.h0 == pytest.approx(base.h0, abs=1e-9)
        assert prof.h1 == pytest.approx(base.h1, abs=1e-9)
        assert prof.h2 == pytest.approx(base.h2, abs=1e-9)
        assert prof.hmin == pytest.approx(base.hmin, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_fitted_profile_ordering(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    bins = [int(rng.integers(2, 6)) for _ in range(k)]
    rows = np.stack(
        [rng.integers(0, b, size=500) for b in bins], axis=1
    )
    prof = tree_profile(build_tree(chans_from(rows, bins)))
    assert prof.hmin <= prof.h2 + 1e-9
    assert prof.h2 <= prof.h1 + 1e-9
    assert prof.h1 <= prof.h0 + 1e-9


def test_tree_shannon_dominates_direct():
    rng = np.random.default_rng(23)
    n = 30_000
    a = rng.integers(0, 4, size=n)
    b = (a + rng.integers(0, 2, size=n)) % 4
    c = (a * b + rng.integers(0, 3, size=n)) % 4  # not tree-factored
    chans = chans_from(np.stack([a, b, c], axis=1), [4, 4, 4])
    direct_h1 = profile_joint(joint_direct(chans)).h1
    assert tree_shannon(build_tree(chans)) >= direct_h1 - 1e-9


def test_validate_on_tree_generated_data():
    model = random_tree_model(seed=3, nodes=3, arity=4)
    rows = sample(model, 1_000_000, seed=4)
    chans = chans_from(rows, list(model.arities))
    rep = validate(chans)
    assert rep.n == 3
    assert rep.mae <= 0.05
    assert rep.direct.h1 <= rep.chowliu.h1 + 1e-9


def test_validate_arity_bounds():
    rng = np.random.default_rng(29)
    chans = chans_from(rng.integers(0, 3, size=(100, 4)), [3, 3, 3, 3])
    with pytest.raises(DataError, match="n >= 2"):
        validate(chans[:1])
    with pytest.raises(DataError):
        validate(chans)


def test_dump_stable():
    rng = np.random.default_rng(31)
    rows = rng.integers(0, 3, size=(1000, 3))
    chans = chans_from(rows, [3, 3, 3])
    assert dump(build_tree(chans)) == dump(build_tree(chans))
    text = dump(build_tree(chans))
    assert "x0" in text and "edge" in text


@pytest.mark.parametrize("a_bins, b_bins, rows", [
    (6, 7, 3000),  # dense count
    (2048, 2048, 5000),  # sorted count
    (5, 40_000, 5000),  # int32 child codes
])
def test_flipped_conditional_matches_an_int64_sort(a_bins, b_bins, rows):
    rng = np.random.default_rng(53)
    ca = rng.integers(0, a_bins, size=rows)
    # spread over the b codes, and the low ones shared by every a code
    cb = (ca * 9973 + rng.integers(0, 8, size=rows)) % b_bins
    cb[::3] = rng.integers(0, 6, size=cb[::3].size)
    joint = JointCounts([ca, cb], [a_bins, b_bins])
    got = chowliu._conditional(joint, flip=True)
    # p(a | b) from a stable argsort of the b codes as int64
    first, second = np.divmod(joint.keys, b_bins)
    order = np.argsort(second.astype(np.int64), kind="stable")
    parents, children, counts = second[order], first[order], joint.counts[order]
    bins, starts = np.unique(parents, return_index=True)
    indptr = np.r_[starts, parents.size]
    totals = np.add.reduceat(counts, starts)
    for have, want in [(got.parent_bins, bins), (got.indptr, indptr),
                       (got.child_bins, children),
                       (got.probs, counts / np.repeat(totals, np.diff(indptr)))]:
        assert have.dtype == want.dtype
        assert have.tobytes() == want.tobytes()


def test_conditional_table_validation():
    with pytest.raises(DataError):
        ConditionalTable(
            np.array([0, 0]),
            np.array([0, 1, 2]),
            np.array([0, 0]),
            np.array([1.0, 1.0]),
        )
    with pytest.raises(DataError):
        ConditionalTable(
            np.array([0]),
            np.array([0, 2]),
            np.array([0, 1]),
            np.array([0.6, 0.6]),
        )

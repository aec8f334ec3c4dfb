"""LCA index: post-order shape, query correctness, the range minimum."""

import itertools

from tripcon import SplitMix64, build_lca_index, build_tree, is_ancestor
from tripcon.generator import GeneratorConfig, random_binary_tree
from tripcon.lca import _Rmq

from conftest import naive_lca, leafset


def test_single_leaf_tour():
    idx = build_lca_index(build_tree("A"))
    assert len(idx.tour) == 1
    assert idx.lca(0, 0) == 0


def test_fig1_tour_length():
    t = build_tree((("A", "B"), (("C", "D"), "E")))
    idx = build_lca_index(t)
    assert len(idx.tour) == 9  # m, the post-order


def test_fig1_queries(fig1):
    p, _, taxa = fig1
    idx = build_lca_index(p)
    c = p.leaf_of_taxon[taxa.id_of("C")]
    d = p.leaf_of_taxon[taxa.id_of("D")]
    a = p.leaf_of_taxon[taxa.id_of("A")]
    e = p.leaf_of_taxon[taxa.id_of("E")]
    cd = idx.lca(c, d)
    assert leafset(p, cd) == {taxa.id_of("C"), taxa.id_of("D")}
    assert idx.lca(a, e) == p.root
    for v in range(p.n_nodes):
        assert idx.lca(v, v) == v


def test_matches_parent_walk():
    rng = SplitMix64(21)
    for _ in range(8):
        n = 2 + rng.randrange(62)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        idx = build_lca_index(t)
        for u, v in itertools.combinations(range(t.n_nodes), 2):
            assert idx.lca(u, v) == naive_lca(t, u, v)


def test_methods_agree():
    t = random_binary_tree(GeneratorConfig(n=100, seed=77))
    idx = build_lca_index(t)
    rng = SplitMix64(3)
    for _ in range(2000):
        u = rng.randrange(t.n_nodes)
        v = rng.randrange(t.n_nodes)
        assert idx.lca(u, v) == naive_lca(t, u, v)


def test_lca_properties():
    t = random_binary_tree(GeneratorConfig(n=45, seed=13))
    idx = build_lca_index(t)
    rng = SplitMix64(9)
    for _ in range(500):
        u = rng.randrange(t.n_nodes)
        v = rng.randrange(t.n_nodes)
        l = idx.lca(u, v)
        assert idx.lca(v, u) == l
        assert is_ancestor(t, l, u) and is_ancestor(t, l, v)
        if not t.is_leaf(l):
            for child in t.children(l):
                assert not (is_ancestor(t, child, u) and is_ancestor(t, child, v))


def test_leaf_triple_property():
    # for leaves a,b,c two of the three pairwise LCAs coincide and equal
    # the LCA of all three
    t = random_binary_tree(GeneratorConfig(n=24, seed=31))
    idx = build_lca_index(t)
    leaves = t.leaves_post
    for a, b, c in itertools.combinations(leaves[:12], 3):
        ab, ac, bc = idx.lca(a, b), idx.lca(a, c), idx.lca(b, c)
        top = idx.lca(ab, c)
        assert [ab, ac, bc].count(top) == 2


def test_rmq_exhaustive():
    # every (i, j) over sequences of 1 to 4 blocks of 64: arbitrary ints,
    # few distinct values (many ties), and +-1 walks such as depths
    rng = SplitMix64(55)
    lengths = [1, 2, 63, 64, 65, 128, 129, 191, 192, 256]
    lengths += [1 + rng.randrange(256) for _ in range(6)]
    for n in lengths:
        walk = [0] * n
        for i in range(1, n):
            walk[i] = walk[i - 1] + (1 if rng.next_u64() & 1 else -1)
        for seq in ([rng.randrange(1 << 20) - (1 << 19) for _ in range(n)],
                    [rng.randrange(3) for _ in range(n)], walk):
            rmq = _Rmq(seq)
            for i in range(n):
                low = seq[i]
                for j in range(i, n):
                    low = min(low, seq[j])
                    p = rmq.argmin(i, j)
                    assert i <= p <= j and seq[p] == low

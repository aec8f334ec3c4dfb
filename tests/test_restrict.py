"""Induced subtrees: shape, origin map, cost, and bias invariance."""

import pytest

from tripcon import (
    EmptySubsetError,
    SplitMix64,
    UnorderedInputError,
    build_lca_index,
    build_tree,
    induced_subtree,
    is_ancestor,
    resolve_triple,
)
from tripcon.generator import GeneratorConfig, random_binary_tree
from tripcon.lca import LcaIndex
from tripcon.restrict import inorder

from conftest import tree_shape


def _inorder_position(rt, v):
    """The in-order position j of node v of an induced subtree, so that v
    contracts to ``inorder(idx, z)[j]``."""
    if rt.is_leaf(v):
        return 2 * rt.leaf_base[v]
    return 2 * (rt.leaf_base[v] + rt.leaf_count[rt.left[v]]) - 1


def _leaves_of(t, names):
    wanted = {t.taxa.id_of(x) for x in names}
    return [v for v in t.leaves_post if t.taxon[v] in wanted]


def test_fig1_right_subtree():
    t = build_tree((("A", "B"), (("C", "D"), "E")))
    idx = build_lca_index(t)
    rt = induced_subtree(t, idx, _leaves_of(t, "CDE"))
    assert tree_shape(rt, taxa=t.taxa) == (("C", "D"), "E")


def test_identity_restriction():
    t = build_tree((("A", "B"), (("C", "D"), "E")))
    idx = build_lca_index(t)
    rt = induced_subtree(t, idx, list(t.leaves_post))
    assert tree_shape(rt, taxa=t.taxa) == tree_shape(t)


def test_two_leaves_cherry():
    t = build_tree((("A", "B"), (("C", "D"), "E")))
    idx = build_lca_index(t)
    rt = induced_subtree(t, idx, _leaves_of(t, "AE"))
    assert tree_shape(rt, taxa=t.taxa) == ("A", "E")


def test_errors():
    t = build_tree((("A", "B"), "C"))
    idx = build_lca_index(t)
    with pytest.raises(EmptySubsetError):
        induced_subtree(t, idx, [])
    leaves = list(t.leaves_post)
    with pytest.raises(UnorderedInputError):
        induced_subtree(t, idx, leaves[::-1])
    with pytest.raises(UnorderedInputError):
        induced_subtree(t, idx, [t.root])


def test_node_count_and_origin_ancestry():
    rng = SplitMix64(0xBEEF)
    for _ in range(25):
        n = 3 + rng.randrange(40)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        idx = build_lca_index(t)
        kk = 1 + rng.randrange(n)
        picks = sorted(rng.randrange(n) for _ in range(kk))
        z = [t.leaves_post[i] for i in sorted(set(picks))]
        new = induced_subtree(t, idx, z)
        origin = inorder(idx, z)
        assert new.n_nodes == 2 * len(z) - 1
        assert [new.taxon[v] for v in new.leaves_post] == [t.taxon[v] for v in z]
        # ancestry agrees with origin images
        image = [origin[_inorder_position(new, v)] for v in range(new.n_nodes)]
        for u in range(new.n_nodes):
            for v in range(new.n_nodes):
                assert is_ancestor(new, u, v) == is_ancestor(
                    t, image[u], image[v]
                )


def test_internal_origins_are_consecutive_lcas():
    t = random_binary_tree(GeneratorConfig(n=20, seed=4))
    idx = build_lca_index(t)
    z = [t.leaves_post[i] for i in (0, 3, 4, 9, 15, 19)]
    rt = induced_subtree(t, idx, z)
    origin = inorder(idx, z)
    expected = {idx.lca(z[i - 1], z[i]) for i in range(1, len(z))}
    got = {origin[_inorder_position(rt, v)]
           for v in range(rt.n_nodes) if not rt.is_leaf(v)}
    assert got == expected
    # in order, leaf j is at 2j and lca(z[j - 1], z[j]) at 2j - 1
    at = {_inorder_position(rt, v): v for v in range(rt.n_nodes)}
    assert sorted(at) == list(range(rt.n_nodes))
    for j in range(len(z)):
        assert origin[2 * j] == z[j]
        assert rt.taxon[at[2 * j]] == t.taxon[z[j]]
        assert rt.leaves_post[j] == at[2 * j]
    for j in range(1, len(z)):
        assert origin[2 * j - 1] == idx.lca(z[j - 1], z[j])
        assert not rt.is_leaf(at[2 * j - 1])


class _CountingIndex(LcaIndex):
    """LcaIndex that counts queries (for the O(|Z|) cost check)."""

    def __init__(self, tree):
        super().__init__(tree)
        self.calls = 0

    def lca(self, u, v):
        self.calls += 1
        return super().lca(u, v)


def test_linear_query_cost():
    t = random_binary_tree(GeneratorConfig(n=300, seed=6))
    idx = _CountingIndex(t)
    z = [t.leaves_post[i] for i in range(0, 300, 7)]
    induced_subtree(t, idx, z)
    assert idx.calls <= 2 * len(z)


def test_bias_invariance_under_restriction():
    # the testable core of the recursion: resolutions inside Z survive
    rng = SplitMix64(0xCAFE)
    for _ in range(20):
        n = 4 + rng.randrange(30)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        idx = build_lca_index(t)
        kk = 3 + rng.randrange(max(n - 3, 1))
        ranks = sorted(set(rng.randrange(n) for _ in range(kk)))
        if len(ranks) < 3:
            continue
        z = [t.leaves_post[i] for i in ranks]
        rt = induced_subtree(t, idx, z)
        sub_idx = build_lca_index(rt)
        taxa_in = [t.taxon[v] for v in z]
        rng2 = SplitMix64(rng.next_u64())
        for _ in range(40):
            trip = sorted({taxa_in[rng2.randrange(len(taxa_in))] for _ in range(3)})
            if len(trip) < 3:
                continue
            a, b, c = trip
            assert (
                resolve_triple(t, idx, a, b, c).kind
                == resolve_triple(rt, sub_idx, a, b, c).kind
            )

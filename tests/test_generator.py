"""Generators: determinism, shapes, perturbation, exhaustive topologies."""

import hashlib
import math

import pytest

from tripcon import (
    SplitMix64,
    count_conflicts,
    enumerate_bruteforce,
    serialize_newick,
)
from tripcon.generator import (
    GeneratorConfig,
    caterpillar_tree,
    enumerate_labeled_topologies,
    generate_pair,
    perturb_leaf_swaps,
    random_binary_tree,
)

from conftest import tree_shape, unordered_shape


def test_single_leaf():
    t = random_binary_tree(GeneratorConfig(n=1, seed=0))
    assert t.n_nodes == 1


def test_node_counts():
    t = random_binary_tree(GeneratorConfig(n=5, seed=1))
    assert t.n_leaves == 5
    assert t.n_nodes == 9


def test_determinism():
    a = random_binary_tree(GeneratorConfig(n=40, seed=255))
    b = random_binary_tree(GeneratorConfig(n=40, seed=255))
    assert serialize_newick(a) == serialize_newick(b)
    c = random_binary_tree(GeneratorConfig(n=40, seed=256))
    assert serialize_newick(a) != serialize_newick(c)


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=0, seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=3, seed=1, k=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=3, seed=1, shape="star")


def test_shapes():
    cat = random_binary_tree(GeneratorConfig(n=4, seed=0, shape="caterpillar"))
    assert tree_shape(cat) == ((("t0", "t1"), "t2"), "t3")
    bal = random_binary_tree(GeneratorConfig(n=4, seed=0, shape="balanced"))
    assert tree_shape(bal) == (("t0", "t1"), ("t2", "t3"))
    rev = caterpillar_tree(4, reverse=True)
    assert tree_shape(rev) == ((("t3", "t2"), "t1"), "t0")


def test_perturb_identity():
    t = random_binary_tree(GeneratorConfig(n=20, seed=5))
    u = perturb_leaf_swaps(t, 0, 99)
    assert serialize_newick(u) == serialize_newick(t)
    assert count_conflicts(t, u) == 0


def test_perturb_cherry_swap_is_isomorphism(fig1):
    p, _, taxa = fig1
    # exchanging the two labels of the (A,B) cherry relabels the tree onto
    # itself, so no triple resolution can change
    a, b = (p.leaf_of_taxon[taxa.id_of(x)] for x in "AB")
    taxon = list(p.taxon)
    taxon[a], taxon[b] = taxon[b], taxon[a]
    from tripcon.tree import Tree

    q = Tree._from_structure(taxon, p.taxa)
    assert count_conflicts(p, q) == 0


def test_perturb_single_swap_matches_oracle(fig1):
    p, _, taxa = fig1
    a, c = (p.leaf_of_taxon[taxa.id_of(x)] for x in "AC")
    taxon = list(p.taxon)
    taxon[a], taxon[c] = taxon[c], taxon[a]
    from tripcon.tree import Tree

    q = Tree._from_structure(taxon, p.taxa)
    got = enumerate_bruteforce(p, q)
    from tripcon import enumerate_conflicts

    assert set(enumerate_conflicts(p, q, collect=True).conflicts) == got
    assert len(got) > 0


def test_perturb_changes_labels_not_topology():
    t = random_binary_tree(GeneratorConfig(n=30, seed=8))
    u = perturb_leaf_swaps(t, 5, 1234)
    assert list(t.parent) == list(u.parent)
    assert sorted(t.taxon) == sorted(u.taxon)


def test_generate_pair_deterministic():
    a1, b1 = generate_pair(GeneratorConfig(n=25, seed=7, k=3))
    a2, b2 = generate_pair(GeneratorConfig(n=25, seed=7, k=3))
    assert serialize_newick(a1) == serialize_newick(a2)
    assert serialize_newick(b1) == serialize_newick(b2)


def test_caterpillar_vs_reversed_conflict_counts():
    # oracle-verified up to n = 12, the closed form beyond
    for n in (5, 8, 12):
        p = caterpillar_tree(n)
        q = caterpillar_tree(n, reverse=True)
        assert len(enumerate_bruteforce(p, q)) == math.comb(n, 3)
    for n in (16, 20):
        assert count_conflicts(
            caterpillar_tree(n), caterpillar_tree(n, reverse=True)
        ) == math.comb(n, 3)


def test_conflicts_grow_with_k_on_average():
    # statistical, not per-instance: mean d over seeds is non-decreasing-ish
    rng = SplitMix64(31337)
    means = []
    for k in (0, 2, 8, 24):
        total = 0
        for _ in range(12):
            p, q = generate_pair(GeneratorConfig(n=24, seed=rng.next_u64(), k=k))
            total += count_conflicts(p, q)
        means.append(total / 12)
    assert means[0] == 0
    assert means[-1] > means[1] * 1.2


def test_topology_enumeration_counts():
    for n, count in ((1, 1), (2, 1), (3, 3), (4, 15), (5, 105)):
        trees = list(enumerate_labeled_topologies(n))
        assert len(trees) == count
        shapes = {unordered_shape(t) for t in trees}
        assert len(shapes) == count  # pairwise distinct as unordered trees


def _arena_digest(trees):
    h = hashlib.sha256()
    for t in trees:
        # the child lists, read from parent (a left child comes first in
        # post-order), and the taxon column as lists, so that the digests
        # do not depend on how a tree stores its shape
        left, right = [-1] * t.n_nodes, [-1] * t.n_nodes
        for v, up in enumerate(t.parent):
            if up >= 0:
                (left if left[up] < 0 else right)[up] = v
        h.update(repr((left, right, list(t.taxon), t.root)).encode())
    return h.hexdigest()


def _pinned_trees(kind, n):
    if kind == "caterpillar":
        return [caterpillar_tree(n)]
    if kind == "reversed":
        return [caterpillar_tree(n, reverse=True)]
    if kind == "balanced":
        return [random_binary_tree(GeneratorConfig(n=n, seed=0, shape="balanced"))]
    return enumerate_labeled_topologies(n)


# Digests of (left, right, taxon, root), node for node, so that seeded
# corpora stay bit-identical whenever the generators are rewritten.
@pytest.mark.parametrize("kind, n, digest", [
    ("caterpillar", 1, "66b083602729fa740f8b3e6bd7c8defb85a27e278f6a3597a7588266d183c8fb"),
    ("reversed", 1, "66b083602729fa740f8b3e6bd7c8defb85a27e278f6a3597a7588266d183c8fb"),
    ("balanced", 1, "66b083602729fa740f8b3e6bd7c8defb85a27e278f6a3597a7588266d183c8fb"),
    ("caterpillar", 2, "9394a2897d6ce7f7ad89399bbea974bb683e261783145033080b8f4e5ad41f96"),
    ("reversed", 2, "3f4739c9ea8bbe38b0b890674de131cd3ea4123c21156404c462b22d9c36c1d9"),
    ("balanced", 2, "9394a2897d6ce7f7ad89399bbea974bb683e261783145033080b8f4e5ad41f96"),
    ("caterpillar", 7, "0b463aa027f1350ee7a21ba0f9fc48c9b977c0f4798df0c3a6667ce5b2b27499"),
    ("reversed", 7, "3d12b98052c20cba477aca5ebc62c43fb2b93c0a23ea801b879833e31b01bd65"),
    ("balanced", 7, "bd2a62a9f9a08f756416a41bfb8ebc961ae6ffef5301438e3338cf586bd966b6"),
    ("caterpillar", 64, "ba6f3df6bdd41f6e12b571af7e42b6a23eff273e84119e31b2766d895e382dfc"),
    ("reversed", 64, "e0d7a6ed2fa4bd616725ca568d437bf4f769bcd3b8d35ee3a600fca5dd7ae50c"),
    ("balanced", 64, "5bea65c331cb1c4ab66256148fd900c3ac81c19792dd64182e4ed9c72980ae20"),
    ("topologies", 1, "66b083602729fa740f8b3e6bd7c8defb85a27e278f6a3597a7588266d183c8fb"),
    ("topologies", 2, "9394a2897d6ce7f7ad89399bbea974bb683e261783145033080b8f4e5ad41f96"),
    ("topologies", 3, "00adc643ba56c025379497938071ded372d34d0f4496cd98de95480e46e0fcc0"),
    ("topologies", 4, "681b57ba0c4e1fb2e0e0d29aac950050343f286c4672da4f395be7cecc881ce7"),
    ("topologies", 5, "d2c462e4e957dc057b79feaa91f58be687ac49b25f30428a985585a9b0b1e8ca"),
    ("topologies", 6, "72e004d788513b2e78971ac12e28fa22aa0cd87fa4e9154929dedd72e837525a"),
])
def test_generated_arenas_are_pinned(kind, n, digest):
    assert _arena_digest(_pinned_trees(kind, n)) == digest


def test_splitmix_reference_vector():
    # first outputs for seed 1234567 (splitmix64 reference sequence)
    rng = SplitMix64(1234567)
    got = [rng.next_u64() for _ in range(3)]
    assert got == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix_randrange_bounds():
    rng = SplitMix64(9)
    for _ in range(1000):
        assert 0 <= rng.randrange(7) < 7


def test_uniform_attachment_covers_all_topologies():
    # with the virtual root edge included, every labeled topology on 3
    # taxa appears across seeds
    seen = set()
    for seed in range(60):
        t = random_binary_tree(GeneratorConfig(n=3, seed=seed))
        seen.add(unordered_shape(t))
    assert len(seen) == 3

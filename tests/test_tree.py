"""Tree arena construction, ancestry, and subtree leaf queries."""

import itertools

import pytest

from tripcon import (
    DuplicateLabelError,
    EmptyTreeError,
    NonBinaryError,
    SplitMix64,
    TaxonSet,
    Tree,
    build_lca_index,
    build_tree,
    induced_subtree,
    is_ancestor,
    parse_newick,
    serialize_newick,
)
from tripcon.generator import (
    SHAPES,
    GeneratorConfig,
    perturb_leaf_swaps,
    random_binary_tree,
)

from conftest import naive_lca, shuffled_arena


def test_fig1_shape():
    t = build_tree((("A", "B"), (("C", "D"), "E")))
    assert t.n_leaves == 5
    assert t.n_nodes == 9
    assert t.leaf_count[t.root] == 5


def test_single_leaf():
    t = build_tree("A")
    assert t.n_nodes == 1
    assert t.root == 0
    assert t.is_leaf(t.root)


def test_star_rejected():
    with pytest.raises(NonBinaryError):
        build_tree(("A", "B", "C"))


def test_empty_rejected():
    with pytest.raises(EmptyTreeError):
        build_tree(None)
    with pytest.raises(EmptyTreeError):
        build_tree(())


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabelError):
        build_tree(("A", "A"))


def test_taxonset_duplicate():
    with pytest.raises(DuplicateLabelError):
        TaxonSet(["x", "y", "x"])


def test_taxonset_equals_itself_without_comparing_names():
    # every context of a run compares the input's TaxonSet with itself,
    # which must not cost O(n)
    class Unequal(tuple):
        def __eq__(self, other):
            raise AssertionError("names compared")

        __hash__ = tuple.__hash__

    ts = TaxonSet(["x", "y"])
    ts.names = Unequal(ts.names)
    assert ts == ts
    assert not ts != ts
    assert TaxonSet(["x", "y"]) == TaxonSet(["x", "y"])


def test_ancestry_root_and_leaf():
    t = build_tree((("A", "B"), (("C", "D"), "E")))
    c = t.leaf_of_taxon[t.taxa.id_of("C")]
    for v in range(t.n_nodes):
        assert is_ancestor(t, t.root, v)
    assert not is_ancestor(t, c, t.root)
    assert is_ancestor(t, c, c)


def test_ancestry_matches_parent_walk():
    rng = SplitMix64(11)
    for _ in range(12):
        n = 2 + rng.randrange(62)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        for u, v in itertools.product(range(t.n_nodes), repeat=2):
            expected = naive_lca(t, u, v) == u
            assert is_ancestor(t, u, v) == expected


def test_mutual_ancestry_iff_equal():
    t = random_binary_tree(GeneratorConfig(n=17, seed=5))
    for u, v in itertools.product(range(t.n_nodes), repeat=2):
        both = is_ancestor(t, u, v) and is_ancestor(t, v, u)
        assert both == (u == v)


def test_postorder_interval_length():
    t = random_binary_tree(GeneratorConfig(n=33, seed=3))
    for v in range(t.n_nodes):
        lo, hi = t.subtree_interval(v)
        assert hi - lo == 2 * t.leaf_count[v] - 1


def test_leaf_slice_contiguous():
    t = random_binary_tree(GeneratorConfig(n=29, seed=8))
    for v in range(t.n_nodes):
        base, end = t.subtree_leaf_slice(v)
        leaves = t.leaves_post[base:end]
        assert len(leaves) == t.leaf_count[v]
        for leaf in leaves:
            assert is_ancestor(t, v, leaf)


def test_leaf_counts_sum():
    t = random_binary_tree(GeneratorConfig(n=41, seed=2))
    for v in range(t.n_nodes):
        if not t.is_leaf(v):
            assert t.leaf_count[v] == (
                t.leaf_count[t.left[v]] + t.leaf_count[t.right[v]]
            )
    assert t.leaf_count[t.root] == 41



def _descendants(t, v):
    out, stack = set(), [v]
    while stack:
        x = stack.pop()
        out.add(x)
        if t.left[x] >= 0:
            stack += (t.left[x], t.right[x])
    return out


def _assert_numbered_in_post_order(t):
    m = t.n_nodes
    assert t.root == m - 1
    for v in range(m):
        if t.left[v] >= 0:
            assert t.left[v] < t.right[v] < v
            assert t.parent[t.left[v]] == t.parent[t.right[v]] == v
        lo, hi = t.subtree_interval(v)
        assert (lo, hi) == (v - 2 * t.leaf_count[v] + 1, v)
        assert set(range(lo + 1, hi + 1)) == _descendants(t, v)


def _built_by_every_builder():
    base = random_binary_tree(GeneratorConfig(n=37, seed=12))
    built = {
        "parse_newick": parse_newick(serialize_newick(base))[0],
        "build_tree": build_tree(((("a", "b"), "c"), ("d", ("e", "f")))),
        "perturb_leaf_swaps": perturb_leaf_swaps(base, 9, 3),
        "induced_subtree": induced_subtree(base, build_lca_index(base),
                                           base.leaves_post[1::2]),
        "shuffled_arena": Tree._from_structure(*shuffled_arena(base, 5),
                                               base.taxa),
    }
    for shape in SHAPES:
        built[shape] = random_binary_tree(
            GeneratorConfig(n=37, seed=12, shape=shape))
    return [pytest.param(t, id=name) for name, t in built.items()]


@pytest.mark.parametrize("t", _built_by_every_builder())
def test_node_ids_are_post_order_numbers(t):
    _assert_numbered_in_post_order(t)


def test_shuffled_arena_finalizes_to_the_same_tree():
    rng = SplitMix64(21)
    for _ in range(10):
        n = 1 + rng.randrange(40)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        u = Tree._from_structure(*shuffled_arena(t, rng.next_u64()), t.taxa)
        for field in ("root", "left", "right", "taxon", "parent",
                      "leaf_count", "leaf_base", "depth", "leaves_post",
                      "leaf_of_taxon"):
            assert getattr(u, field) == getattr(t, field), field

"""Tree arena construction, ancestry, and subtree leaf queries."""

import itertools

import pytest

from tripcon import (
    DuplicateLabelError,
    EmptyTreeError,
    NonBinaryError,
    SplitMix64,
    TaxonMismatchError,
    TaxonSet,
    Tree,
    build_lca_index,
    build_tree,
    induced_subtree,
    is_ancestor,
    parse_newick,
    serialize_newick,
)
from tripcon.generator import (GeneratorConfig, caterpillar_tree,
                               random_binary_tree)
from tripcon.tree import _DERIVED, check_same_leaf_taxa

from conftest import (TREE_SLOTS, assert_slot_format, built_by_every_builder,
                      held_slots, naive_lca)


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


def _kids_by_parent(t):
    """Each node's children in ascending id order, read from ``parent``
    alone rather than from the child rule of ``Tree.children``."""
    kids = [[] for _ in range(t.n_nodes)]
    for v, up in enumerate(t.parent):
        if up >= 0:
            kids[up].append(v)
    return kids


def test_leaf_counts_sum():
    t = random_binary_tree(GeneratorConfig(n=41, seed=2))
    kids = _kids_by_parent(t)
    for v in range(t.n_nodes):
        if not t.is_leaf(v):
            assert t.leaf_count[v] == sum(t.leaf_count[x] for x in kids[v])
    assert t.leaf_count[t.root] == 41


def _descendants(kids, v):
    out, stack = set(), [v]
    while stack:
        x = stack.pop()
        out.add(x)
        stack += kids[x]
    return out


def _assert_numbered_in_post_order(t):
    assert_slot_format(t)
    m = t.n_nodes
    assert t.root == m - 1
    kids = _kids_by_parent(t)
    for v in range(m):
        # a node has either no children or two, the rule's pair in order
        assert len(kids[v]) == (0 if t.is_leaf(v) else 2)
        if kids[v]:
            assert kids[v][0] < kids[v][1] < v
            assert tuple(kids[v]) == t.children(v)
        else:
            assert t.children(v) == (-1, -1)
        lo, hi = t.subtree_interval(v)
        assert (lo, hi) == (v - 2 * t.leaf_count[v] + 1, v)
        assert set(range(lo + 1, hi + 1)) == _descendants(kids, v)


@pytest.mark.parametrize("t", [
    pytest.param(t, id=name)
    for name, t in built_by_every_builder(37, 12).items()])
def test_node_ids_are_post_order_numbers(t):
    _assert_numbered_in_post_order(t)


def test_the_taxon_column_refinalizes_every_tree_slot_for_slot():
    # the column is a tree's one input: finalizing it again gives every
    # slot back, from every builder and at a size that the parser
    # differential does not reach
    trees = [t for n, seed in ((2, 1), (7, 2), (40, 3), (300, 4))
             for t in built_by_every_builder(n, seed).values()]
    trees.append(parse_newick(serialize_newick(caterpillar_tree(10 ** 5)))[0])
    for t in trees:
        u = Tree._from_structure(t.taxon, t.taxa,
                                 full=t.n_leaves == len(t.taxa))
        assert u.taxa is t.taxa
        for slot in TREE_SLOTS:
            assert getattr(u, slot) == getattr(t, slot), slot


def test_a_column_tree_derives_every_slot_on_its_first_read():
    t = random_binary_tree(GeneratorConfig(n=30, seed=4))
    lazy = Tree._of(t.taxon, t.taxa)
    assert (lazy.n_leaves, lazy.n_nodes, lazy.root) == (30, 59, 58)
    assert lazy.is_leaf(0) and not lazy.is_leaf(58)
    assert held_slots(lazy) == set()
    assert lazy.leaf_of_taxon == t.leaf_of_taxon
    assert held_slots(lazy) == set(_DERIVED)
    for slot in TREE_SLOTS:
        assert getattr(lazy, slot) == getattr(t, slot), slot
    with pytest.raises(AttributeError, match="no_such_slot"):
        lazy.no_such_slot
    # children come from Tree.children alone: a tree keeps no child links
    for tree, name in itertools.product((t, lazy), ("left", "right")):
        with pytest.raises(AttributeError, match=name):
            getattr(tree, name)


def test_same_leaf_taxa_compares_keys_unless_both_trees_are_full():
    p = random_binary_tree(GeneratorConfig(n=20, seed=6))
    q = random_binary_tree(GeneratorConfig(n=20, seed=7), p.taxa)
    check_same_leaf_taxa(p, q)
    # restricted trees, of as many leaves as each other or fewer than p
    index = build_lca_index(p)
    odd = induced_subtree(p, index, p.leaves_post[1::2])
    even = induced_subtree(p, index, p.leaves_post[0::2])
    check_same_leaf_taxa(odd, induced_subtree(q, build_lca_index(q), sorted(
        q.leaf_of_taxon[p.taxon[v]] for v in p.leaves_post[1::2])))
    for a, b in ((odd, p), (p, odd), (odd, even)):
        with pytest.raises(TaxonMismatchError):
            check_same_leaf_taxa(a, b)
    # full trees over two taxon sets of one size
    other = random_binary_tree(GeneratorConfig(n=20, seed=6),
                               TaxonSet(f"z{i}" for i in range(20)))
    with pytest.raises(TaxonMismatchError):
        check_same_leaf_taxa(p, other)

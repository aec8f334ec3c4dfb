"""Shared fixtures and reference helpers (naive oracles live here)."""

import pytest

from tripcon import (
    SplitMix64,
    TaxonSet,
    build_lca_index,
    build_tree,
    parse_newick,
)
from tripcon._kernels import available_backends
from tripcon.generator import GeneratorConfig, random_binary_tree

FIG1_P = "((A,B),((C,D),E));"
FIG1_Q = "((A,B),((D,E),C));"


@pytest.fixture(scope="session")
def fig1():
    """The worked example: trees P and Q with the single conflict CDE."""
    p, taxa = parse_newick(FIG1_P)
    q, _ = parse_newick(FIG1_Q, taxa)
    return p, q, taxa


@pytest.fixture(params=available_backends())
def backend(request):
    """Run a test once per available kernel backend."""
    return request.param


@pytest.fixture(scope="session")
def small_trees():
    """A deterministic pool of random trees across sizes, with indices."""
    rng = SplitMix64(0x5EED)
    trees = []
    for _ in range(30):
        n = 2 + rng.randrange(50)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        trees.append((t, build_lca_index(t)))
    return trees


def nested_chain_pair(n):
    """P = (((X,y),z),w) against Q = (((X',z),y),w), applied recursively.

    Each level adds three leaves around the pair (X, X') of the level
    below; the innermost X is one leaf, so n must be 1 mod 3.  The root
    splits agree at every level, which is the case that kept a context of
    every level alive when the larger descent child ran first.
    """
    assert n % 3 == 1
    taxa = TaxonSet(f"t{i}" for i in range(n))
    p = q = "t0"
    for i in range(1, n, 3):
        y, z, w = f"t{i}", f"t{i + 1}", f"t{i + 2}"
        p = (((p, y), z), w)
        q = (((q, z), y), w)
    return build_tree(p, taxa), build_tree(q, taxa)


def naive_lca(t, u, v):
    """Parent-pointer walk; the reference for every LCA test."""
    seen = set()
    while u >= 0:
        seen.add(u)
        u = t.parent[u]
    while v not in seen:
        v = t.parent[v]
    return v


def leafset(t, v):
    """Taxon set below v by direct traversal (reference)."""
    out = set()
    stack = [v]
    while stack:
        x = stack.pop()
        if t.left[x] < 0:
            out.add(t.taxon[x])
        else:
            stack.append(t.left[x])
            stack.append(t.right[x])
    return frozenset(out)


def tree_shape(t, v=None, taxa=None):
    """Canonical nested-tuple form (child order preserved) for comparisons."""
    taxa = taxa if taxa is not None else t.taxa
    v = t.root if v is None else v
    out = {}
    for node in t.postorder:
        if t.left[node] < 0:
            out[node] = taxa.name_of(t.taxon[node])
        else:
            out[node] = (out[t.left[node]], out[t.right[node]])
    return out[v]


def unordered_shape(t):
    """Canonical string with children sorted: order-insensitive identity."""
    out = {}
    for node in t.postorder:
        if t.left[node] < 0:
            out[node] = f"L{t.taxon[node]}"
        else:
            a, b = out[t.left[node]], out[t.right[node]]
            if b < a:
                a, b = b, a
            out[node] = f"({a},{b})"
    return out[t.root]

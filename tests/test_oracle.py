"""Triple signatures, the cubic enumerator and the O(n^2) count."""

import itertools
import math

import pytest

from tripcon import (
    SplitMix64,
    TaxonMismatchError,
    build_lca_index,
    enumerate_bruteforce,
    parse_newick,
    triple_resolutions,
    triplet_distance,
)
from tripcon.generator import (
    SHAPES,
    GeneratorConfig,
    caterpillar_tree,
    generate_pair,
    random_binary_tree,
)

from conftest import cherry


def _ids(taxa, names):
    return [taxa.id_of(x) for x in names]


def _signature(t):
    """Each ascending triple of t's taxa mapped to its bias code."""
    triples = itertools.combinations(sorted(t.leaf_of_taxon), 3)
    return dict(zip(triples, triple_resolutions(t)))


def test_fig1_resolutions(fig1):
    p, q, taxa = fig1
    sig_p, sig_q = _signature(p), _signature(q)
    cde = tuple(_ids(taxa, "CDE"))
    assert sig_p[cde] == 0  # CD|E
    assert sig_q[cde] == 2  # DE|C
    assert sig_p[tuple(_ids(taxa, "ABE"))] == 0  # AB|E


def test_is_conflict_examples(fig1):
    # the signatures of P and Q differ on CDE alone, and P's does not
    # depend on the order of any node's children
    p, q, taxa = fig1
    sig_p, sig_q = _signature(p), _signature(q)
    differ = {x for x in sig_p if sig_p[x] != sig_q[x]}
    assert differ == {tuple(_ids(taxa, "CDE"))}
    mirror, _ = parse_newick("((B,A),(E,(D,C)));", taxa)
    assert triple_resolutions(mirror) == triple_resolutions(p)


def test_bruteforce_fig1(fig1):
    p, q, taxa = fig1
    c, d, e = _ids(taxa, "CDE")
    assert enumerate_bruteforce(p, q) == {(c, d, e)}
    assert enumerate_bruteforce(p, p) == set()


def test_bruteforce_symmetry_and_permutations(fig1):
    p, q, _ = fig1
    assert enumerate_bruteforce(p, q) == enumerate_bruteforce(q, p)


def test_caterpillar_full_conflict():
    for n in (5, 8):
        p = caterpillar_tree(n)
        q = caterpillar_tree(n, reverse=True)
        got = enumerate_bruteforce(p, q)
        assert len(got) == math.comb(n, 3)
        # the bias pair is the two lowest ids in one tree, two highest in the other
        assert set(triple_resolutions(p)) == {0}
        assert set(triple_resolutions(q)) == {2}


def test_signatures_match_parent_walk():
    rng = SplitMix64(0x0ACE)
    for _ in range(6):
        n = 3 + rng.randrange(20)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        sig = triple_resolutions(t)
        taxa = sorted(t.leaf_of_taxon)
        for pos, (a, b, c) in enumerate(itertools.combinations(taxa, 3)):
            assert sig[pos] == cherry(t, a, b, c)


def test_taxon_mismatch():
    p, _ = parse_newick("((A,B),C);")
    q, _ = parse_newick("((A,B),(C,D));")
    with pytest.raises(TaxonMismatchError):
        enumerate_bruteforce(p, q)


def test_restriction_invariance_spot(fig1):
    from tripcon import induced_subtree

    p, q, taxa = fig1
    idx_p = build_lca_index(p)
    idx_q = build_lca_index(q)
    wanted = {taxa.id_of(x) for x in "CDE"}
    zp = [v for v in p.leaves_post if p.taxon[v] in wanted]
    zq = [v for v in q.leaves_post if q.taxon[v] in wanted]
    rp = induced_subtree(p, idx_p, zp)
    rq = induced_subtree(q, idx_q, zq)
    c, d, e = sorted(wanted)
    # CDE, the restricted trees' one triple, stays a conflict
    assert triple_resolutions(rp) == [cherry(p, c, d, e)] == [0]
    assert triple_resolutions(rq) == [cherry(q, c, d, e)] == [2]


def test_triplet_distance_matches_bruteforce():
    rng = SplitMix64(0x7D15)
    pairs = [(caterpillar_tree(n), caterpillar_tree(n, reverse=True))
             for n in (1, 2, 3, 9)]
    for shape in SHAPES:
        for _ in range(40):
            n = 1 + rng.randrange(30)
            pairs.append(generate_pair(GeneratorConfig(
                n=n, seed=rng.next_u64(), k=rng.randrange(n + 1), shape=shape)))
    for _ in range(20):
        # two unrelated topologies over the same taxa
        n = 3 + rng.randrange(30)
        pairs.append(tuple(random_binary_tree(GeneratorConfig(
            n=n, seed=rng.next_u64())) for _ in range(2)))
    for p, q in pairs:
        d = len(enumerate_bruteforce(p, q))
        assert triplet_distance(p, q) == triplet_distance(q, p) == d
    p, q = pairs[3]
    assert triplet_distance(p, q) == math.comb(9, 3)


def test_triplet_distance_taxon_mismatch():
    p, _ = parse_newick("((A,B),C);")
    q, _ = parse_newick("((A,B),(C,D));")
    with pytest.raises(TaxonMismatchError):
        triplet_distance(p, q)

"""Triple resolution, the conflict predicate, and the cubic enumerator."""

import itertools
import math

import pytest

from tripcon import (
    NonDistinctTaxaError,
    ResolutionKind,
    SplitMix64,
    TaxonMismatchError,
    build_lca_index,
    enumerate_bruteforce,
    is_conflict,
    parse_newick,
    resolve_triple,
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


def _ids(taxa, names):
    return [taxa.id_of(x) for x in names]


def test_fig1_resolutions(fig1):
    p, q, taxa = fig1
    idx_p = build_lca_index(p)
    idx_q = build_lca_index(q)
    c, d, e = _ids(taxa, "CDE")
    # C,D,E are ids 2,3,4 so the named pair maps directly onto the kind
    assert resolve_triple(p, idx_p, c, d, e).kind == ResolutionKind.AB_C  # CD|E
    assert resolve_triple(q, idx_q, c, d, e).kind == ResolutionKind.BC_A  # DE|C
    a, b, e = _ids(taxa, "ABE")
    assert resolve_triple(p, idx_p, a, b, e).kind == ResolutionKind.AB_C  # AB|E


def test_resolution_is_permutation_invariant(fig1):
    p, _, taxa = fig1
    idx = build_lca_index(p)
    base = resolve_triple(p, idx, *_ids(taxa, "CDE"))
    for perm in itertools.permutations(_ids(taxa, "CDE")):
        assert resolve_triple(p, idx, *perm) == base


def test_non_distinct_rejected(fig1):
    p, _, taxa = fig1
    idx = build_lca_index(p)
    a, b = _ids(taxa, "AB")
    with pytest.raises(NonDistinctTaxaError):
        resolve_triple(p, idx, a, a, b)


def test_is_conflict_examples(fig1):
    p, q, taxa = fig1
    idx_p = build_lca_index(p)
    idx_q = build_lca_index(q)
    c, d, e = _ids(taxa, "CDE")
    assert is_conflict(p, q, idx_p, idx_q, c, d, e)
    a, b, cc = _ids(taxa, "ABC")
    assert not is_conflict(p, q, idx_p, idx_q, a, b, cc)
    for trip in itertools.combinations(range(5), 3):
        assert not is_conflict(p, p, idx_p, idx_p, *trip)


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
        idx_p = build_lca_index(p)
        idx_q = build_lca_index(q)
        for a, b, c in itertools.combinations(range(n), 3):
            assert resolve_triple(p, idx_p, a, b, c).kind == ResolutionKind.AB_C
            assert resolve_triple(q, idx_q, a, b, c).kind == ResolutionKind.BC_A


def test_signatures_match_resolve_triple():
    rng = SplitMix64(0x0ACE)
    for _ in range(6):
        n = 3 + rng.randrange(20)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        idx = build_lca_index(t)
        sig = triple_resolutions(t, idx)
        taxa = sorted(t.leaf_of_taxon)
        for pos, (a, b, c) in enumerate(itertools.combinations(taxa, 3)):
            assert sig[pos] == int(resolve_triple(t, idx, a, b, c).kind)


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
    assert is_conflict(
        rp, rq, build_lca_index(rp), build_lca_index(rq), c, d, e
    ) == is_conflict(p, q, idx_p, idx_q, c, d, e)


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

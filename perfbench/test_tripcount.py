"""Checks of the benchmark's own references against the package's oracle.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench
"""

import os
import sys
from itertools import combinations

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import instances as inst  # noqa: E402
import tripcon  # noqa: E402
from tripcount import Resolver, triplet_distance  # noqa: E402


def _tripcon_tree(t, n):
    taxa = tripcon.TaxonSet(inst.label(i) for i in range(n))
    return tripcon.build_tree(inst.to_nested(t), taxa)


def _random_pairs():
    rng = inst.SplitMix64(0xBE7C)
    for _ in range(60):
        n = 3 + rng.randrange(28)
        p, q = inst.uniform_pair(n, rng.next_u64(), rng.randrange(5))
        yield n, p, q
    for n in (3, 7, 16):
        order = list(range(n))
        yield n, inst.caterpillar(order), inst.caterpillar(order[::-1])
        yield n, inst.uniform_attachment(n, n), inst.uniform_attachment(n, n + 1)


@pytest.mark.parametrize("n,p,q", list(_random_pairs()))
def test_counter_and_resolver_match_bruteforce(n, p, q):
    oracle = tripcon.enumerate_bruteforce(_tripcon_tree(p, n), _tripcon_tree(q, n))
    assert triplet_distance(p, q, n) == len(oracle)
    rp, rq = Resolver(p), Resolver(q)
    found = {t for t in combinations(range(n), 3) if rp.cherry(*t) != rq.cherry(*t)}
    assert found == oracle


def test_relabelling_keeps_the_count():
    n = 40
    p, q = inst.uniform_pair(n, 5, 3)
    rng = inst.SplitMix64(9)
    perm = inst.permutation(n, rng)
    assert sorted(perm) == list(range(n))
    p2, q2 = inst.relabel(p, perm, rng), inst.relabel(q, perm, rng)
    assert triplet_distance(p2, q2, n) == triplet_distance(p, q, n)


def test_generator_matches_the_package():
    cfg = tripcon.GeneratorConfig(n=50, seed=11, k=2)
    want = [tripcon.serialize_newick(t) + "\n" for t in tripcon.generate_pair(cfg)]
    assert [inst.to_newick(t) for t in inst.uniform_pair(50, 11, 2)] == want


def test_newick_round_trip():
    p, _ = inst.uniform_pair(25, 3, 0)
    t, _ = tripcon.parse_newick(inst.to_newick(p))
    assert tripcon.serialize_newick(t) + "\n" == inst.to_newick(p)

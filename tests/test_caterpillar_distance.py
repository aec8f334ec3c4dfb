"""Exact d at sizes no oracle reaches: two caterpillars with leaf orders
sigma and tau have d = C(n, 3) - sum over x of C(m_x, 2), m_x the number
of taxa that come before x in both orders (``caterpillar_distance``).

The trees are finalized from arenas that number the leaves first, so
these checks also renumber 10^5-deep trees in both kernels.
"""

import pytest

from tripcon import SplitMix64, count_conflicts, triplet_distance
from tripcon._kernels import available_backends
from tripcon.generator import default_taxa

from conftest import caterpillar_distance, caterpillar_from_order, permutation


def _local_swaps(n, swaps, reach, rng):
    """0..n-1 with ``swaps`` exchanges of positions at most ``reach``
    apart."""
    order = list(range(n))
    for _ in range(swaps):
        i = rng.randrange(n - reach)
        j = i + 1 + rng.randrange(reach)
        order[i], order[j] = order[j], order[i]
    return order


def test_formula_matches_the_oracle():
    rng = SplitMix64(0xCA7)
    for n in (3, 4, 5, 9, 30, 61):
        taxa = default_taxa(n)
        for tau in (permutation(n, rng), _local_swaps(n, 2, 2, rng),
                    list(range(n))[::-1]):
            sigma = permutation(n, rng)
            p = caterpillar_from_order(sigma, taxa)
            q = caterpillar_from_order(tau, taxa)
            assert caterpillar_distance(sigma, tau) == triplet_distance(p, q)


@pytest.fixture(scope="module")
def caterpillars_1e5():
    n = 100_000
    taxa = default_taxa(n)
    tau = _local_swaps(n, 5, 30, SplitMix64(0x1E5))
    sigma = list(range(n))
    return (caterpillar_from_order(sigma, taxa),
            caterpillar_from_order(tau, taxa),
            caterpillar_distance(sigma, tau))


def test_exact_d_at_n_1e5(caterpillars_1e5, backend):
    p, q, d = caterpillars_1e5
    assert p.root == p.n_nodes - 1 and p.depth[p.leaves_post[0]] == 99_999
    assert d == 11_153_362
    assert count_conflicts(p, q, backend=backend) == d


@pytest.mark.skipif("fast" not in available_backends(),
                    reason="compiled kernel not built")
def test_exact_d_past_2_32():
    # counting is O(n + d), too slow for the pure kernel here (about 20 s)
    n = 4000
    taxa = default_taxa(n)
    sigma, tau = list(range(n)), permutation(n, SplitMix64(0x4000))
    d = caterpillar_distance(sigma, tau)
    assert d == 7_208_004_944 > 2**32
    p = caterpillar_from_order(sigma, taxa)
    q = caterpillar_from_order(tau, taxa)
    assert count_conflicts(p, q, backend="fast") == d

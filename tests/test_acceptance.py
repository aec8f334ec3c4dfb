"""Acceptance suite: nine criteria, each printed as one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines as
they are produced.  Criteria 2, 3, and 7 share one corpus (exhaustive
pairs of distinct topologies for n <= 6 plus 1000 seeded random pairs
with n in [3, 40], k in [0, n]); the fixture runs every pair in both
orders and aggregates, so the three criteria assert different aspects of
the same run.
"""

import itertools
import math
import time

import pytest

from tripcon import (
    SplitMix64,
    active_backend,
    build_lca_index,
    build_leaf_equivalence,
    count_conflicts,
    enumerate_conflicts,
    enumerate_bruteforce,
    induced_subtree,
    leafsets_equal,
)
from tripcon import cli
from tripcon.generator import (
    GeneratorConfig,
    caterpillar_tree,
    enumerate_labeled_topologies,
    generate_pair,
    random_binary_tree,
)
from tripcon.oracle import triple_resolutions

from conftest import FIG1_P, FIG1_Q, cherry, leafset, naive_lca


def _verdict(num, name, ok, detail=""):
    tail = f": {detail}" if detail else ""
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {name}{tail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------- #
# Criterion 1: Figure-1 reproduction                                      #
# ---------------------------------------------------------------------- #


def test_criterion_1_figure1_reproduction(fig1_files, capsys):
    code, out, _ = _run_cli(capsys, "conflicts", *fig1_files)
    cli_ok = code == 0 and out == "C\tD\tE\n"
    code, out, _ = _run_cli(capsys, "count", *fig1_files)
    count_ok = code == 0 and out == "1\n"

    from tripcon import parse_newick

    p, taxa = parse_newick(FIG1_P)
    q, _ = parse_newick(FIG1_Q, taxa)
    best = min(_timed_enumerate(p, q) for _ in range(5))
    fast_enough = best < 1e-3
    with capsys.disabled():
        _verdict(
            1, "Figure-1 reproduction", cli_ok and count_ok and fast_enough,
            f"conflicts= C,D,E count=1 enumerate={best * 1e3:.3f} ms (< 1 ms)",
        )


def _timed_enumerate(p, q):
    t0 = time.perf_counter()
    enumerate_conflicts(p, q, collect=True)
    return time.perf_counter() - t0


@pytest.fixture
def fig1_files(tmp_path):
    a = tmp_path / "P.nwk"
    b = tmp_path / "Q.nwk"
    a.write_text(FIG1_P)
    b.write_text(FIG1_Q)
    return str(a), str(b)


def _run_cli(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------- #
# Criteria 2 + 3 + 7: the shared corpus                                   #
# ---------------------------------------------------------------------- #

RANDOM_PAIRS = 1000
CORPUS_SEED = 0x7C0FFEE


def _run_pair(p, q, oracle, agg):
    """One corpus pair: forward + swapped run, all aggregate checks."""
    fwd = enumerate_conflicts(p, q, collect=True)
    fwd_set = set(fwd.conflicts)
    agg["pairs"] += 1
    agg["violations"] += fwd.budget_violations
    if len(fwd_set) != len(fwd.conflicts):
        agg["dups"] += 1
    if fwd_set != oracle:
        agg["mismatches"] += 1
    rev = enumerate_conflicts(q, p, collect=True)
    rev_set = set(rev.conflicts)
    agg["violations"] += rev.budget_violations
    if len(rev_set) != len(rev.conflicts):
        agg["dups"] += 1
    if rev_set != fwd_set:
        agg["asymmetries"] += 1


@pytest.fixture(scope="session")
def corpus(request):
    agg = {
        "pairs": 0,
        "mismatches": 0,
        "dups": 0,
        "asymmetries": 0,
        "violations": 0,
        "exhaustive_pairs": 0,
    }
    t0 = time.perf_counter()

    # Exhaustive: every unordered pair of distinct labeled topologies,
    # n = 3..6 (counts 3, 105, 5460, 446040).
    for n in range(3, 7):
        trees = list(enumerate_labeled_topologies(n))
        sigs = [triple_resolutions(t) for t in trees]
        triples = list(itertools.combinations(range(n), 3))
        npos = len(triples)
        for i, j in itertools.combinations(range(len(trees)), 2):
            si, sj = sigs[i], sigs[j]
            oracle = {
                triples[pos]
                for pos in range(npos)
                if si[pos] != sj[pos]
            }
            _run_pair(trees[i], trees[j], oracle, agg)
        agg["exhaustive_pairs"] = agg["pairs"]

    # Seeded random pairs, n in [3, 40], k in [0, n].
    rng = SplitMix64(CORPUS_SEED)
    for _ in range(RANDOM_PAIRS):
        n = 3 + rng.randrange(38)
        k = rng.randrange(n + 1)
        p, q = generate_pair(GeneratorConfig(n=n, seed=rng.next_u64(), k=k))
        _run_pair(p, q, enumerate_bruteforce(p, q), agg)

    agg["elapsed"] = time.perf_counter() - t0
    return agg


def test_criterion_2_oracle_equivalence(corpus, capsys):
    expected = 3 + 105 + 5460 + 446040 + RANDOM_PAIRS
    ok = (
        corpus["pairs"] == expected
        and corpus["mismatches"] == 0
        and corpus["dups"] == 0
        and corpus["elapsed"] < 120.0
    )
    with capsys.disabled():
        _verdict(
            2, "Oracle equivalence",
            ok,
            f"{corpus['pairs']} pairs (both orders), "
            f"{corpus['mismatches']} mismatches, {corpus['dups']} duplicate "
            f"emissions, {corpus['elapsed']:.1f} s (< 120 s) "
            f"with the {active_backend()} kernel",
        )


def test_criterion_3_exactly_once_and_symmetry(corpus, capsys):
    ok = corpus["dups"] == 0 and corpus["asymmetries"] == 0
    with capsys.disabled():
        _verdict(
            3, "Exactly-once and symmetry", ok,
            f"{corpus['dups']} duplicates, {corpus['asymmetries']} "
            f"asymmetric pairs across {corpus['pairs']} pairs",
        )


def test_criterion_7_budget_law(corpus, capsys):
    # the library also asserts the law on every call in debug mode
    ok = __debug__ and corpus["violations"] == 0
    with capsys.disabled():
        _verdict(
            7, "Budget law (frame leaves <= d_r + 2)", ok,
            f"{corpus['violations']} violations across {2 * corpus['pairs']} "
            "enumeration runs (debug asserts active)",
        )


# ---------------------------------------------------------------------- #
# Criterion 4: full-conflict extreme                                      #
# ---------------------------------------------------------------------- #


def test_criterion_4_caterpillar_extreme(capsys):
    results = []
    ok = True
    for n in (5, 10, 20):
        p = caterpillar_tree(n)
        q = caterpillar_tree(n, reverse=True)
        d = count_conflicts(p, q)
        want = math.comb(n, 3)
        results.append(f"n={n}: d={d}")
        ok = ok and d == want
        if n <= 12:  # oracle confirmation in the feasible range
            ok = ok and len(enumerate_bruteforce(p, q)) == want
    with capsys.disabled():
        _verdict(4, "Full-conflict extreme (caterpillar pairs)", ok,
                 "; ".join(results) + " (expect 10, 120, 1140)")


# ---------------------------------------------------------------------- #
# Criterion 5: zero-conflict linearity                                    #
# ---------------------------------------------------------------------- #


def test_criterion_5_zero_conflict_linearity(capsys):
    t0 = time.perf_counter()
    ratios = {}
    ok = True
    for power in (10, 12, 14, 16):
        n = 1 << power
        t = random_binary_tree(GeneratorConfig(n=n, seed=0xC0DE + power))
        instr = enumerate_conflicts(t, t)
        ok = ok and instr.d == 0
        ratios[power] = instr.nodes_touched / n
    spread = max(ratios.values()) / min(ratios.values())
    elapsed = time.perf_counter() - t0
    ok = ok and spread <= 1.5 and elapsed < 30.0
    with capsys.disabled():
        _verdict(
            5, "Zero-conflict linearity", ok,
            "work/n = "
            + ", ".join(f"2^{p}: {r:.3f}" for p, r in ratios.items())
            + f"; spread {spread:.4f} (<= 1.5), {elapsed:.1f} s (< 30 s)",
        )


# ---------------------------------------------------------------------- #
# Criterion 6: output-sensitive linearity                                 #
# ---------------------------------------------------------------------- #


def test_criterion_6_output_sensitive_linearity(capsys):
    rng = SplitMix64(0x6EED)
    grid = {}
    for power in (10, 11, 12, 13, 14):
        n = 1 << power
        for k in (1, 4, 16, 64):
            p, q = generate_pair(
                GeneratorConfig(n=n, seed=rng.next_u64(), k=k)
            )
            instr = enumerate_conflicts(p, q)
            grid[(n, k)] = instr.nodes_touched / (n + instr.d)
    cap = max(ratio for (n, _), ratio in grid.items() if n == 1 << 10)
    worst = max(grid.values())
    ok = worst <= 2 * cap
    with capsys.disabled():
        _verdict(
            6, "Output-sensitive linearity", ok,
            f"K fitted at n=2^10: {cap:.3f}; worst ratio {worst:.3f} "
            f"<= 2K = {2 * cap:.3f} over {len(grid)} instances",
        )


# ---------------------------------------------------------------------- #
# Criterion 8: restriction invariance                                     #
# ---------------------------------------------------------------------- #


def test_criterion_8_restriction_invariance(capsys):
    rng = SplitMix64(0x8EED)
    samples = 0
    bad = 0
    while samples < 200:
        n = 4 + rng.randrange(45)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        zsize = 3 + rng.randrange(min(n - 2, 8))
        ranks = sorted(set(rng.randrange(n) for _ in range(zsize)))
        if len(ranks) < 3:
            continue
        samples += 1
        idx = build_lca_index(t)
        z = [t.leaves_post[i] for i in ranks]
        sub = induced_subtree(t, idx, z)
        taxa_in = sorted(t.taxon[v] for v in z)
        for a, b, c in itertools.combinations(taxa_in, 3):
            if cherry(t, a, b, c) != cherry(sub, a, b, c):
                bad += 1
    with capsys.disabled():
        _verdict(
            8, "Restriction invariance", bad == 0,
            f"200 (tree, subset) samples, {bad} resolution changes",
        )


# ---------------------------------------------------------------------- #
# Criterion 9: preprocessing correctness                                  #
# ---------------------------------------------------------------------- #


def test_criterion_9_preprocessing_correctness(capsys):
    rng = SplitMix64(0x9EED)
    lca_bad = 0
    for _ in range(50):
        n = 2 + rng.randrange(63)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        idx = build_lca_index(t)
        for u in range(t.n_nodes):
            for v in range(u, t.n_nodes):
                if idx.lca(u, v) != naive_lca(t, u, v):
                    lca_bad += 1

    eq_bad = 0
    for _ in range(50):
        n = 2 + rng.randrange(39)
        p, q = generate_pair(
            GeneratorConfig(n=n, seed=rng.next_u64(), k=rng.randrange(n + 1))
        )
        e = build_leaf_equivalence(p, q)
        psets = [leafset(p, u) for u in range(p.n_nodes)]
        qsets = [leafset(q, v) for v in range(q.n_nodes)]
        for u in range(p.n_nodes):
            for v in range(q.n_nodes):
                if leafsets_equal(e, u, v) != (psets[u] == qsets[v]):
                    eq_bad += 1
    with capsys.disabled():
        _verdict(
            9, "Preprocessing correctness", lca_bad == 0 and eq_bad == 0,
            f"LCA vs parent walk: {lca_bad} disagreements over 50 trees; "
            f"leafsets_equal vs brute force: {eq_bad} over 50 pairs",
        )


def test_backend_note(capsys):
    with capsys.disabled():
        print(f"[acceptance] active backend: {active_backend()}", flush=True)

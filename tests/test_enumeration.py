"""The output-sensitive enumerator against the oracle, per backend."""

import itertools
import math
import os
import subprocess
import sys

import pytest

import tripcon
from tripcon import (
    ConflictTriple,
    SplitMix64,
    TaxonMismatchError,
    build_lca_index,
    count_conflicts,
    enumerate_bruteforce,
    enumerate_conflicts,
    list_common_root_conflicts,
    list_subtree_conflicts,
    parse_newick,
    partition_leaves,
)
from tripcon._kernels import available_backends
from tripcon.generator import (
    SHAPES,
    GeneratorConfig,
    caterpillar_tree,
    generate_pair,
    random_binary_tree,
)

from conftest import leafset


def _conflict_list(p, q, backend):
    return enumerate_conflicts(p, q, collect=True, backend=backend).conflicts


def test_fig1(fig1, backend):
    p, q, taxa = fig1
    instr = enumerate_conflicts(p, q, collect=True, backend=backend)
    assert instr.conflicts == [
        ConflictTriple(*sorted(taxa.id_of(x) for x in "CDE"))
    ]
    assert instr.d == 1
    assert count_conflicts(p, q, backend=backend) == 1


def test_identical_trees_have_no_conflicts(backend):
    rng = SplitMix64(161)
    for _ in range(8):
        n = 2 + rng.randrange(200)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        instr = enumerate_conflicts(t, t, backend=backend)
        assert instr.d == 0
        assert instr.budget_violations == 0


def test_caterpillar_extreme(backend):
    for n in (5, 10, 20):
        p = caterpillar_tree(n)
        q = caterpillar_tree(n, reverse=True)
        assert count_conflicts(p, q, backend=backend) == math.comb(n, 3)


def test_matches_oracle_on_random_pairs(backend):
    rng = SplitMix64(271828)
    for _ in range(150):
        n = 3 + rng.randrange(38)
        k = rng.randrange(n + 1)
        p, q = generate_pair(GeneratorConfig(n=n, seed=rng.next_u64(), k=k))
        got = _conflict_list(p, q, backend)
        assert len(set(got)) == len(got), "duplicate emission"
        assert set(got) == enumerate_bruteforce(p, q)


def test_symmetry(backend):
    rng = SplitMix64(314159)
    for _ in range(40):
        n = 3 + rng.randrange(25)
        p, q = generate_pair(
            GeneratorConfig(n=n, seed=rng.next_u64(), k=rng.randrange(n + 1))
        )
        assert set(_conflict_list(p, q, backend)) == set(
            _conflict_list(q, p, backend)
        )


def test_sink_and_collect_agree(fig1, backend):
    p, q, _ = fig1
    seen = []
    instr = enumerate_conflicts(p, q, sink=seen.append, collect=True,
                                backend=backend)
    assert seen == instr.conflicts
    for trip in seen:
        assert trip.a < trip.b < trip.c


def test_count_mode_matches_store_mode(backend):
    rng = SplitMix64(999)
    for _ in range(30):
        n = 3 + rng.randrange(30)
        p, q = generate_pair(
            GeneratorConfig(n=n, seed=rng.next_u64(), k=rng.randrange(n + 1))
        )
        a = enumerate_conflicts(p, q, backend=backend)
        b = enumerate_conflicts(p, q, collect=True, backend=backend)
        assert a.d == b.d == len(b.conflicts)
        assert a.nodes_touched == b.nodes_touched
        assert a.per_frame_dr == b.per_frame_dr


def test_instrumentation_invariants(backend):
    rng = SplitMix64(60221023)
    for _ in range(25):
        n = 3 + rng.randrange(30)
        p, q = generate_pair(
            GeneratorConfig(n=n, seed=rng.next_u64(), k=rng.randrange(n + 1))
        )
        instr = enumerate_conflicts(p, q, backend=backend)
        assert sum(instr.per_frame_dr) == instr.triples_emitted
        assert len(instr.per_frame_dr) == instr.frames_opened
        assert instr.budget_violations == 0
        assert instr.nodes_touched > 0


def _balanced_newick(labels):
    if len(labels) == 1:
        return labels[0]
    mid = len(labels) // 2
    return f"({_balanced_newick(labels[:mid])},{_balanced_newick(labels[mid:])})"


def test_per_frame_dr_past_32_bits(backend):
    # balanced tree vs the same shape with labels t0, t2, ..., t1, t3, ...:
    # d exceeds 2^32, and so does the d_r of single frames
    names = [f"t{i}" for i in range(4096)]
    p, taxa = parse_newick(_balanced_newick(names) + ";")
    q, _ = parse_newick(_balanced_newick(names[0::2] + names[1::2]) + ";", taxa)
    instr = enumerate_conflicts(p, q, backend=backend)
    assert instr.d == 5_726_621_696
    assert sum(instr.per_frame_dr) == instr.d
    assert max(instr.per_frame_dr) >= 2**32


@pytest.mark.skipif(len(available_backends()) < 2,
                    reason="compiled kernel not built")
def test_backends_are_twins():
    # caterpillar and balanced shapes give the deepest chains of contexts
    for shape in SHAPES:
        rng = SplitMix64(0x7117)
        for _ in range(120):
            n = 3 + rng.randrange(45)
            p, q = generate_pair(GeneratorConfig(
                n=n, seed=rng.next_u64(), k=rng.randrange(n + 1), shape=shape))
            for collect in (True, False):
                a = enumerate_conflicts(p, q, collect=collect, backend="pure")
                b = enumerate_conflicts(p, q, collect=collect, backend="fast")
                assert a.conflicts == b.conflicts  # same order, not just set
                assert a.d == b.d
                assert a.frames_opened == b.frames_opened
                assert a.nodes_touched == b.nodes_touched
                assert a.per_frame_dr == b.per_frame_dr


# The child's peak RSS in kB.  VmHWM starts afresh at exec, whereas
# ru_maxrss keeps the peak of the process that forked the child.
PEAK_RSS = """
import sys
from tripcon import count_conflicts
from tripcon.generator import caterpillar_tree
n, backend = int(sys.argv[1]), sys.argv[2]
count_conflicts(caterpillar_tree(n), caterpillar_tree(n, reverse=True),
                backend=backend)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_counting_peak_memory(backend):
    # A context is freed when its last pending frame pops.  Kept for the
    # whole run, the contexts of this pair peaked at about 310 MB.
    n = 2000 if backend == "fast" else 1000
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(tripcon.__file__))))
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, str(n), backend],
                          env=env, capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 64 * 1024


def test_taxon_mismatch():
    p, _ = parse_newick("((A,B),C);")
    q, _ = parse_newick("((A,B),(C,D));")
    with pytest.raises(TaxonMismatchError):
        enumerate_conflicts(p, q)


def test_single_and_two_leaf_inputs(backend):
    t, _ = parse_newick("A;")
    assert count_conflicts(t, t, backend=backend) == 0
    p, taxa = parse_newick("(A,B);")
    q, _ = parse_newick("(B,A);", taxa)
    assert count_conflicts(p, q, backend=backend) == 0


# ---------------------------------------------------------------------- #
# The listing sub-operations                                              #
# ---------------------------------------------------------------------- #


def test_partition_leaves_fig1(fig1):
    p, q, taxa = fig1
    up = p.left[p.root]          # P's (A,B)
    vq = q.right[q.root]         # Q's ((D,E),C)
    part = partition_leaves(p, q, up, vq)
    assert [p.taxon[x] for x in part.com_p] == []
    assert sorted(p.taxon[x] for x in part.unc_p) == [taxa.id_of("A"), taxa.id_of("B")]
    assert sorted(q.taxon[x] for x in part.unc_q) == sorted(
        taxa.id_of(x) for x in "CDE"
    )
    vp = p.right[p.root]         # P's ((C,D),E)
    part2 = partition_leaves(p, q, vp, vq)
    assert sorted(p.taxon[x] for x in part2.com_p) == sorted(
        taxa.id_of(x) for x in "CDE"
    )
    assert part2.unc_p == [] and part2.unc_q == []


def test_partition_leaves_matches_set_arithmetic():
    rng = SplitMix64(0xFACE)
    for _ in range(20):
        n = 4 + rng.randrange(30)
        p, q = generate_pair(
            GeneratorConfig(n=n, seed=rng.next_u64(), k=rng.randrange(n + 1))
        )
        x_p = p.left[p.root] if rng.next_u64() & 1 else p.right[p.root]
        x_q = q.left[q.root] if rng.next_u64() & 1 else q.right[q.root]
        part = partition_leaves(p, q, x_p, x_q)
        lp, lq = leafset(p, x_p), leafset(q, x_q)
        assert {p.taxon[x] for x in part.com_p} == lp & lq
        assert {q.taxon[x] for x in part.com_q} == lp & lq
        assert {p.taxon[x] for x in part.unc_p} == lp - lq
        assert {q.taxon[x] for x in part.unc_q} == lq - lp
        # orders are the trees' post-orders, never sorted labels
        assert part.com_p == sorted(part.com_p, key=p.post.__getitem__)
        assert part.unc_q == sorted(part.unc_q, key=q.post.__getitem__)


def test_partition_symmetry_law():
    # unc(u_p, u_q) = unc(v_q, v_p) and unc(v_p, v_q) = unc(u_q, u_p)
    rng = SplitMix64(0xFEED)
    for _ in range(20):
        n = 4 + rng.randrange(30)
        p, q = generate_pair(
            GeneratorConfig(n=n, seed=rng.next_u64(), k=rng.randrange(n + 1))
        )
        up, vp = p.left[p.root], p.right[p.root]
        uq, vq = q.left[q.root], q.right[q.root]
        part_u = partition_leaves(p, q, up, uq)
        part_v = partition_leaves(p, q, vp, vq)
        assert {p.taxon[x] for x in part_u.unc_p} == {
            q.taxon[x] for x in part_v.unc_q
        }
        assert {p.taxon[x] for x in part_v.unc_p} == {
            q.taxon[x] for x in part_u.unc_q
        }


def test_list_common_root_conflicts_product():
    got = []
    n_emitted = list_common_root_conflicts(got.append, [2], [3], [0, 1])
    assert n_emitted == 2
    assert got == [ConflictTriple(0, 2, 3), ConflictTriple(1, 2, 3)]
    assert list_common_root_conflicts(got.append, [], [3], [0, 1]) == 0
    assert list_common_root_conflicts(None, [2, 5], [3], [0, 1]) == 4


def test_list_subtree_conflicts_examples(fig1):
    p, _, taxa = fig1
    idx = build_lca_index(p)
    by_name = {name: p.leaf_of_taxon[taxa.id_of(name)] for name in "ABCDE"}
    got = []
    # z = {C,E}, candidates = {D}: lca(C,E) = lca(C,D,E), so CDE comes out
    emitted, work = list_subtree_conflicts(
        got.append, p, idx, [by_name["C"], by_name["E"]], [by_name["D"]]
    )
    assert emitted == 1
    assert got == [ConflictTriple(*sorted(taxa.id_of(x) for x in "CDE"))]
    # cherry z = {A,B} forces AB|c for any c: nothing comes out
    emitted, _ = list_subtree_conflicts(
        got.append, p, idx, [by_name["A"], by_name["B"]], [by_name["C"]]
    )
    assert emitted == 0
    # degenerate z
    assert list_subtree_conflicts(got.append, p, idx, [], [by_name["C"]]) == (0, 0)
    assert list_subtree_conflicts(got.append, p, idx, [by_name["A"]], []) == (0, 0)


def test_list_subtree_conflicts_matches_predicate():
    # emits exactly the triples a,b in Z, c candidate, lca(a,b) = lca(a,b,c)
    rng = SplitMix64(0xB0B)
    for _ in range(25):
        n = 4 + rng.randrange(26)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        idx = build_lca_index(t)
        leaves = list(t.leaves_post)
        picks = sorted(set(rng.randrange(n) for _ in range(3 + rng.randrange(n))))
        z = [leaves[i] for i in picks]
        cand = [leaves[i] for i in range(n) if i not in set(picks)]
        got = []
        emitted, work = list_subtree_conflicts(got.append, t, idx, z, cand)
        assert emitted == len(got) == len(set(got))
        ztaxa = {t.taxon[v] for v in z}
        expected = set()
        for (a, b), c in itertools.product(
            itertools.combinations(sorted(ztaxa), 2),
            (t.taxon[v] for v in cand),
        ):
            la, lb, lc = (t.leaf_of_taxon[x] for x in (a, b, c))
            if idx.lca(la, lb) == idx.lca(idx.lca(la, lb), lc):
                expected.add(ConflictTriple(*sorted((a, b, c))))
        assert set(got) == expected
        # cost bound: work is O(|z| + |cand| + emissions)
        assert work <= len(z) + len(cand) + 4 * (emitted + len(z))


def test_list_subtree_conflicts_count_mode_matches():
    rng = SplitMix64(0xB0B2)
    t = random_binary_tree(GeneratorConfig(n=28, seed=123))
    idx = build_lca_index(t)
    leaves = list(t.leaves_post)
    z = [leaves[i] for i in (0, 3, 5, 9, 14, 20)]
    cand = [leaves[i] for i in (1, 2, 6, 11, 17, 25, 27)]
    got = []
    emitted, work = list_subtree_conflicts(got.append, t, idx, z, cand)
    emitted2, work2 = list_subtree_conflicts(None, t, idx, z, cand)
    assert (emitted, work) == (emitted2, work2)


def test_root_partition_soundness():
    # every conflict not touching either root lies wholly inside exactly
    # one of the four com sets of the top frame
    rng = SplitMix64(0xD1CE)
    for _ in range(15):
        n = 4 + rng.randrange(20)
        p, q = generate_pair(
            GeneratorConfig(n=n, seed=rng.next_u64(), k=rng.randrange(n + 1))
        )
        idx_p, idx_q = build_lca_index(p), build_lca_index(q)
        up, vp = p.left[p.root], p.right[p.root]
        uq, vq = q.left[q.root], q.right[q.root]
        coms = []
        for x_p in (up, vp):
            for x_q in (uq, vq):
                part = partition_leaves(p, q, x_p, x_q)
                coms.append({p.taxon[x] for x in part.com_p})
        for trip in enumerate_bruteforce(p, q):
            la, lb, lc = (p.leaf_of_taxon[x] for x in trip)
            qa, qb, qc = (q.leaf_of_taxon[x] for x in trip)
            touches_p = idx_p.lca(idx_p.lca(la, lb), lc) == p.root
            touches_q = idx_q.lca(idx_q.lca(qa, qb), qc) == q.root
            if touches_p or touches_q:
                continue
            inside = [com for com in coms if set(trip) <= com]
            assert len(inside) == 1

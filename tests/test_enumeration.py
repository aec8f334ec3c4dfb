"""The output-sensitive enumerator against the oracle, per backend."""

import itertools
import math
import os
import subprocess
import sys
from array import array

import pytest

import tripcon
from tripcon import (
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
    serialize_newick,
    triplet_distance,
)
from tripcon._kernels import available_backends
from tripcon.generator import (
    SHAPES,
    GeneratorConfig,
    caterpillar_tree,
    generate_pair,
    random_binary_tree,
)

from conftest import leafset, naive_lca, nested_chain_pair


def _conflict_list(p, q, backend):
    return enumerate_conflicts(p, q, collect=True, backend=backend).conflicts


def test_fig1(fig1, backend):
    p, q, taxa = fig1
    instr = enumerate_conflicts(p, q, collect=True, backend=backend)
    assert instr.conflicts == [tuple(sorted(taxa.id_of(x) for x in "CDE"))]
    assert instr.d == 1
    assert count_conflicts(p, q, backend=backend) == 1


def test_identical_trees_have_no_conflicts(backend):
    # Identical trees only descend, so each node opens one frame: 2n - 1,
    # the most any run opens and the size of the compiled kernel's d_r
    # block.
    rng = SplitMix64(161)
    cfgs = [GeneratorConfig(n=2 + rng.randrange(200), seed=rng.next_u64())
            for _ in range(8)]
    cfgs += [GeneratorConfig(n=300, seed=7, shape=shape) for shape in SHAPES]
    for cfg in cfgs:
        t = random_binary_tree(cfg)
        instr = enumerate_conflicts(t, t, backend=backend)
        assert instr.d == 0
        assert instr.budget_violations == 0
        assert instr.frames_opened == len(instr.per_frame_dr) == 2 * cfg.n - 1


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
        for a, b, c in got:
            assert a < b < c


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


def _kernel_ids(p, q, backend):
    """The flat taxon ids the kernel hands to its sink."""
    ids = []
    if backend == "fast":
        tripcon._kernels._fast.run_enumeration(
            p.left, p.right, p.taxon, p.root,
            q.left, q.right, q.taxon, q.root, len(p.taxa), ids.extend)
    else:
        from tripcon._kernels import pure
        pure.run_enumeration(p, q, ids.extend)
    return ids


def test_sink_and_collect_agree(fig1, backend):
    # collect builds one (a, b, c) tuple per three ids the kernel hands to
    # its sink, in the order it hands them.
    rng = SplitMix64(0x51C)
    pairs = [fig1[:2]] + [
        generate_pair(GeneratorConfig(n=3 + rng.randrange(40),
                                      seed=rng.next_u64(), k=4))
        for _ in range(20)
    ]
    for p, q in pairs:
        ids = _kernel_ids(p, q, backend)
        seen = enumerate_conflicts(p, q, collect=True,
                                   backend=backend).conflicts
        assert [x for trip in seen for x in trip] == ids
        for a, b, c in seen:
            assert a < b < c


# Ids in one chunk handed to a sink: 4,096 triples.
TRI_CHUNK = 3 * 4096


@pytest.mark.parametrize("shape", SHAPES)
def test_sink_streams_the_collected_ids(fig1, backend, shape):
    rng = SplitMix64(0x57EA)
    pairs = [fig1[:2]] + [
        generate_pair(GeneratorConfig(n=n, seed=rng.next_u64(),
                                      k=rng.randrange(n + 1), shape=shape))
        for n in [3 + rng.randrange(45) for _ in range(12)] + [150, 150]
    ]
    many = 0
    for p, q in pairs:
        want = enumerate_conflicts(p, q, collect=True, backend=backend)
        plain = enumerate_conflicts(p, q, backend=backend)
        chunks = []
        got = enumerate_conflicts(p, q, backend=backend, sink=chunks.append)
        assert got.conflicts is None
        assert [x for chunk in chunks for x in chunk] == [
            x for trip in want.conflicts for x in trip]
        # every chunk but the last is full, in both kernels
        assert all(len(chunk) == TRI_CHUNK for chunk in chunks[:-1])
        assert all(0 < len(chunk) <= TRI_CHUNK and len(chunk) % 3 == 0
                   for chunk in chunks)
        # one chunk type from both kernels, a fresh array('i') each time
        assert all(type(chunk) is array and chunk.typecode == "i"
                   for chunk in chunks)
        assert len({id(chunk) for chunk in chunks}) == len(chunks)
        for instr in (want, plain):
            assert (got.d, got.frames_opened, got.nodes_touched,
                    got.per_frame_dr) == (instr.d, instr.frames_opened,
                                          instr.nodes_touched,
                                          instr.per_frame_dr)
        many = max(many, len(chunks))
    assert many >= 3


def test_sink_exception_propagates(backend):
    p, q = caterpillar_tree(60), caterpillar_tree(60, reverse=True)
    calls = []

    def sink(ids):
        calls.append(len(ids))
        if len(calls) == 2:
            raise KeyError("stop")

    with pytest.raises(KeyError, match="stop"):
        enumerate_conflicts(p, q, backend=backend, sink=sink)
    assert calls == [TRI_CHUNK, TRI_CHUNK]
    # the failed run left nothing behind that a new run would see
    assert count_conflicts(p, q, backend=backend) == math.comb(60, 3)


def test_sink_must_be_callable(fig1, backend):
    # rejected at entry by both kernels, whether or not there is a triple
    # to hand over
    p, q, _ = fig1
    for pair in ((p, p), (p, q)):
        with pytest.raises(TypeError, match="sink must be callable"):
            enumerate_conflicts(*pair, backend=backend, sink=5)


def test_sink_with_collect_is_rejected(fig1, backend):
    p, q, _ = fig1
    with pytest.raises(ValueError):
        enumerate_conflicts(p, q, backend=backend, collect=True,
                            sink=[].extend)


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


def _assert_twins(p, q):
    for collect in (True, False):
        a = enumerate_conflicts(p, q, collect=collect, backend="pure")
        b = enumerate_conflicts(p, q, collect=collect, backend="fast")
        assert a.conflicts == b.conflicts  # same order, not just set
        assert a.d == b.d
        assert a.frames_opened == b.frames_opened
        assert a.nodes_touched == b.nodes_touched
        assert a.per_frame_dr == b.per_frame_dr
        for instr in (a, b):
            assert type(instr.per_frame_dr) is array
            assert instr.per_frame_dr.typecode == "q"


@pytest.mark.skipif(len(available_backends()) < 2,
                    reason="compiled kernel not built")
def test_backends_are_twins():
    # caterpillar and balanced shapes give the deepest chains of contexts
    for shape in SHAPES:
        rng = SplitMix64(0x7117)
        for _ in range(120):
            n = 3 + rng.randrange(45)
            _assert_twins(*generate_pair(GeneratorConfig(
                n=n, seed=rng.next_u64(), k=rng.randrange(n + 1), shape=shape)))
        # 1,199 nodes: the compiled range minimum spans 38 blocks of 32 and
        # six sparse-table levels
        _assert_twins(*generate_pair(GeneratorConfig(
            n=600, seed=rng.next_u64(), k=2, shape=shape)))


@pytest.fixture(scope="module")
def large_pairs():
    """Pairs past the cubic oracle, with their triplet distance: per
    shape, n = 2,000 with one leaf swap (d below 1.3 million, so that the
    listing check can hold every triple) and n = 1,000 with 16 swaps."""
    pairs = []
    for shape in SHAPES:
        for n, k in ((2000, 1), (1000, 16)):
            p, q = generate_pair(GeneratorConfig(n=n, seed=3, k=k, shape=shape))
            pairs.append((shape, k, p, q, triplet_distance(p, q)))
    return pairs


def test_count_matches_triplet_distance(large_pairs, backend):
    for shape, k, p, q, d in large_pairs:
        assert count_conflicts(p, q, backend=backend) == d, (shape, k)


def _cherry(t, a, b, c):
    """0, 1 or 2 for t's ab|c, ac|b or bc|a, by parent walk."""
    la, lb, lc = (t.leaf_of_taxon[x] for x in (a, b, c))
    d_ab = t.depth[naive_lca(t, la, lb)]
    d_ac = t.depth[naive_lca(t, la, lc)]
    return 0 if d_ab > d_ac else 1 if d_ac > d_ab else 2


def test_listing_is_exactly_once_past_the_oracle(large_pairs, backend):
    # with the count above, distinct triples that number d are exactly the
    # conflicts, each listed once
    for shape, k, p, q, d in large_pairs:
        if k != 1:
            continue
        n = p.n_leaves
        packed = []

        def sink(ids):
            it = iter(ids)
            packed.extend((a * n + b) * n + c for a, b, c in zip(it, it, it))

        assert enumerate_conflicts(p, q, backend=backend, sink=sink).d == d
        assert len(packed) == d, shape
        packed.sort()
        assert all(map(int.__lt__, packed, itertools.islice(packed, 1, None)))
        # a seeded sample are conflicts, resolved by parent walk rather than
        # through the LCA index the kernels use
        rng = SplitMix64(0x5A3)
        for _ in range(2000):
            x = packed[rng.randrange(d)]
            a, b, c = x // n // n, x // n % n, x % n
            assert a < b < c
            assert _cherry(p, a, b, c) != _cherry(q, a, b, c), (shape, a, b, c)


# The child's peak RSS in kB after counting the pair of Newick lines on
# stdin.  VmHWM starts afresh at exec, whereas ru_maxrss keeps the peak of
# the process that forked the child.
PEAK_RSS = """
import sys
from tripcon import count_conflicts, parse_newick
text_p, text_q = sys.stdin.read().split("\\n")
p, taxa = parse_newick(text_p)
q, _ = parse_newick(text_q, taxa)
count_conflicts(p, q, backend=sys.argv[1])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_counting_peak_memory(backend):
    # A context is freed when its last pending frame pops.  Kept for the
    # whole run, the contexts of the caterpillar pair peaked at about
    # 310 MB.  On nested chains a descent that ran its larger child first
    # kept every level's context alive: 307-315 MB at n = 2401 (fast) and
    # 85 MB at n = 601 (pure).
    fast = backend == "fast"
    n = 2000 if fast else 1000
    pairs = [(caterpillar_tree(n), caterpillar_tree(n, reverse=True)),
             nested_chain_pair(2401 if fast else 601)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(tripcon.__file__))))
    for p, q in pairs:
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, backend],
            input=serialize_newick(p) + "\n" + serialize_newick(q),
            env=env, capture_output=True, text=True, check=True)
        assert int(proc.stdout) < 64 * 1024, p.n_leaves


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
    com_p, unc_p, _, unc_q = partition_leaves(p, q, up, vq)
    assert [p.taxon[x] for x in com_p] == []
    assert sorted(p.taxon[x] for x in unc_p) == [taxa.id_of("A"), taxa.id_of("B")]
    assert sorted(q.taxon[x] for x in unc_q) == sorted(
        taxa.id_of(x) for x in "CDE"
    )
    vp = p.right[p.root]         # P's ((C,D),E)
    com_p2, unc_p2, _, unc_q2 = partition_leaves(p, q, vp, vq)
    assert sorted(p.taxon[x] for x in com_p2) == sorted(
        taxa.id_of(x) for x in "CDE"
    )
    assert unc_p2 == [] and unc_q2 == []


def test_partition_leaves_matches_set_arithmetic():
    rng = SplitMix64(0xFACE)
    for _ in range(20):
        n = 4 + rng.randrange(30)
        p, q = generate_pair(
            GeneratorConfig(n=n, seed=rng.next_u64(), k=rng.randrange(n + 1))
        )
        x_p = p.left[p.root] if rng.next_u64() & 1 else p.right[p.root]
        x_q = q.left[q.root] if rng.next_u64() & 1 else q.right[q.root]
        com_p, unc_p, com_q, unc_q = partition_leaves(p, q, x_p, x_q)
        lp, lq = leafset(p, x_p), leafset(q, x_q)
        assert {p.taxon[x] for x in com_p} == lp & lq
        assert {q.taxon[x] for x in com_q} == lp & lq
        assert {p.taxon[x] for x in unc_p} == lp - lq
        assert {q.taxon[x] for x in unc_q} == lq - lp
        # orders are the trees' post-orders (ascending ids), never sorted
        # labels
        assert com_p == sorted(com_p)
        assert unc_q == sorted(unc_q)


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
        _, unc_up, _, unc_uq = partition_leaves(p, q, up, uq)
        _, unc_vp, _, unc_vq = partition_leaves(p, q, vp, vq)
        assert {p.taxon[x] for x in unc_up} == {
            q.taxon[x] for x in unc_vq
        }
        assert {p.taxon[x] for x in unc_vp} == {
            q.taxon[x] for x in unc_uq
        }


def test_list_common_root_conflicts_product():
    got = []
    n_emitted = list_common_root_conflicts(got, [2], [3], [0, 1])
    assert n_emitted == 2
    assert got == [0, 2, 3, 1, 2, 3]
    assert list_common_root_conflicts(got, [], [3], [0, 1]) == 0
    assert list_common_root_conflicts(None, [2, 5], [3], [0, 1]) == 4


def test_list_subtree_conflicts_examples(fig1):
    p, _, taxa = fig1
    idx = build_lca_index(p)
    by_name = {name: p.leaf_of_taxon[taxa.id_of(name)] for name in "ABCDE"}
    got = []
    # z = {C,E}, candidates = {D}: lca(C,E) = lca(C,D,E), so CDE comes out
    emitted, work = list_subtree_conflicts(
        got, p, idx, [by_name["C"], by_name["E"]], [by_name["D"]]
    )
    assert emitted == 1
    assert got == sorted(taxa.id_of(x) for x in "CDE")
    # cherry z = {A,B} forces AB|c for any c: nothing comes out
    emitted, _ = list_subtree_conflicts(
        got, p, idx, [by_name["A"], by_name["B"]], [by_name["C"]]
    )
    assert emitted == 0
    # degenerate z
    assert list_subtree_conflicts(got, p, idx, [], [by_name["C"]]) == (0, 0)
    assert list_subtree_conflicts(got, p, idx, [by_name["A"]], []) == (0, 0)


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
        flat = []
        emitted, work = list_subtree_conflicts(flat, t, idx, z, cand)
        ids = iter(flat)
        got = list(zip(ids, ids, ids))
        assert 3 * emitted == len(flat)
        assert emitted == len(got) == len(set(got))
        ztaxa = {t.taxon[v] for v in z}
        expected = set()
        for (a, b), c in itertools.product(
            itertools.combinations(sorted(ztaxa), 2),
            (t.taxon[v] for v in cand),
        ):
            la, lb, lc = (t.leaf_of_taxon[x] for x in (a, b, c))
            if idx.lca(la, lb) == idx.lca(idx.lca(la, lb), lc):
                expected.add(tuple(sorted((a, b, c))))
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
    emitted, work = list_subtree_conflicts(got, t, idx, z, cand)
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
                com_p, _, _, _ = partition_leaves(p, q, x_p, x_q)
                coms.append({p.taxon[x] for x in com_p})
        for trip in enumerate_bruteforce(p, q):
            la, lb, lc = (p.leaf_of_taxon[x] for x in trip)
            qa, qb, qc = (q.leaf_of_taxon[x] for x in trip)
            touches_p = idx_p.lca(idx_p.lca(la, lb), lc) == p.root
            touches_q = idx_q.lca(idx_q.lca(qa, qb), qc) == q.root
            if touches_p or touches_q:
                continue
            inside = [com for com in coms if set(trip) <= com]
            assert len(inside) == 1

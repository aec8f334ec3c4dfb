"""Output-sensitive enumeration of all conflict triples of a tree pair.

``enumerate_conflicts`` lists every conflict of (P, Q) exactly once in
O(n + d) time, d being the number of conflicts.  Each recursion frame
holds a pair of subtrees with identical leaf sets; it pairs up the two
root children on each side, fixes a crossed pairing by swapping (the
leaf-set equality test is O(1) after preprocessing), and then either

* descends into both pairs as plain views when the paired children carry
  equal leaf sets (no conflict touches these roots), or
* partitions the leaves into common/uncommon sets per pair, lists every
  conflict touching the current roots (a Cartesian product plus four
  subtree-conflict sweeps, each O(1) per listed triple), and recurses on
  the four induced subtree pairs.

In the second case the frame's leaf count never exceeds d_r + 2, where
d_r is the number of triples it just listed, so all the linear work it
does is paid for by its own output.

Two interchangeable kernels implement the recursion: a pure-Python one
composed from the public modules (``tripcon._kernels.pure``) and a
compiled twin (``tripcon._kernels._fast``, built from the hand-written
C99 source ``_kernels/_fast.c``).  They emit identical triple sequences
and identical instrumentation; selection happens at import via the
TRIPCON_BACKEND environment variable (``auto``/``fast``/``pure``) or per
call with ``backend=``.

Work-counter contract (mirrored exactly by both kernels)
--------------------------------------------------------
``nodes_touched`` increases by:

* m per tree finalized (top-level inputs and every induced subtree);
* the Euler tour length (2m - 1) per LCA index built;
* m_P per leaf-set equivalence built;
* 1 per frame opened (covers the O(1) pairing/swap/equality work);
* 1 per leaf scanned while partitioning (exactly 2|X| per partitioning
  frame);
* |Z| per induced-subtree sweep;
* list_subtree_conflicts work: |z| for the consecutive-LCA pass,
  1 per candidate (merge + skip test), |z| + 1 per surviving candidate
  (building the one-extra-leaf restriction), 1 per upward walk step;
* 1 per emitted triple.
"""

from dataclasses import dataclass, field

from .errors import TaxonMismatchError
from .oracle import ConflictTriple
from . import _kernels


@dataclass
class LeafPartition:
    """Common/uncommon leaf split for one pair (x_p, x_q) of root children.

    Each field is a list of leaf *node ids*: ``com_p``/``unc_p`` are the
    leaves of x_p that are / are not below x_q, in P's post-order;
    ``com_q``/``unc_q`` are the leaves of x_q that are / are not below
    x_p, in Q's post-order.  com_p and com_q carry the same taxa.
    """

    com_p: list
    unc_p: list
    com_q: list
    unc_q: list


@dataclass
class Instrumentation:
    """Work counters for one enumeration run.

    ``per_frame_dr[i]`` is the number of conflicts emitted at the i-th
    frame opened (its d_r); the sum over frames equals
    ``triples_emitted``.  ``budget_violations`` counts partitioning frames
    whose leaf count exceeded d_r + 2 and is always zero for correct
    inputs.
    """

    n_taxa: int
    backend: str
    frames_opened: int = 0
    nodes_touched: int = 0
    triples_emitted: int = 0
    budget_violations: int = 0
    per_frame_dr: list = field(default_factory=list)
    conflicts: list | None = None

    @property
    def d(self):
        return self.triples_emitted


def partition_leaves(p, q, x_p, x_q):
    """Split the leaves of x_p (in P) and x_q (in Q) by co-descent.

    Runs one pass over each side's leaves in post-order; membership tests
    are O(1) post-order interval checks.  Never sorts.
    """
    com_p, unc_p, com_q, unc_q = [], [], [], []

    q_post, q_leaf = q.post, q.leaf_of_taxon
    hi = q.post[x_q]
    lo = hi - (2 * q.leaf_count[x_q] - 1)
    p_taxon = p.taxon
    base, end = p.subtree_leaf_slice(x_p)
    for leaf in p.leaves_post[base:end]:
        if lo < q_post[q_leaf[p_taxon[leaf]]] <= hi:
            com_p.append(leaf)
        else:
            unc_p.append(leaf)

    p_post, p_leaf = p.post, p.leaf_of_taxon
    hi = p.post[x_p]
    lo = hi - (2 * p.leaf_count[x_p] - 1)
    q_taxon = q.taxon
    base, end = q.subtree_leaf_slice(x_q)
    for leaf in q.leaves_post[base:end]:
        if lo < p_post[p_leaf[q_taxon[leaf]]] <= hi:
            com_q.append(leaf)
        else:
            unc_q.append(leaf)

    return LeafPartition(com_p, unc_p, com_q, unc_q)


def list_common_root_conflicts(sink, com, unc, rest):
    """Emit the full Cartesian product com x unc x rest as canonical triples.

    Arguments are taxon id sequences (pairwise disjoint).  Every such
    triple is a conflict touching the current roots.  Returns the number
    emitted (|com| * |unc| * |rest|).  With ``sink=None`` only the count
    is produced (the product needs no loop).
    """
    if not com or not unc or not rest:
        return 0
    if sink is None:
        return len(com) * len(unc) * len(rest)
    for a in com:
        for b in unc:
            for c in rest:
                x, y = (a, b) if a < b else (b, a)
                if c < x:
                    sink(ConflictTriple(c, x, y))
                elif c < y:
                    sink(ConflictTriple(x, c, y))
                else:
                    sink(ConflictTriple(x, y, c))
    return len(com) * len(unc) * len(rest)


def list_subtree_conflicts(sink, t, idx, z, candidates):
    """Emit every triple abc with a, b in Z, c a candidate, and
    lca(a, b) = lca(a, b, c), each exactly once.

    ``z`` and ``candidates`` are disjoint leaf node sequences, both in
    t's post-order.  A candidate can contribute only if it lies strictly
    below lca(Z) — checked in O(1) — and each surviving candidate repays
    the O(|Z|) restriction it triggers with at least |Z| - 1 emissions.
    With ``sink=None`` only the count is produced (each walk step
    contributes a computable product instead of a loop).

    Returns ``(emitted, work)`` where ``work`` counts the constant-time
    steps taken excluding emissions, so that
    work <= |z| + |candidates| + c * emitted.
    """
    k = len(z)
    if k < 2 or not candidates:
        return 0, 0

    tlca = idx.lca
    tdepth = t.depth
    tpost = t.post
    ttaxon = t.taxon

    # LCAs of consecutive members of Z, and lca(Z) as their shallowest.
    zlca = [0] * (k - 1)
    rz = z[0]
    rd = tdepth[rz]
    for i in range(1, k):
        l = tlca(z[i - 1], z[i])
        zlca[i - 1] = l
        if tdepth[l] < rd:
            rz, rd = l, tdepth[l]
    work = k

    hi = tpost[rz]
    lo = hi - (2 * t.leaf_count[rz] - 1)

    # Insertion position of each candidate in Z (single merge; both
    # sequences are post-ordered).
    ztax = [ttaxon[v] for v in z] if sink is not None else None
    zpost = [tpost[v] for v in z]
    emitted = 0
    pos = 0
    nn = 2 * k + 1  # nodes of the one-extra-leaf restriction
    par = [0] * nn
    lo_ = [0] * nn
    hi_ = [0] * nn
    odep = [0] * nn

    for c in candidates:
        cp = tpost[c]
        while pos < k and zpost[pos] < cp:
            pos += 1
        work += 1
        if not lo < cp <= hi:
            continue  # c attaches at or above lca(Z): provably no output

        # Build T' = T|_(Z + {c}) over the merged order; track c's leaf.
        # Merged element j is z[j] for j < pos, c at pos, z[j-1] after.
        work += k + 1
        ctax = ttaxon[c]
        kk = k + 1
        c_node = 0 if pos == 0 else -1
        par[0] = -1
        lo_[0] = 0
        hi_[0] = 1
        odep[0] = tdepth[c if pos == 0 else z[0]]
        nid = 1
        stack_ = [0]
        for j in range(1, kk):
            if j == pos:
                bnd = tlca(z[j - 1], c)
                cur_orig = c
            elif j == pos + 1:
                bnd = tlca(c, z[j - 1])
                cur_orig = z[j - 1]
            elif j < pos:
                bnd = zlca[j - 1]
                cur_orig = z[j]
            else:
                bnd = zlca[j - 2]
                cur_orig = z[j - 1]
            bd = tdepth[bnd]
            top = stack_.pop()
            while stack_ and odep[stack_[-1]] > bd:
                nxt = stack_.pop()
                par[top] = nxt
                hi_[nxt] = hi_[top]
                top = nxt
            inner = nid
            nid += 1
            odep[inner] = bd
            lo_[inner] = lo_[top]
            par[top] = inner
            stack_.append(inner)
            leaf = nid
            nid += 1
            odep[leaf] = tdepth[cur_orig]
            lo_[leaf] = j
            hi_[leaf] = j + 1
            if j == pos:
                c_node = leaf
            stack_.append(leaf)
        top = stack_.pop()
        while stack_:
            nxt = stack_.pop()
            par[top] = nxt
            hi_[nxt] = hi_[top]
            top = nxt
        par[top] = -1
        root_ = top

        # Walk from c's parent to the root, emitting (below y) x (sibling).
        y = par[c_node]
        assert y != root_, "surviving candidate must start below the root"
        while y != root_:
            work += 1
            pr = par[y]
            ylo, yhi = lo_[y], hi_[y]
            if lo_[pr] < ylo:
                slo, shi = lo_[pr], ylo
            else:
                slo, shi = yhi, hi_[pr]
            if sink is None:
                emitted += (yhi - ylo - 1) * (shi - slo)
                y = pr
                continue
            for ia in range(ylo, yhi):
                if ia == pos:
                    continue
                ta = ztax[ia] if ia < pos else ztax[ia - 1]
                for ib in range(slo, shi):
                    tb = ztax[ib] if ib < pos else ztax[ib - 1]
                    x, yy = (ta, tb) if ta < tb else (tb, ta)
                    if ctax < x:
                        sink(ConflictTriple(ctax, x, yy))
                    elif ctax < yy:
                        sink(ConflictTriple(x, ctax, yy))
                    else:
                        sink(ConflictTriple(x, yy, ctax))
                    emitted += 1
            y = pr

    return emitted, work


def active_backend():
    """Name of the kernel the package will use by default."""
    return _kernels.resolve(None)


def enumerate_conflicts(p, q, sink=None, *, backend=None, collect=False):
    """Enumerate every conflict triple of (P, Q) exactly once.

    ``sink`` (if given) is called once per conflict with a canonical
    :class:`ConflictTriple`; with ``collect=True`` the triples are also
    stored on the returned :class:`Instrumentation` as ``conflicts``.
    With neither, only the counters are produced and no triple is
    materialized, so counting stays cheap even when d is enormous.
    Ordering is deterministic for a given input but otherwise
    unspecified; only set semantics and exactly-once are contractual.

    Raises TaxonMismatchError unless both trees carry the same leaf
    taxa.  Runs in O(n + d) time.  A recursion context (a restricted
    tree pair with its LCA and equivalence data) is freed once its last
    pending frame has been processed, and pending frames have disjoint
    leaf sets.  That alone does not bound memory by O(n): a frame that
    only descends pushes two frames in its own context, and the second
    keeps the context alive while everything below the first is
    processed.  Materialized output is held in full.
    """
    if p.taxa != q.taxa or p.leaf_of_taxon.keys() != q.leaf_of_taxon.keys():
        raise TaxonMismatchError("trees do not carry the same leaf taxa")
    store = collect or sink is not None
    name = _kernels.resolve(backend)
    if name == "fast":
        kern = _kernels.fast_module()
        flat, d, frames, work, violations, per_dr = kern.run_enumeration(
            p.left, p.right, p.taxon, p.root,
            q.left, q.right, q.taxon, q.root,
            len(p.taxa), store,
        )
    else:
        from ._kernels import pure

        flat, d, frames, work, violations, per_dr = pure.run_enumeration(
            p, q, store
        )

    per_dr = list(per_dr)
    assert violations == 0, "frame budget law violated (leaf count > d_r + 2)"
    assert sum(per_dr) == d, "per-frame d_r do not sum to the triples emitted"
    assert not store or len(flat) == 3 * d
    instr = Instrumentation(
        n_taxa=p.n_leaves,
        backend=name,
        frames_opened=frames,
        nodes_touched=work,
        triples_emitted=d,
        budget_violations=violations,
        per_frame_dr=per_dr,
    )
    if store:
        ids = iter(flat)
        if name == "fast":
            # Indexing the kernel's array('i') makes a fresh int per read;
            # share one object per taxon id, as the pure kernel's list does.
            ids = map(list(range(len(p.taxa))).__getitem__, ids)
        triples = [ConflictTriple(a, b, c) for a, b, c in zip(ids, ids, ids)]
        if sink is not None:
            for tr in triples:
                sink(tr)
        if collect:
            instr.conflicts = triples
    return instr


def count_conflicts(p, q, *, backend=None):
    """Number of conflict triples of (P, Q) (the d in O(n + d))."""
    return enumerate_conflicts(p, q, backend=backend).triples_emitted

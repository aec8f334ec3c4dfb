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
C99 source ``_kernels/_fast.c``).  Without a sink both only count the
triples.  With a sink both hand it each triple as three taxon ids
a < b < c, in chunks of 4,096 triples; the two kernels hand identical
chunks and report identical instrumentation.  The compiled one runs
whenever it loaded, unless a call passes ``backend="pure"``.

Work-counter contract (mirrored exactly by both kernels)
--------------------------------------------------------
``nodes_touched`` increases by:

* m per tree finalized (top-level inputs and every induced subtree);
* m per LCA index built (its range minimum runs over the m post-order
  depths);
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

from array import array
from dataclasses import dataclass, field
from functools import partial

from .restrict import inorder, sweep
from .tree import check_same_leaf_taxa
from . import _kernels

# Ids per chunk handed to a sink: 4,096 triples, as in _fast.c.
TRI_CHUNK = 3 * 4096


@dataclass
class Instrumentation:
    """Work counters for one enumeration run.

    ``per_frame_dr``, an ``array('q')`` from either kernel, holds at
    index i the number of conflicts emitted at the i-th frame opened (its
    d_r); the sum over frames equals ``triples_emitted``.  A run opens at
    most 2n - 1 frames, one per node of either tree.  ``conflicts`` holds
    the triples of a ``collect=True`` run as ``(a, b, c)`` tuples of
    taxon ids, a < b < c.  ``budget_violations`` counts partitioning
    frames whose leaf count exceeded d_r + 2 and is always zero for
    correct inputs.
    """

    n_taxa: int
    backend: str
    frames_opened: int = 0
    nodes_touched: int = 0
    triples_emitted: int = 0
    budget_violations: int = 0
    per_frame_dr: array = field(default_factory=partial(array, "q"))
    conflicts: list | None = None

    @property
    def d(self):
        return self.triples_emitted


def _split(s, o, x, y):
    """The leaves below x in s, in s's post-order, split into those whose
    taxon lies below y in o and the rest."""
    o_leaf, s_taxon = o.leaf_of_taxon, s.taxon
    lo, hi = o.subtree_interval(y)
    com, unc = [], []
    base, end = s.subtree_leaf_slice(x)
    for leaf in s.leaves_post[base:end]:
        if lo < o_leaf[s_taxon[leaf]] <= hi:
            com.append(leaf)
        else:
            unc.append(leaf)
    return com, unc


def partition_leaves(p, q, x_p, x_q):
    """Split the leaves of x_p (in P) and x_q (in Q) by co-descent.

    Returns ``(com_p, unc_p, com_q, unc_q)``, four lists of leaf *node
    ids*: ``com_p``/``unc_p`` are the leaves of x_p that are / are not
    below x_q, in P's post-order; ``com_q``/``unc_q`` are the leaves of
    x_q that are / are not below x_p, in Q's post-order.  com_p and com_q
    carry the same taxa.  Runs one pass over each side's leaves;
    membership tests are O(1) post-order interval checks.  Never sorts.
    """
    return _split(p, q, x_p, x_q) + _split(q, p, x_q, x_p)


def list_common_root_conflicts(out, com, unc, rest, spill=None):
    """Emit the full Cartesian product com x unc x rest as canonical triples.

    Arguments are taxon id sequences (pairwise disjoint).  Every such
    triple is a conflict touching the current roots; each is appended to
    the list ``out`` as three taxon ids a < b < c.  With ``spill``,
    ``spill()`` is called after each inner loop that leaves ``out``
    holding ``TRI_CHUNK`` ids or more.  Returns the number emitted
    (|com| * |unc| * |rest|).  With ``out=None`` only the count is
    produced (the product needs no loop).
    """
    if not com or not unc or not rest:
        return 0
    if out is not None:
        for a in com:
            for b in unc:
                for c in rest:
                    x, y = (a, b) if a < b else (b, a)
                    if c < x:
                        out += (c, x, y)
                    elif c < y:
                        out += (x, c, y)
                    else:
                        out += (x, y, c)
                if len(out) >= TRI_CHUNK and spill is not None:
                    spill()
    return len(com) * len(unc) * len(rest)


def list_subtree_conflicts(out, t, idx, z, candidates, spill=None):
    """Emit every triple abc with a, b in Z, c a candidate, and
    lca(a, b) = lca(a, b, c), each exactly once, appending its taxon ids
    in ascending order to the list ``out``; ``spill`` is called as in
    :func:`list_common_root_conflicts`.

    ``z`` and ``candidates`` are disjoint leaf node sequences, both in
    t's post-order.  A candidate c can contribute only if it lies
    strictly below lca(Z), which is checked in O(1).  For each surviving
    c, the restriction T|(Z + c) is built with :func:`tripcon.restrict.sweep`
    from the in-order depths of T|Z, with c's leaf and its two new LCAs
    spliced in; then the walk from c's parent to the root pairs the Z
    leaves below each node with those below its sibling.  Every step of
    the walk emits, so the O(|Z|) restriction is repaid by at least
    |Z| - 1 emissions.  With ``out=None`` only the count is produced
    (each walk step contributes a product instead of a loop).

    Returns ``(emitted, work)`` where ``work`` counts the constant-time
    steps taken excluding emissions, so that
    work <= |z| + |candidates| + c * emitted.
    """
    k = len(z)
    if k < 2 or not candidates:
        return 0, 0

    tlca = idx.lca
    tdepth = t.depth
    ttaxon = t.taxon

    # T|Z in order, and lca(Z) as its shallowest node.
    origin = inorder(idx, z)
    zdep = list(map(tdepth.__getitem__, origin))
    rz = origin[zdep.index(min(zdep))]
    work = k

    lo, hi = t.subtree_interval(rz)

    # Insertion position of each candidate in Z (single merge; both
    # sequences are post-ordered, that is ascending).
    ztax = [ttaxon[v] for v in z] if out is not None else None
    emitted = 0
    pos = 0

    for c in candidates:
        while pos < k and z[pos] < c:
            pos += 1
        work += 1
        if not lo < c <= hi:
            continue  # c attaches at or above lca(Z): provably no output

        # T|(Z + c): c is merged leaf pos, which replaces the LCA entry
        # between z[pos - 1] and z[pos] with lca(z[pos - 1], c), c and
        # lca(c, z[pos]).
        work += k + 1
        ctax = ttaxon[c]
        mid = [tdepth[c]]
        if pos > 0:
            mid.insert(0, tdepth[tlca(z[pos - 1], c)])
        if pos < k:
            mid.append(tdepth[tlca(c, z[pos])])
        par, first, last, _ = sweep(
            zdep[:max(2 * pos - 1, 0)] + mid + zdep[2 * pos:])

        # Walk from c's parent to the root, emitting (below y) x (sibling).
        # A merged leaf range [a, b] holding c covers Z leaves z[a:b]; one
        # left of c covers z[a:b + 1], one right of c z[a - 1:b].
        y = par[2 * pos]
        pr = par[y]
        assert pr >= 0, "surviving candidate must start below the root"
        while pr >= 0:
            work += 1
            ylo, yhi = first[y], last[y]
            if first[pr] < ylo:
                slo, shi = first[pr], ylo
            else:
                slo, shi = yhi, last[pr]
            emitted += (yhi - ylo) * (shi - slo)
            if out is not None:
                sib = ztax[slo:shi]
                for ta in ztax[ylo:yhi]:
                    for tb in sib:
                        x, yy = (ta, tb) if ta < tb else (tb, ta)
                        if ctax < x:
                            out += (ctax, x, yy)
                        elif ctax < yy:
                            out += (x, ctax, yy)
                        else:
                            out += (x, yy, ctax)
                    if len(out) >= TRI_CHUNK and spill is not None:
                        spill()
            y, pr = pr, par[pr]

    return emitted, work


def active_backend():
    """Name of the kernel the package will use by default."""
    return _kernels.resolve(None)


def enumerate_conflicts(p, q, *, backend=None, collect=False, sink=None):
    """Enumerate every conflict triple of (P, Q) exactly once.

    ``backend`` picks the kernel: None runs the compiled one when it
    loaded and the pure one otherwise, ``"pure"`` the pure one, and
    ``"fast"`` the compiled one or raises ImportError with the reason it
    did not load; any other name raises ValueError.

    With ``sink``, the triples stream out while the run goes on:
    ``sink`` is called with chunks of flat taxon ids, three per triple
    and each triple a < b < c, and ``conflicts`` stays ``None``.  Each
    chunk is a fresh ``array('i')`` of at most 4,096 triples, with the
    same ids from either kernel.  An exception raised by ``sink`` ends
    the run and propagates.  With ``collect=True`` the chunks go to one
    ``array('i')`` instead, and the triples are stored on the returned
    :class:`Instrumentation` as ``conflicts``, a list of plain
    ``(a, b, c)`` tuples, a < b < c, in chunk order.  Passing both
    raises ValueError.  With neither, only the counters are produced and
    no triple is materialized, so counting stays cheap even when d is
    enormous.  Ordering is deterministic for a given input but otherwise
    unspecified; only set semantics and exactly-once are contractual.
    Either kernel returns ``per_frame_dr`` as one ``array('q')`` (the
    compiled one builds it once, after its last frame), and it is stored
    as it is.

    Raises TaxonMismatchError unless both trees carry the same leaf
    taxa.  Runs in O(n + d) time, and counting needs O(n) memory.  A
    recursion context (a restricted tree pair with its LCA and
    equivalence data) is freed once its last pending frame has been
    processed, and pending frames have disjoint leaf sets.  A frame that
    only descends pushes both child pairs in its own context, the one
    with more leaves first, so the smaller pair runs while the larger
    one waits and keeps the context alive.  Every context built below the
    smaller pair has at most half the leaves of the waiting one, so the
    contexts held open by waiting descents at least halve in size along
    the current path, and pending partition children hold contexts no
    larger than their own disjoint leaf sets.  Streaming to a sink adds
    one chunk, O(n + chunk) in all, with either kernel; collected output
    adds the d triples, held in full.  Either kernel raises OverflowError,
    with one message, when d or ``nodes_touched`` would pass 2^63 - 1.
    """
    if collect and sink is not None:
        raise ValueError("pass sink or collect=True, not both")
    if sink is not None and not callable(sink):
        raise TypeError("sink must be callable or None")
    check_same_leaf_taxa(p, q)
    name = _kernels.resolve(backend)
    if collect:
        flat = array("i")
        sink = flat.extend
    if name == "fast":
        # each tree is its post-order taxon column; the kernel derives and
        # checks the rest, as Tree._from_structure does, and checks that
        # the d_r sum to d
        d, frames, work, violations, per_dr = _kernels._fast.run_enumeration(
            p.taxon, q.taxon, len(p.taxa), sink)
    else:
        from ._kernels import pure

        d, frames, work, violations, per_dr = pure.run_enumeration(p, q, sink)
        assert sum(per_dr) == d, \
            "per-frame d_r do not sum to the triples emitted"

    assert violations == 0, "frame budget law violated (leaf count > d_r + 2)"
    assert not collect or len(flat) == 3 * d
    instr = Instrumentation(
        n_taxa=p.n_leaves,
        backend=name,
        frames_opened=frames,
        nodes_touched=work,
        triples_emitted=d,
        budget_violations=violations,
        per_frame_dr=per_dr,
    )
    if collect:
        # Reading an array('i') makes a fresh int per read; share one
        # object per taxon id instead.
        ids = map(list(range(len(p.taxa))).__getitem__, flat)
        instr.conflicts = list(zip(ids, ids, ids))
    return instr


def count_conflicts(p, q, *, backend=None):
    """Number of conflict triples of (P, Q) (the d in O(n + d))."""
    return enumerate_conflicts(p, q, backend=backend).triples_emitted

"""Pure-Python enumeration kernel.

This is the reference twin of the compiled kernel: it drives the frame
recursion with an explicit stack of ``(ctx, rp, rq)`` frames, where
``ctx = (P, Q, ip, iq, e)`` and ``e`` is the pair's leaf equivalence,
and composes the public modules (LCA index, induced subtree, leaf
equivalence, and the partition and listing operations in
``tripcon.enumeration``).  Every restriction, of a child
pair's leaves or of Z plus one candidate inside ListSubtreeConflicts,
goes through the one stack sweep ``tripcon.restrict.sweep``.  Only
frames hold a context, so it is freed once its last pending frame has
been processed.  The compiled kernel
must reproduce its output sequence and its counters exactly; the
emission order per partitioning frame is pinned as

    pair u: common-root, LSC(P, com, unc), LSC(P, unc, com),
            LSC(Q, com, unc), LSC(Q, unc, com)
    pair v: same five steps
    children pushed so that processing order is com(u)-pair, com(v)-pair,
    unc(u_p,u_q)-pair, unc(v_p,v_q)-pair.

A frame that only descends pushes its two child pairs so that the pair
with fewer leaves runs first (the u pair on a tie).  The larger pair
waits, and keeps the context alive, only while strictly smaller contexts
are built below the smaller one; that is what bounds counting memory by
O(n).  Without a sink, triples are only counted.  With a sink, they are
appended to one flat list as taxon ids a < b < c; the listing functions
hand every whole ``TRI_CHUNK`` of it to the sink after each inner loop,
and the rest at the end, each as a fresh ``array('i')``, so the sink sees
the compiled kernel's chunks.  An inner loop adds at most 3n ids, so
streaming needs O(n + chunk) memory.

See the work-counter contract in ``tripcon.enumeration``.
"""

from array import array


def run_enumeration(p, q, sink=None):
    """Enumerate conflicts of (p, q); both are ``tripcon.tree.Tree``.

    Without ``sink``, triples are only counted, never materialized.  With
    ``sink``, their ids go to ``sink`` in fresh ``array('i')`` chunks of
    at most ``TRI_CHUNK`` ids (see the module docstring); an exception from
    ``sink`` propagates.
    Returns ``(emitted, frames_opened, nodes_touched, budget_violations,
    per_frame_dr)``, per_frame_dr an ``array('q')``.
    """
    from ..enumeration import (
        TRI_CHUNK,
        list_common_root_conflicts,
        list_subtree_conflicts,
        partition_leaves,
    )
    from ..equivalence import build_leaf_equivalence, leafsets_equal
    from ..lca import build_lca_index
    from ..restrict import induced_subtree

    out = None if sink is None else []
    sent = 0  # ids handed to the sink

    def spill():
        """Hand the whole chunks at the front of ``out`` to the sink."""
        nonlocal sent
        full = len(out) - len(out) % TRI_CHUNK
        for k in range(0, full, TRI_CHUNK):
            sink(array("i", out[k:k + TRI_CHUNK]))
        del out[:full]
        sent += full

    emitted = 0
    per_dr = array("q")
    frames = 0
    work = 0
    violations = 0

    idx_p = build_lca_index(p)
    idx_q = build_lca_index(q)
    equiv = build_leaf_equivalence(p, q, idx_q)
    work += p.n_nodes + q.n_nodes            # finalize inputs
    work += len(idx_p.tour) + len(idx_q.tour)
    work += p.n_nodes                        # equivalence pass

    stack = [((p, q, idx_p, idx_q, equiv), p.root, q.root)]
    while stack:
        ctx, rp, rq = stack.pop()
        P, Q, ip, iq, e = ctx
        frames += 1
        work += 1
        plc = P.leaf_count
        if plc[rp] <= 1:
            per_dr.append(0)
            continue

        up, vp = P.left[rp], P.right[rp]
        uq, vq = Q.left[rq], Q.right[rq]
        if leafsets_equal(e, up, vq):
            uq, vq = vq, uq
        if leafsets_equal(e, up, uq):
            per_dr.append(0)
            # the larger pair waits, so the smaller one runs first
            if plc[up] > plc[vp]:
                stack.append((ctx, up, uq))
                stack.append((ctx, vp, vq))
            else:
                stack.append((ctx, vp, vq))
                stack.append((ctx, up, uq))
            continue

        com_up, unc_up, com_uq, unc_uq = partition_leaves(P, Q, up, uq)
        com_vp, unc_vp, com_vq, unc_vq = partition_leaves(P, Q, vp, vq)
        work += 2 * plc[rp]

        ptex = P.taxon
        d_r = 0
        for com_p, unc_p, com_q, unc_q, other_p in (
            (com_up, unc_up, com_uq, unc_uq, vp),
            (com_vp, unc_vp, com_vq, unc_vq, up),
        ):
            com_taxa = [ptex[x] for x in com_p]
            unc_taxa = [ptex[x] for x in unc_p]
            base, end = P.subtree_leaf_slice(other_p)
            rest_taxa = [ptex[x] for x in P.leaves_post[base:end]]
            d_r += list_common_root_conflicts(out, com_taxa, unc_taxa,
                                              rest_taxa, spill)
            for t, it, zz, cc in ((P, ip, com_p, unc_p), (P, ip, unc_p, com_p),
                                  (Q, iq, com_q, unc_q), (Q, iq, unc_q, com_q)):
                em, w = list_subtree_conflicts(out, t, it, zz, cc, spill)
                d_r += em
                work += w
        assert out is None or 3 * (emitted + d_r) == sent + len(out)
        emitted += d_r
        work += d_r
        per_dr.append(d_r)
        if plc[rp] > d_r + 2:
            violations += 1

        # Child pairs: (P|com, Q|com) per pair, then the two crossed
        # uncommon pairs (unc(u_p,u_q) equals unc(v_q,v_p) as a taxon set,
        # and symmetrically); pushed last first, so they run in this order.
        for zp, zq in reversed((
            (com_up, com_uq),
            (com_vp, com_vq),
            (unc_up, unc_vq),
            (unc_vp, unc_uq),
        )):
            nz = len(zp)
            if nz < 3:
                continue
            assert nz == len(zq)
            rp_new = induced_subtree(P, ip, zp)
            rq_new = induced_subtree(Q, iq, zq)
            assert rp_new.leaf_of_taxon.keys() == rq_new.leaf_of_taxon.keys()
            ip_new = build_lca_index(rp_new)
            iq_new = build_lca_index(rq_new)
            e_new = build_leaf_equivalence(rp_new, rq_new, iq_new)
            work += 2 * nz                                   # sweeps
            work += rp_new.n_nodes + rq_new.n_nodes          # finalize
            work += len(ip_new.tour) + len(iq_new.tour)      # LCA builds
            work += rp_new.n_nodes                           # equivalence
            stack.append(((rp_new, rq_new, ip_new, iq_new, e_new),
                          rp_new.root, rq_new.root))

    if out:
        sink(array("i", out))
    return emitted, frames, work, violations, per_dr

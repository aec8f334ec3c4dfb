"""Pure-Python enumeration kernel.

This is the reference twin of the compiled kernel: it drives the frame
recursion with an explicit stack of ``(ctx, rp, rq)`` frames, where
``ctx = (P, Q, ip, iq, m)``, and composes the public modules (LCA index,
induced subtree, leaf equivalence, and the listing operations in
``tripcon.enumeration``).  Only frames hold a context, so it is freed
once its last pending frame has been processed.  The compiled kernel
must reproduce its output sequence and its counters exactly; the
emission order per partitioning frame is pinned as

    pair u: common-root, LSC(P, com, unc), LSC(P, unc, com),
            LSC(Q, com, unc), LSC(Q, unc, com)
    pair v: same five steps
    children pushed so that processing order is com(u)-pair, com(v)-pair,
    unc(u_p,u_q)-pair, unc(v_p,v_q)-pair.

See the work-counter contract in ``tripcon.enumeration``.
"""


def run_enumeration(p, q, store=True):
    """Enumerate conflicts of (p, q); both are ``tripcon.tree.Tree``.

    With ``store`` false, triples are only counted, never materialized.
    Returns ``(flat_triples, emitted, frames_opened, nodes_touched,
    budget_violations, per_frame_dr)``.
    """
    from ..enumeration import (
        list_common_root_conflicts,
        list_subtree_conflicts,
        partition_leaves,
    )
    from ..equivalence import build_leaf_equivalence
    from ..lca import build_lca_index
    from ..restrict import induced_subtree

    out = []
    sink = out.extend if store else None  # ConflictTriple is a tuple
    emitted = 0
    per_dr = []
    frames = 0
    work = 0
    violations = 0

    idx_p = build_lca_index(p)
    idx_q = build_lca_index(q)
    equiv = build_leaf_equivalence(p, q, idx_q)
    work += p.n_nodes + q.n_nodes            # finalize inputs
    work += len(idx_p.tour) + len(idx_q.tour)
    work += p.n_nodes                        # equivalence pass

    stack = [((p, q, idx_p, idx_q, equiv.m), p.root, q.root)]
    while stack:
        ctx, rp, rq = stack.pop()
        P, Q, ip, iq, m = ctx
        frames += 1
        work += 1
        if P.leaf_count[rp] <= 1:
            per_dr.append(0)
            continue

        up, vp = P.left[rp], P.right[rp]
        uq, vq = Q.left[rq], Q.right[rq]
        plc, qlc = P.leaf_count, Q.leaf_count
        if m[up] == vq and plc[up] == qlc[vq]:
            uq, vq = vq, uq
        if m[up] == uq and plc[up] == qlc[uq]:
            per_dr.append(0)
            stack.append((ctx, vp, vq))
            stack.append((ctx, up, uq))
            continue

        part_u = partition_leaves(P, Q, up, uq)
        part_v = partition_leaves(P, Q, vp, vq)
        work += 2 * plc[rp]

        ptex = P.taxon
        d_r = 0
        for part, other_p in ((part_u, vp), (part_v, up)):
            com_taxa = [ptex[x] for x in part.com_p]
            unc_taxa = [ptex[x] for x in part.unc_p]
            base, end = P.subtree_leaf_slice(other_p)
            rest_taxa = [ptex[x] for x in P.leaves_post[base:end]]
            d_r += list_common_root_conflicts(sink, com_taxa, unc_taxa, rest_taxa)
            for zz, cc in (
                (part.com_p, part.unc_p),
                (part.unc_p, part.com_p),
            ):
                em, w = list_subtree_conflicts(sink, P, ip, zz, cc)
                d_r += em
                work += w
            for zz, cc in (
                (part.com_q, part.unc_q),
                (part.unc_q, part.com_q),
            ):
                em, w = list_subtree_conflicts(sink, Q, iq, zz, cc)
                d_r += em
                work += w
        assert not store or 3 * (emitted + d_r) == len(out)
        emitted += d_r
        work += d_r
        per_dr.append(d_r)
        if plc[rp] > d_r + 2:
            violations += 1

        # Child pairs: (P|com, Q|com) per pair, then the two crossed
        # uncommon pairs (unc(u_p,u_q) equals unc(v_q,v_p) as a taxon set,
        # and symmetrically); pushed last first, so they run in this order.
        for zp, zq in reversed((
            (part_u.com_p, part_u.com_q),
            (part_v.com_p, part_v.com_q),
            (part_u.unc_p, part_v.unc_q),
            (part_v.unc_p, part_u.unc_q),
        )):
            nz = len(zp)
            if nz < 3:
                continue
            assert nz == len(zq)
            rp_new = induced_subtree(P, ip, zp).tree
            rq_new = induced_subtree(Q, iq, zq).tree
            assert rp_new.leaf_of_taxon.keys() == rq_new.leaf_of_taxon.keys()
            ip_new = build_lca_index(rp_new)
            iq_new = build_lca_index(rq_new)
            m_new = build_leaf_equivalence(rp_new, rq_new, iq_new).m
            work += 2 * nz                                   # sweeps
            work += rp_new.n_nodes + rq_new.n_nodes          # finalize
            work += len(ip_new.tour) + len(iq_new.tour)      # LCA builds
            work += rp_new.n_nodes                           # equivalence
            stack.append(((rp_new, rq_new, ip_new, iq_new, m_new),
                          rp_new.root, rq_new.root))

    return out, emitted, frames, work, violations, per_dr

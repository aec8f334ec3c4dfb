"""Independent answers for the benchmark's correctness gate.

``triplet_distance`` counts the conflict triples of two trees in O(n^2)
with the triplet-distance identity of Critchlow, Pearl & Qian (Syst.
Biol. 45(3), 1996) and Bansal, Dong & Fernandez-Baca (TCS 412, 2011):
a triple ab|c is resolved alike in P and Q exactly when u = lca_P(a, b)
and v = lca_Q(a, b) split {a, b} and c lies outside both, so

    d = C(n,3) - sum over internal u in P, v in Q of
        [I(ul,vl) I(ur,vr) + I(ul,vr) I(ur,vl)] * (n - |u| - |v| + I(u,v))

where I(x, y) is the size of the intersection of the leaf sets below x
and y.  ``Resolver`` answers which pair of a triple a tree groups
together by walking parent pointers.  Neither uses the package under
test; both take :class:`instances.Arena` trees over taxon ids 0..n-1.
"""

import numpy as np

from instances import parents, postorder


def _leaf_counts(t, order):
    size = [0] * len(t.left)
    for v in order:
        lc = t.left[v]
        size[v] = 1 if lc < 0 else size[lc] + size[t.right[v]]
    return size


def triplet_distance(p, q, n):
    """Number of triples of taxa that P and Q resolve differently."""
    p_order = postorder(p)
    p_size = _leaf_counts(p, p_order)
    q_size = np.array(_leaf_counts(q, postorder(q)), dtype=np.int64)
    q_parent = parents(q)
    q_leaf = {tx: v for v, tx in enumerate(q.taxon) if tx >= 0}
    q_int = np.array([v for v in range(len(q.left)) if q.left[v] >= 0],
                     dtype=np.int64)
    q_l = np.array(q.left, dtype=np.int64)[q_int]
    q_r = np.array(q.right, dtype=np.int64)[q_int]
    outside_q = n - q_size[q_int]

    # rows[x][y] = I(x, y) for every Q node y, kept only until x's parent
    # has consumed it.
    rows = {}
    agree = 0
    for u in p_order:
        if p.left[u] < 0:
            row = np.zeros(len(q.left), dtype=np.int64)
            y = q_leaf[p.taxon[u]]
            while y >= 0:
                row[y] = 1
                y = q_parent[y]
            rows[u] = row
            continue
        a = rows.pop(p.left[u])
        b = rows.pop(p.right[u])
        al, ar, bl, br = a[q_l], a[q_r], b[q_l], b[q_r]
        split = al * br + ar * bl
        outside = outside_q - p_size[u] + (al + ar + bl + br)
        agree += int(np.dot(split, outside))
        a += b
        rows[u] = a
    return n * (n - 1) * (n - 2) // 6 - agree


class Resolver:
    """Which pair of three taxa a tree puts below their common ancestor."""

    def __init__(self, t):
        self.parent = parents(t)
        self.depth = [0] * len(t.left)
        for v in reversed(postorder(t)):
            if self.parent[v] >= 0:
                self.depth[v] = self.depth[self.parent[v]] + 1
        self.leaf = {tx: v for v, tx in enumerate(t.taxon) if tx >= 0}

    def _lca_depth(self, u, v):
        par, dep = self.parent, self.depth
        while u != v:
            if dep[u] < dep[v]:
                u, v = v, u
            u = par[u]
        return dep[u]

    def cherry(self, a, b, c):
        """0 for ab|c, 1 for ac|b, 2 for bc|a."""
        la, lb, lc = self.leaf[a], self.leaf[b], self.leaf[c]
        d_ab = self._lca_depth(la, lb)
        d_ac = self._lca_depth(la, lc)
        d_bc = self._lca_depth(lb, lc)
        if d_ab > d_ac and d_ab > d_bc:
            return 0
        return 1 if d_ac > d_bc else 2

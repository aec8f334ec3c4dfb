"""Ground truth: every triple's resolution, the cubic brute-force
enumerator used to verify the fast algorithm, and an O(n^2) count of the
conflicts for sizes the enumerator cannot reach.

None of this shares code with the output-sensitive enumerator beyond the
tree arenas and the LCA index (and :func:`triplet_distance` uses only
the arenas), so it stays an independent check.  In a binary tree every
triple {a, b, c} has exactly one "bias pair": the pair whose LCA is
strictly below the LCA of all three (the other two pairwise LCAs
coincide with it).  A triple is a conflict of (P, Q) when its bias pair
differs between the trees.  :func:`triple_resolutions` is the one place
that resolves triples: it gives the bias pair of every triple at once.
"""

from itertools import combinations, compress
from operator import add, itemgetter, mul, ne

from .lca import build_lca_index
from .tree import check_same_leaf_taxa


def triple_resolutions(t):
    """Bias codes for every ascending triple, in lexicographic order.

    The returned list has one code per element of
    ``itertools.combinations(sorted(taxa), 3)``: 0 when the bias pair of
    the triple (a, b, c) is ab, 1 when it is ac and 2 when it is bc.  This
    is the tree's complete "triplet signature"; two trees conflict exactly
    on the positions where their signatures differ.
    """
    idx = build_lca_index(t)
    taxa = sorted(t.leaf_of_taxon)
    n = len(taxa)
    out = []
    if n < 3:
        return out
    depth = t.depth
    qlca = idx.lca
    leaves = [t.leaf_of_taxon[x] for x in taxa]
    pd = [0] * (n * n)  # pd[i * n + j]: depth of lca(taxa[i], taxa[j]), i < j
    for i in range(n):
        li = leaves[i]
        row = i * n
        for j in range(i + 1, n):
            pd[row + j] = depth[qlca(li, leaves[j])]
    for i in range(n - 2):
        row_i = i * n
        for j in range(i + 1, n - 1):
            d_ij = pd[row_i + j]
            row_j = j * n
            for k in range(j + 1, n):
                d_ik = pd[row_i + k]
                d_jk = pd[row_j + k]
                # exactly one pairwise LCA is strictly deepest
                if d_ij > d_ik:
                    out.append(0)
                elif d_ik > d_jk:
                    out.append(1)
                elif d_jk > d_ij:
                    out.append(2)
                else:  # d_ij == d_ik == d_jk cannot happen in a binary tree
                    raise AssertionError("unresolved triple in a binary tree")
    return out


def enumerate_bruteforce(p, q):
    """All conflicts of (P, Q) as a set of ``(a, b, c)`` tuples of taxon
    ids, a < b < c, in Theta(n^3)."""
    check_same_leaf_taxa(p, q)
    differ = map(ne, triple_resolutions(p), triple_resolutions(q))
    return set(compress(combinations(sorted(p.leaf_of_taxon), 3), differ))


def triplet_distance(p, q):
    """Number of conflicts of (P, Q), in O(n^2) time, from the arenas alone.

    Uses the triplet-distance identity (Critchlow, Pearl & Qian, Syst.
    Biol. 45(3), 1996; Bansal, Dong & Fernandez-Baca, TCS 412, 2011): a
    pair {a, b} with u = lca_P(a, b) and v = lca_Q(a, b) is grouped apart
    from c in both trees exactly when c lies below neither, so

        d = C(n, 3) - sum over internal u in P, v in Q of
            [I(ul, vl) I(ur, vr) + I(ul, vr) I(ur, vl)] * (n - |u| - |v| + I(u, v))

    with I(x, y) the number of leaves below both x and y.  Row u holds
    I(u, y) for every node y of Q; P is walked heavier child first, so at
    most log2(n) rows wait at a time.
    """
    check_same_leaf_taxa(p, q)
    n = p.n_leaves
    if n < 3:
        return 0
    qint = [v for v in range(q.n_nodes) if q.taxon[v] < 0]
    qfree = [n - q.leaf_count[v] for v in qint]
    # gathers of a row at the internal nodes and at their children (tuples,
    # as Q has at least two internal nodes)
    at_int = itemgetter(*qint)
    at_l, at_r = (itemgetter(*kids) for kids in zip(*map(q.children, qint)))
    size = p.leaf_count

    def row(u):
        if p.taxon[u] < 0:
            return rows.pop(u)
        r = [0] * q.n_nodes  # a leaf: 1 on its root path in Q
        y = q.leaf_of_taxon[p.taxon[u]]
        while y >= 0:
            r[y] = 1
            y = q.parent[y]
        return r

    order, stack = [], [p.root]  # reversed: children first, heavier first
    while stack:
        u = stack.pop()
        if p.taxon[u] < 0:
            order.append(u)
            light, heavy = sorted(p.children(u), key=size.__getitem__)
            stack += (heavy, light)
    rows = {}
    agree = 0
    for u in reversed(order):
        ul, ur = p.children(u)
        a, b = row(ul), row(ur)
        pairs = map(add, map(mul, at_l(a), at_r(b)), map(mul, at_r(a), at_l(b)))
        rows[u] = c = list(map(add, a, b))
        agree += sum(map(mul, pairs, map(add, qfree, at_int(c))))
        agree -= size[u] * size[ul] * size[ur]
    return n * (n - 1) * (n - 2) // 6 - agree

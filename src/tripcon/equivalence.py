"""O(1) leaf-set equality between subtrees of two trees on the same taxa.

The preprocessing maps every node u of P to m(u), the lowest node of Q
whose leaf set contains L(P_u): for a leaf it is the Q-leaf with the same
taxon, and otherwise m(u) = lca_Q(m(u'), m(u'')) over u's children.
L(P_u) = L(Q_v) then holds exactly when m(u) == v and the subtree leaf
counts agree, because L(P_u) is always a subset of L(Q_{m(u)}).
"""

from .lca import build_lca_index
from .tree import check_same_leaf_taxa


class LeafEquivalence:
    """The node mapping for one ordered pair (P, Q) of trees."""

    __slots__ = ("p", "q", "m")

    def __init__(self, p, q, m):
        self.p = p
        self.q = q
        self.m = m


def build_leaf_equivalence(p, q, idx_q=None):
    """Preprocess (P, Q) in O(|P| + |Q|); Q must (or will) be LCA-enabled.

    The two trees must carry the same leaf taxa (TaxonMismatchError
    otherwise); they may be restrictions to a common subset.
    """
    check_same_leaf_taxa(p, q)
    if idx_q is None:
        idx_q = build_lca_index(q)

    taxon = p.taxon
    left, right = p.left, p.right
    q_leaf = q.leaf_of_taxon
    qlca = idx_q.lca
    m = [-1] * p.n_nodes
    for v in range(p.n_nodes):  # children first
        if left[v] < 0:
            m[v] = q_leaf[taxon[v]]
        else:
            m[v] = qlca(m[left[v]], m[right[v]])
    return LeafEquivalence(p, q, m)


def leafsets_equal(e, u, v):
    """True iff L(P_u) == L(Q_v), in O(1)."""
    return e.m[u] == v and e.p.leaf_count[u] == e.q.leaf_count[v]

"""Arena-backed rooted binary trees with dense integer leaf labels.

A tree is a set of flat, parallel lists indexed by integer node id, and
trees are immutable once built.  A node's id is its post-order number
(left child first): children come before their parent, the root is
n_nodes - 1, and the subtree of v is the ids (v - 2 * leaf_count[v] + 1,
v].  That interval is what makes ancestry testing O(1) and per-subtree
leaf traversal a plain slice.  The builders may number their arenas in
any order; finalizing renumbers them.

Arrays (all ``list[int]``, length ``n_nodes``)
----------------------------------------------
parent       parent id; -1 for the root
left, right  child ids; -1 for leaves (a node has either 0 or 2 children)
taxon        dense taxon id on leaves; -1 on internal nodes
leaf_count   number of leaves in the subtree
leaf_base    rank (into ``leaves_post``) of the first leaf of the subtree
depth        edge distance from the root

Derived sequences
-----------------
leaves_post  leaf node ids in post-order, that is ascending
leaf_of_taxon  dict taxon id -> leaf node id (only taxa present in the tree)

A tree built over a :class:`TaxonSet` normally carries every taxon exactly
once (``build_tree`` enforces the bijection); trees produced by subtree
restriction carry a subset of the universe, with the original taxon ids.
"""

from .errors import (
    DuplicateLabelError,
    EmptyTreeError,
    NonBinaryError,
    TaxonMismatchError,
)


class TaxonSet:
    """Immutable bijection between leaf label strings and ids 0..n-1."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        index = {}
        for i, name in enumerate(names):
            if not isinstance(name, str) or not name:
                raise ValueError(f"invalid taxon label {name!r}")
            if name in index:
                raise DuplicateLabelError(f"duplicate taxon label {name!r}")
            index[name] = i
        self.names = names
        self.index = index

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        # every restricted tree shares its input's TaxonSet, so the
        # identity test keeps the comparison O(1) inside the recursion
        return self is other or (
            isinstance(other, TaxonSet) and self.names == other.names)

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"TaxonSet({list(self.names)!r})"

    def id_of(self, name):
        return self.index[name]

    def name_of(self, taxon_id):
        return self.names[taxon_id]


class Tree:
    """A rooted binary leaf-labeled tree; see the module docstring.

    Instances are created through :func:`build_tree`,
    :func:`tripcon.newick.parse_newick`, the generators in
    :mod:`tripcon.generator`, or :func:`tripcon.restrict.induced_subtree`
    — not directly.
    """

    __slots__ = (
        "taxa",
        "root",
        "parent",
        "left",
        "right",
        "taxon",
        "leaf_count",
        "leaf_base",
        "depth",
        "leaves_post",
        "leaf_of_taxon",
    )

    def __init__(self):
        raise TypeError("use build_tree() or a parser/generator to create trees")

    @property
    def n_nodes(self):
        return len(self.parent)

    @property
    def n_leaves(self):
        return len(self.leaves_post)

    def is_leaf(self, v):
        return self.left[v] < 0

    def children(self, v):
        return (self.left[v], self.right[v])

    def subtree_interval(self, v):
        """Half-open id interval (lo, hi] covering v's subtree."""
        return v - (2 * self.leaf_count[v] - 1), v

    def subtree_leaf_slice(self, v):
        """Range of ranks into ``leaves_post`` for the leaves below v."""
        base = self.leaf_base[v]
        return base, base + self.leaf_count[v]

    def __repr__(self):
        return f"<Tree n_leaves={self.n_leaves} n_nodes={self.n_nodes}>"

    @classmethod
    def _from_structure(cls, left, right, taxon, root, taxa, full=True):
        """Finalize a tree from raw child arrays in any node numbering.

        One iterative pass numbers the nodes in the order the traversal
        completes them, validates shape (0-or-2 children, all nodes
        reachable exactly once, distinct taxa; errors name the input's
        ids) and computes every derived array.  With ``full``,
        additionally require the leaf taxa to be a bijection with
        ``taxa``.
        """
        m = len(left)
        if m == 0:
            raise EmptyTreeError("tree has no nodes")
        if not (len(right) == len(taxon) == m) or not 0 <= root < m:
            raise ValueError("malformed arena")

        seen = bytearray(m)  # by input id
        new_left = [-1] * m
        new_right = [-1] * m
        new_taxon = [-1] * m
        parent = [-1] * m
        leaf_count = [1] * m
        leaf_base = [0] * m
        depth = [0] * m
        leaves_post = []
        leaf_of_taxon = {}

        k = 0  # the next number
        d = 0  # depth of the next node entered
        stack = [root]  # input ids to enter, -1 to complete an internal node
        while stack:
            v = stack.pop()
            if v < 0:
                # its right subtree was numbered just before it, and its
                # left one right before that
                rc = k - 1
                lc = k - 2 * leaf_count[rc]
                new_left[k] = lc
                new_right[k] = rc
                parent[lc] = parent[rc] = k
                leaf_count[k] = leaf_count[lc] + leaf_count[rc]
                leaf_base[k] = leaf_base[lc]
                d -= 1
                depth[k] = d
                k += 1
                continue
            if seen[v]:
                raise ValueError(f"arena is not a tree (node {v} is reached twice)")
            seen[v] = 1
            lc = left[v]
            if lc < 0:
                if right[v] >= 0:
                    raise NonBinaryError(f"node {v} has exactly one child")
                tx = taxon[v]
                if tx < 0:
                    raise ValueError(f"leaf {v} has no taxon id")
                if tx in leaf_of_taxon:
                    raise DuplicateLabelError(
                        f"taxon {taxa.name_of(tx)!r} appears on two leaves"
                    )
                leaf_of_taxon[tx] = k
                new_taxon[k] = tx
                leaf_base[k] = len(leaves_post)
                leaves_post.append(k)
                depth[k] = d
                k += 1
                continue
            rc = right[v]
            if rc < 0:
                raise NonBinaryError(f"node {v} has exactly one child")
            if taxon[v] >= 0:
                raise ValueError(f"internal node {v} carries a taxon id")
            stack += (-1, rc, lc)
            d += 1

        if k != m:
            raise ValueError("arena is not a tree (unreachable nodes)")

        if full and len(leaves_post) != len(taxa):
            raise TaxonMismatchError(
                f"tree has {len(leaves_post)} leaves for {len(taxa)} taxa"
            )
        for tx in leaf_of_taxon:
            if not 0 <= tx < len(taxa):
                raise ValueError(f"taxon id {tx} outside the taxon set")

        t = object.__new__(cls)
        t.taxa = taxa
        t.root = m - 1
        t.left = new_left
        t.right = new_right
        t.taxon = new_taxon
        t.parent = parent
        t.leaf_count = leaf_count
        t.leaf_base = leaf_base
        t.depth = depth
        t.leaves_post = leaves_post
        t.leaf_of_taxon = leaf_of_taxon
        return t


def build_tree(topology, taxa=None):
    """Build a :class:`Tree` from a nested (left, right) structure.

    ``topology`` is either a label string (a leaf) or a 2-sequence of
    topologies.  When ``taxa`` is given, every label must belong to it and
    the tree must use each taxon exactly once; otherwise a new
    :class:`TaxonSet` is interned in leaf-encounter order.

    Raises NonBinaryError for nodes with a child count other than 2,
    DuplicateLabelError for repeated labels, EmptyTreeError for ``None`` or
    empty input, TaxonMismatchError for labels outside ``taxa``.
    """
    if topology is None or (not isinstance(topology, str) and not topology):
        raise EmptyTreeError("empty topology")

    left, right, taxon, labels = [], [], [], []

    def new_node():
        left.append(-1)
        right.append(-1)
        taxon.append(-1)
        return len(left) - 1

    done = []  # ids of completed subtrees
    work = [(topology, False)]
    while work:
        obj, exit_phase = work.pop()
        if exit_phase:
            rid = done.pop()
            lid = done.pop()
            v = new_node()
            left[v] = lid
            right[v] = rid
            done.append(v)
            continue
        if isinstance(obj, str):
            if not obj:
                raise EmptyTreeError("empty leaf label")
            v = new_node()
            taxon[v] = len(labels)  # provisional; remapped below
            labels.append(obj)
            done.append(v)
        elif isinstance(obj, (tuple, list)):
            if len(obj) != 2:
                raise NonBinaryError(
                    f"internal node has {len(obj)} children (need 2)"
                )
            work.append((obj, True))
            work.append((obj[1], False))
            work.append((obj[0], False))
        else:
            raise TypeError(f"unsupported topology element {obj!r}")

    root = done[0]
    if taxa is None:
        taxa = TaxonSet(labels)  # raises DuplicateLabelError on repeats
        return Tree._from_structure(left, right, taxon, root, taxa)

    index = taxa.index
    for v in range(len(taxon)):
        if taxon[v] >= 0:
            label = labels[taxon[v]]
            if label not in index:
                raise TaxonMismatchError(f"label {label!r} not in the taxon set")
            taxon[v] = index[label]
    return Tree._from_structure(left, right, taxon, root, taxa)


def is_ancestor(t, u, v):
    """True iff v lies in the subtree of u (u == v counts).  O(1)."""
    lo, hi = t.subtree_interval(u)
    return lo < v <= hi


def check_same_leaf_taxa(p, q):
    """Raise TaxonMismatchError unless p and q carry the same leaf taxa of
    one taxon set."""
    if p.taxa != q.taxa or p.leaf_of_taxon.keys() != q.leaf_of_taxon.keys():
        raise TaxonMismatchError("trees do not carry the same leaf taxa")

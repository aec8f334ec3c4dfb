"""Arena-backed rooted binary trees with dense integer leaf labels.

A tree is a set of flat, parallel arrays indexed by integer node id, and
trees are immutable once built.  A node's id is its post-order number
(left child first): children come before their parent, the root is
n_nodes - 1, and the subtree of v is the ids (v - 2 * leaf_count[v] + 1,
v].  That interval is what makes ancestry testing O(1) and per-subtree
leaf traversal a plain slice.  In post-order an internal node v has right
child v - 1 and left child v - 2 * leaf_count[v - 1], so the ``taxon``
column alone fixes the shape, and a tree keeps no child links:
:meth:`Tree.children` reads them off ``leaf_count``.  The column is all
that a builder hands to :meth:`Tree._from_structure`, which derives every
other slot from it in one forward pass: the arrays of the compiled
kernel's ``Side``.  The compiled Newick pass makes only the column: its
tree holds ``taxa``, ``root`` and ``taxon``, and the first read of any
derived slot derives them all, through the same finalizer.  So the
compiled count path, which hands the kernel only ``taxon``, derives
nothing in Python.  Every slot is an ``array('i')``; the compiled kernel
reads ``taxon`` in place.

Input column (``array('i')``, length ``n_nodes``)
--------------------------------------------------
taxon        dense taxon id on leaves; -1 on internal nodes

Derived slots (``array('i')``, length ``n_nodes``)
--------------------------------------------------
parent       parent id; -1 for the root
leaf_count   number of leaves in the subtree
leaf_base    rank (into ``leaves_post``) of the first leaf of the subtree
depth        edge distance from the root

Derived sequences
-----------------
leaves_post  leaf node ids in post-order, that is ascending (``array('i')``)
leaf_of_taxon  dict taxon id -> leaf node id, one entry per leaf (so a
             restricted tree costs its own size, not the universe's)

A tree built over a :class:`TaxonSet` normally carries every taxon exactly
once (``build_tree`` enforces the bijection); trees produced by subtree
restriction carry a subset of the universe, with the original taxon ids.
"""

from array import array

from .errors import (
    DuplicateLabelError,
    EmptyTreeError,
    NonBinaryError,
    TaxonMismatchError,
)

# The one message of both finalizers for a taxon column of length 0.
EMPTY_COLUMN = "the taxon column is empty"


class TaxonSet:
    """Immutable bijection between leaf label strings and ids 0..n-1.

    ``names`` is the tuple of labels by id and ``index`` the dict from
    label to id.  A set made by the compiled Newick pass holds only that
    pass's label table, which keeps the parsed text alive; its ``names``
    and ``index`` are derived on their first read, so a compiled count
    builds neither.  A set built from names holds no table, so a text
    parsed against it goes to the regex parser.
    """

    __slots__ = ("names", "index", "_table")

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
        self._table = None

    @classmethod
    def _of(cls, table, names=None):
        """The set of a label table of ``tripcon._kernels._fast``, or with
        ``table`` None of a names tuple that the caller has checked."""
        taxa = object.__new__(cls)
        taxa._table = table
        if names is not None:
            taxa.names = names
        return taxa

    def __getattr__(self, name):
        # reached only for a slot that is not set yet: a set made by _of
        # derives names from its table, and index from names
        if name == "names":
            self.names = tuple(self._table)
        elif name == "index":
            self.index = dict(zip(self.names, range(len(self.names))))
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        return getattr(self, name)

    def __reduce__(self):
        # the label table is not picklable: a copy is built from names
        return TaxonSet, (self.names,)

    def __len__(self):
        return len(self.names if self._table is None else self._table)

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


# The slots that Tree._from_structure derives from the taxon column.
_DERIVED = ("parent", "leaf_count", "leaf_base", "depth", "leaves_post",
            "leaf_of_taxon")


class Tree:
    """A rooted binary leaf-labeled tree; see the module docstring.

    Instances are created through :func:`build_tree`,
    :func:`tripcon.newick.parse_newick`, the generators in
    :mod:`tripcon.generator`, or :func:`tripcon.restrict.induced_subtree`
    — not directly.
    """

    __slots__ = ("taxa", "root", "taxon") + _DERIVED

    def __init__(self):
        raise TypeError("use build_tree() or a parser/generator to create trees")

    def __getattr__(self, name):
        # reached only for a slot that is not set yet: a tree made by _of
        # derives every slot on the first read of one
        if name not in _DERIVED:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        t = Tree._from_structure(self.taxon, self.taxa, full=False)
        for slot in _DERIVED:
            setattr(self, slot, getattr(t, slot))
        return getattr(t, name)

    @property
    def n_nodes(self):
        return len(self.taxon)

    @property
    def n_leaves(self):
        return (len(self.taxon) + 1) // 2

    def is_leaf(self, v):
        return self.taxon[v] >= 0

    def children(self, v):
        """(left, right) child ids of v, or (-1, -1) for a leaf."""
        if self.taxon[v] >= 0:
            return -1, -1
        return v - 2 * self.leaf_count[v - 1], v - 1

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
    def _from_structure(cls, taxon, taxa, full=True):
        """Finalize a tree from its taxon column in post-order.

        ``taxon`` may be any int sequence: a taxon id on each leaf and -1
        on each internal node, read like a postfix expression.  One
        forward pass derives every slot, each a new ``array('i')``: an
        internal node v joins the two subtrees completed last before it,
        v - 2 * leaf_count[v - 1] >= 0 and v - 1, and the root m - 1 must
        then cover all m ids.  Leaf taxa must lie in ``taxa`` and be
        distinct; with ``full``, they must also be all of it.  The
        compiled kernel's ``run_enumeration`` makes the same checks, with
        the same messages but for those about taxa.
        """
        m = len(taxon)
        if m == 0:
            raise EmptyTreeError(EMPTY_COLUMN)

        parent = array("i", [-1]) * m
        leaf_count = array("i", [1]) * m
        leaf_base = array("i", [0]) * m
        leaves_post = array("i")
        leaf_of_taxon = {}
        nt = len(taxa)
        for v, tx in enumerate(taxon):
            if 0 <= tx < nt:
                if tx in leaf_of_taxon:
                    raise DuplicateLabelError(
                        f"taxon {taxa.name_of(tx)!r} appears on two leaves"
                    )
                leaf_of_taxon[tx] = v
                leaf_base[v] = len(leaves_post)
                leaves_post.append(v)
            elif tx != -1:
                raise ValueError(f"taxon[{v}] = {tx} is out of range")
            elif v == 0 or (lc := v - 2 * leaf_count[v - 1]) < 0:
                raise ValueError(f"internal node {v} lacks two subtrees "
                                 f"before it")
            else:
                parent[lc] = parent[v - 1] = v
                leaf_count[v] = leaf_count[lc] + leaf_count[v - 1]
                leaf_base[v] = leaf_base[lc]
        below = 2 * leaf_count[m - 1] - 1
        if below != m:
            raise ValueError(f"{m - below} of {m} nodes are not below the root")

        if full and len(leaves_post) != nt:
            raise TaxonMismatchError(
                f"tree has {len(leaves_post)} leaves for {nt} taxa"
            )

        depth = array("i", [0]) * m
        for v in range(m - 2, -1, -1):
            depth[v] = depth[parent[v]] + 1
        t = cls._of(array("i", taxon), taxa)
        t.parent = parent
        t.leaf_count = leaf_count
        t.leaf_base = leaf_base
        t.depth = depth
        t.leaves_post = leaves_post
        t.leaf_of_taxon = leaf_of_taxon
        return t

    @classmethod
    def _of(cls, taxon, taxa):
        """The tree of a post-order taxon column, an ``array('i')`` that
        the caller has checked as :meth:`_from_structure` does; every
        other slot is derived on its first read."""
        t = object.__new__(cls)
        t.taxa = taxa
        t.root = len(taxon) - 1
        t.taxon = taxon
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

    taxon, labels = [], []
    join = object()  # marks the end of an internal node's children
    work = [topology]
    while work:
        obj = work.pop()
        if obj is join:
            taxon.append(-1)
        elif isinstance(obj, str):
            if not obj:
                raise EmptyTreeError("empty leaf label")
            taxon.append(len(labels))  # provisional; remapped below
            labels.append(obj)
        elif isinstance(obj, (tuple, list)):
            if len(obj) != 2:
                raise NonBinaryError(
                    f"internal node has {len(obj)} children (need 2)"
                )
            work += (join, obj[1], obj[0])
        else:
            raise TypeError(f"unsupported topology element {obj!r}")

    if taxa is None:
        taxa = TaxonSet(labels)  # raises DuplicateLabelError on repeats
        return Tree._from_structure(taxon, taxa)

    index = taxa.index
    for v, tx in enumerate(taxon):
        if tx >= 0:
            label = labels[tx]
            if label not in index:
                raise TaxonMismatchError(f"label {label!r} not in the taxon set")
            taxon[v] = index[label]
    return Tree._from_structure(taxon, taxa)


def is_ancestor(t, u, v):
    """True iff v lies in the subtree of u (u == v counts).  O(1)."""
    lo, hi = t.subtree_interval(u)
    return lo < v <= hi


def check_same_leaf_taxa(p, q):
    """Raise TaxonMismatchError unless p and q carry the same leaf taxa of
    one taxon set.

    Every builder gives a tree distinct taxa of its set, so two trees with
    as many leaves as the set has taxa both carry all of it: that case is
    O(1), and any other, such as a restricted tree, compares the taxa."""
    if p.taxa != q.taxa or not (
            p.n_leaves == q.n_leaves == len(p.taxa)
            or p.leaf_of_taxon.keys() == q.leaf_of_taxon.keys()):
        raise TaxonMismatchError("trees do not carry the same leaf taxa")

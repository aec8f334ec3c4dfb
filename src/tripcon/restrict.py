"""Subtree of a tree induced by an ordered leaf subset, in O(|Z|).

The internal nodes of T|Z are exactly the LCAs of consecutive members of
Z.  Numbered in order, leaf j of Z is node 2j and lca(z[j - 1], z[j]) is
node 2j - 1, so the whole shape follows from the host depths of these
2|Z| - 1 nodes: it is their Cartesian tree, with the shallowest node at
the root.  :func:`sweep` builds it with one stack pass (all comparisons
happen between nodes on one host root-to-leaf path, where depths are
strictly increasing).  :func:`induced_subtree` runs it on Z, and
ListSubtreeConflicts runs it once per call on its Z and walks the result
from the edge each candidate splits.  Child order
follows Z, so the result's leaf post-order is Z itself, and the sweep
completes the nodes in post-order, so :func:`induced_subtree` reads the
result's taxon column off in that order.
"""

from .errors import EmptySubsetError, UnorderedInputError
from .tree import Tree


def inorder(idx, z):
    """Host nodes of T|Z in order: z[j] at 2j, lca(z[j - 1], z[j]) at 2j - 1."""
    origin = [0] * (2 * len(z) - 1)
    origin[0::2] = z
    origin[1::2] = map(idx.lca, z, z[1:])
    return origin


def sweep(depth):
    """The induced subtree whose in-order nodes have host depths ``depth``.

    ``depth`` lists 2k - 1 depths: leaf j is node 2j and the LCA of
    leaves j - 1 and j is node 2j - 1.  Returns ``(parent, first, last,
    order)``: parent links (-1 for the root; a left child comes before
    its parent in order, a right child after it), the leftmost and
    rightmost leaf index j below each node, and the nodes in the order
    the sweep completes them, which is post-order.
    """
    nn = len(depth)
    parent = [-1] * nn
    first = [0] * nn
    first[0::2] = range((nn + 1) // 2)
    last = first[:]
    order = [0]
    stack = []  # the right spine above top, internal nodes only
    top = 0
    for v in range(1, nn, 2):
        d = depth[v]
        while stack and depth[stack[-1]] > d:
            nxt = stack.pop()
            parent[top] = nxt
            last[nxt] = last[top]
            order.append(nxt)
            top = nxt
        parent[top] = v
        first[v] = first[top]
        stack.append(v)
        top = v + 1
        order.append(top)
    while stack:
        nxt = stack.pop()
        parent[top] = nxt
        last[nxt] = last[top]
        order.append(nxt)
        top = nxt
    return parent, first, last, order


def induced_subtree(t, idx, z):
    """Restrict ``t`` to the leaves ``z`` (node ids, ascending).

    Returns a standalone :class:`Tree` on the leaf subset, finalized from
    its taxon column in the sweep's completion order.  Its node v
    contracts to host node ``inorder(idx, z)[j]``, j being v's in-order
    position: ``2 * leaf_base[v]`` for a leaf and
    ``2 * leaf_base[v - 1] - 1`` for an internal node, whose right child
    v - 1 follows its left child's leaves.  Leaves keep their original
    taxon ids.
    Requires ``idx`` to be an LCA index for ``t``.  Raises EmptySubsetError
    for empty ``z`` and UnorderedInputError if ``z`` is not strictly
    increasing in post-order or contains a non-leaf.
    """
    if not z:
        raise EmptySubsetError("cannot restrict to zero leaves")
    ttaxon = t.taxon
    prev = -1
    for v in z:
        if ttaxon[v] < 0:
            raise UnorderedInputError(f"node {v} is not a leaf")
        if v <= prev:
            raise UnorderedInputError("leaves are not in strict post-order")
        prev = v

    order = sweep(list(map(t.depth.__getitem__, inorder(idx, z))))[3]
    return Tree._from_structure(
        [-1 if x & 1 else ttaxon[z[x >> 1]] for x in order],
        t.taxa, full=len(z) == len(t.taxa))

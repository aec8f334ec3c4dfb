"""Subtree of a tree induced by an ordered leaf subset, in O(|Z|).

The internal nodes of T|Z are exactly the LCAs of consecutive members of
Z.  Numbered in order, leaf j of Z is node 2j and lca(z[j - 1], z[j]) is
node 2j - 1, so the whole shape follows from the host depths of these
2|Z| - 1 nodes: it is their Cartesian tree, with the shallowest node at
the root.  :func:`sweep` builds it with one stack pass (all comparisons
happen between nodes on one host root-to-leaf path, where depths are
strictly increasing).  :func:`induced_subtree` runs it on Z, and
ListSubtreeConflicts runs it on Z plus one candidate leaf.  Child order
follows Z, so the result's leaf post-order is Z itself.  Finalizing
renumbers the in-order result in post-order (see :func:`induced_subtree`).
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
    leaves j - 1 and j is node 2j - 1.  Returns ``(root, left, right,
    parent, first, last)``: child and parent links (-1 for none) and the
    leftmost and rightmost leaf index j below each node.
    """
    nn = len(depth)
    left = [-1] * nn
    right = [-1] * nn
    parent = [-1] * nn
    first = [0] * nn
    first[0::2] = range((nn + 1) // 2)
    last = first[:]
    stack = []  # the right spine above top, internal nodes only
    top = 0
    for v in range(1, nn, 2):
        d = depth[v]
        while stack and depth[stack[-1]] > d:
            nxt = stack.pop()
            right[nxt] = top
            parent[top] = nxt
            last[nxt] = last[top]
            top = nxt
        left[v] = top
        parent[top] = v
        first[v] = first[top]
        stack.append(v)
        top = v + 1
    while stack:
        nxt = stack.pop()
        right[nxt] = top
        parent[top] = nxt
        last[nxt] = last[top]
        top = nxt
    return top, left, right, parent, first, last


def induced_subtree(t, idx, z):
    """Restrict ``t`` to the leaves ``z`` (node ids, ascending).

    Returns a standalone :class:`Tree` on the leaf subset whose node v
    contracts to host node ``inorder(idx, z)[j]``, j being v's in-order
    position: ``2 * leaf_base[v]`` for a leaf and
    ``2 * (leaf_base[v] + leaf_count[left[v]]) - 1`` for an internal
    node.  Leaves keep their original taxon ids.
    Requires ``idx`` to be an LCA index for ``t``.  Raises EmptySubsetError
    for empty ``z`` and UnorderedInputError if ``z`` is not strictly
    increasing in post-order or contains a non-leaf.
    """
    if not z:
        raise EmptySubsetError("cannot restrict to zero leaves")
    tleft = t.left
    prev = -1
    for v in z:
        if tleft[v] >= 0:
            raise UnorderedInputError(f"node {v} is not a leaf")
        if v <= prev:
            raise UnorderedInputError("leaves are not in strict post-order")
        prev = v

    origin = inorder(idx, z)
    root, left, right, _, _, _ = sweep(list(map(t.depth.__getitem__, origin)))
    taxon = [-1] * len(origin)
    taxon[0::2] = map(t.taxon.__getitem__, z)
    return Tree._from_structure(left, right, taxon, root, t.taxa,
                                full=len(z) == len(t.taxa))

"""Constant-time LCA queries from the tree's post-order.

For nodes u != v with post[u] < post[v], every node at post-order
positions [post[u], post[v]) lies below lca(u, v), and the shallowest of
them are children of lca(u, v) (the child on the path to u always is in
the range).  So lca(u, v) is the parent of any shallowest node in that
range, and the index answers it with one range minimum over the m depths
in post-order.

The range minimum cuts the sequence into blocks of 64 positions.
Position i keeps a bitmask of the positions j <= i in its block whose
value is below every value in (j, i]; the lowest of those bits at or
after l is the minimum of [l, i].  A sparse table over the block minima
covers the whole blocks between two others.  Build O(m), query O(1).
Block offsets and numbers are spelled ``& 63`` and ``>> 6``, and the
lowest set bit of x ``(x & -x).bit_length() - 1``, without a helper,
because the pure kernel makes several queries per node it visits.
"""


class _Rmq:
    """Range minimum over a list of ints: O(n) build, O(1) query.

    ``argmin(l, r)`` returns a position of the minimum value in the
    inclusive range [l, r]; ties may resolve to any minimum position.
    """

    __slots__ = ("data", "mask", "sparse")

    def __init__(self, data):
        n = len(data)
        mask = [0] * n
        bmin = []  # position of each block's minimum
        for start in range(0, n, 64):
            cur = 0
            for i in range(start, min(start + 64, n)):
                d = data[i]
                while cur and data[start + cur.bit_length() - 1] >= d:
                    cur ^= 1 << (cur.bit_length() - 1)
                cur |= 1 << (i - start)
                mask[i] = cur
            bmin.append(start + (cur & -cur).bit_length() - 1)
        # sparse[k][j]: minimum position over blocks j .. j + 2^k - 1
        sparse = [bmin]
        while 1 << len(sparse) <= len(bmin):
            prev = sparse[-1]
            sparse.append([a if data[a] <= data[b] else b
                           for a, b in zip(prev, prev[1 << (len(sparse) - 1):])])
        self.data = data
        self.mask = mask
        self.sparse = sparse

    def argmin(self, l, r):
        mask = self.mask
        off = l & 63
        if l >> 6 == r >> 6:
            x = mask[r] >> off
            return l + (x & -x).bit_length() - 1
        data = self.data
        x = mask[l | 63] >> off
        best = l + (x & -x).bit_length() - 1
        x = mask[r]
        p = (r & -64) + (x & -x).bit_length() - 1
        if data[p] < data[best]:
            best = p
        lo, hi = (l >> 6) + 1, r >> 6  # the whole blocks between
        if lo < hi:
            k = (hi - lo).bit_length() - 1
            row = self.sparse[k]
            for p in (row[lo], row[hi - (1 << k)]):
                if data[p] < data[best]:
                    best = p
        return best


class LcaIndex:
    """LCA-enabling index for one tree: range minimum over post-order depths.

    ``tour`` is the tree's post-order node list, the sequence the range
    minimum runs over (m entries).
    """

    __slots__ = ("tour", "_post", "_parent", "_rmq")

    def __init__(self, tree):
        self.tour = tree.postorder
        self._post = tree.post
        self._parent = tree.parent
        self._rmq = _Rmq(list(map(tree.depth.__getitem__, tree.postorder)))

    def lca(self, u, v):
        """The lowest common ancestor of nodes u and v.  O(1)."""
        if u == v:
            return u
        lo, hi = self._post[u], self._post[v]
        if lo > hi:
            lo, hi = hi, lo
        return self._parent[self.tour[self._rmq.argmin(lo, hi - 1)]]


def build_lca_index(t):
    """LCA-enable ``t`` in linear time."""
    return LcaIndex(t)

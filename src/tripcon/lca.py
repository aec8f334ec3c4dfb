"""Constant-time LCA queries over an Euler tour of the tree.

The range-minimum structure is the block-decomposed one for sequences
whose adjacent values differ by exactly 1 (which Euler-tour depths do):
block minima are covered by a sparse table over ~L/log L blocks, in-block
queries by per-shape lookup tables, giving O(m) build and O(1) query.
"""


class _Pm1Rmq:
    """Range-minimum over a +-1 sequence: O(n) build, O(1) query.

    ``query(l, r)`` returns a position of the minimum value in the
    inclusive range [l, r]; ties may resolve to any minimum position.
    """

    __slots__ = ("data", "b", "nb", "bmin_pos", "bmin_val", "st", "lg",
                 "pattern", "tables")

    def __init__(self, data):
        n = len(data)
        self.data = data
        b = max(1, (n.bit_length() - 1) // 2)
        nb = (n + b - 1) // b
        self.b = b
        self.nb = nb

        bmin_pos = [0] * nb
        bmin_val = [0] * nb
        pattern = [0] * nb
        tables = {}
        for j in range(nb):
            start = j * b
            end = min(start + b, n)
            best = start
            bv = data[start]
            pat = 0
            for i in range(start + 1, end):
                if data[i] < bv:
                    best, bv = i, data[i]
                if data[i] > data[i - 1]:
                    pat |= 1 << (i - start - 1)
            bmin_pos[j] = best
            bmin_val[j] = bv
            pattern[j] = pat
            if pat not in tables:
                tables[pat] = self._build_table(pat, b)
        self.bmin_pos = bmin_pos
        self.bmin_val = bmin_val
        self.pattern = pattern
        self.tables = tables

        lg = [0] * (nb + 1)
        for i in range(2, nb + 1):
            lg[i] = lg[i >> 1] + 1
        self.lg = lg

        levels = lg[nb] + 1 if nb else 1
        st = [list(range(nb))]
        for k in range(1, levels):
            half = 1 << (k - 1)
            prev = st[k - 1]
            width = nb - (1 << k) + 1
            row = [0] * max(width, 0)
            for i in range(max(width, 0)):
                a, c = prev[i], prev[i + half]
                row[i] = a if bmin_val[a] <= bmin_val[c] else c
            st.append(row)
        self.st = st

    @staticmethod
    def _build_table(pat, b):
        # tbl[i*b + j] = offset of the minimum of the walk on [i, j]
        val = [0] * b
        for i in range(1, b):
            val[i] = val[i - 1] + (1 if pat & (1 << (i - 1)) else -1)
        tbl = [0] * (b * b)
        for i in range(b):
            best = i
            bv = val[i]
            row = i * b
            for j in range(i, b):
                if val[j] < bv:
                    best, bv = j, val[j]
                tbl[row + j] = best
        return tbl

    def _in_block(self, blk, oi, oj):
        tbl = self.tables[self.pattern[blk]]
        return blk * self.b + tbl[oi * self.b + oj]

    def query(self, l, r):
        b = self.b
        bl = l // b
        br = r // b
        if bl == br:
            return self._in_block(bl, l - bl * b, r - bl * b)
        data = self.data
        p1 = self._in_block(bl, l - bl * b, b - 1)
        p2 = self._in_block(br, 0, r - br * b)
        best = p1 if data[p1] <= data[p2] else p2
        lo, hi = bl + 1, br - 1
        if lo <= hi:
            k = self.lg[hi - lo + 1]
            row = self.st[k]
            a, c = row[lo], row[hi - (1 << k) + 1]
            jb = a if self.bmin_val[a] <= self.bmin_val[c] else c
            pm = self.bmin_pos[jb]
            if data[pm] < data[best]:
                best = pm
        return best


class LcaIndex:
    """LCA-enabling index for one tree: Euler tour + range-minimum."""

    __slots__ = ("tree", "tour", "tour_depth", "first_occ", "_rmq")

    def __init__(self, tree):
        self.tree = tree

        m = tree.n_nodes
        depth = tree.depth
        left, right = tree.left, tree.right
        tour = []
        tour_depth = []
        first_occ = [-1] * m
        stack = [(tree.root, 0)]
        while stack:
            v, phase = stack.pop()
            if first_occ[v] < 0:
                first_occ[v] = len(tour)
            tour.append(v)
            tour_depth.append(depth[v])
            if left[v] < 0:
                continue
            if phase == 0:
                stack.append((v, 1))
                stack.append((left[v], 0))
            elif phase == 1:
                stack.append((v, 2))
                stack.append((right[v], 0))
        assert len(tour) == 2 * m - 1

        self.tour = tour
        self.tour_depth = tour_depth
        self.first_occ = first_occ
        self._rmq = _Pm1Rmq(tour_depth)

    def lca(self, u, v):
        """The lowest common ancestor of nodes u and v.  O(1)."""
        lo = self.first_occ[u]
        hi = self.first_occ[v]
        if lo > hi:
            lo, hi = hi, lo
        return self.tour[self._rmq.query(lo, hi)]


def build_lca_index(t):
    """LCA-enable ``t`` in linear time."""
    return LcaIndex(t)

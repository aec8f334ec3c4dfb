"""Seeded benchmark inputs, built without the package under test.

A tree is an :class:`Arena`: parallel ``left``/``right``/``taxon`` lists
indexed by node id (-1 marks "no child" and "no taxon") plus the root id,
over taxon ids 0..n-1.  The uniform-attachment generator and the leaf-swap
perturbation repeat ``tripcon.generator`` step for step on the same
splitmix64 stream, so the reference instances keep the conflict counts
quoted in ``BENCHMARK.json``; they live here so that a change to the
package cannot change what the benchmark feeds it.
"""

from typing import NamedTuple

_MASK = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator (same stream as ``tripcon.SplitMix64``)."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n):
        limit = _MASK - (_MASK + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n


class Arena(NamedTuple):
    left: list
    right: list
    taxon: list
    root: int


def postorder(t):
    """Node ids in post-order, left child first."""
    out = []
    stack = [(t.root, False)]
    while stack:
        v, done = stack.pop()
        if done or t.left[v] < 0:
            out.append(v)
        else:
            stack.append((v, True))
            stack.append((t.right[v], False))
            stack.append((t.left[v], False))
    return out


def parents(t):
    par = [-1] * len(t.left)
    for v, (lc, rc) in enumerate(zip(t.left, t.right)):
        if lc >= 0:
            par[lc] = par[rc] = v
    return par


def uniform_attachment(n, seed):
    """Each new leaf lands on a uniformly random edge (or above the root)."""
    rng = SplitMix64(seed)
    left, right, taxon, parent = [-1], [-1], [0], [-1]
    root = 0
    for i in range(1, n):
        target = rng.randrange(len(left))
        leaf = len(left)
        joint = leaf + 1
        left += [-1, -1]
        right += [-1, -1]
        taxon += [i, -1]
        parent += [-1, -1]
        pa = parent[target]
        if rng.next_u64() & 1:
            left[joint], right[joint] = target, leaf
        else:
            left[joint], right[joint] = leaf, target
        parent[target] = parent[leaf] = joint
        if pa < 0:
            root = joint
        else:
            if left[pa] == target:
                left[pa] = joint
            else:
                right[pa] = joint
            parent[joint] = pa
    return Arena(left, right, taxon, root)


def perturb_leaf_swaps(t, k, seed):
    """Same topology with k random exchanges of leaf labels."""
    taxon = list(t.taxon)
    leaves = [v for v in postorder(t) if t.left[v] < 0]
    n = len(leaves)
    rng = SplitMix64(seed)
    if n >= 2:
        for _ in range(k):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            li, lj = leaves[i], leaves[j]
            taxon[li], taxon[lj] = taxon[lj], taxon[li]
    return Arena(list(t.left), list(t.right), taxon, t.root)


def uniform_pair(n, seed, k):
    """A uniform-attachment tree and its k-leaf-swap perturbation."""
    base = uniform_attachment(n, seed)
    rng = SplitMix64(seed ^ 0xA5A5A5A5A5A5A5A5)
    return base, perturb_leaf_swaps(base, k, rng.next_u64())


def caterpillar(order):
    """((..((order[0], order[1]), order[2])..), order[-1])."""
    left, right, taxon = [-1], [-1], [order[0]]
    spine = 0
    for tx in order[1:]:
        left += [-1, spine]
        right += [-1, len(left) - 2]
        taxon += [tx, -1]
        spine = len(left) - 1
    return Arena(left, right, taxon, spine)


def permutation(n, rng):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def relabel(t, perm, rng=None):
    """Map every taxon id through ``perm``; with ``rng``, also swap the two
    children of each internal node on a coin flip.  Neither changes which
    triples the tree resolves which way up to the relabelling, so a pair
    relabelled with one ``perm`` keeps its conflict count."""
    left, right = list(t.left), list(t.right)
    if rng is not None:
        for v in range(len(left)):
            if left[v] >= 0 and rng.next_u64() & 1:
                left[v], right[v] = right[v], left[v]
    taxon = [perm[x] if x >= 0 else -1 for x in t.taxon]
    return Arena(left, right, taxon, t.root)


def label(taxon_id):
    return f"t{taxon_id}"


def to_newick(t):
    out = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            out.append(v)
        elif t.left[v] < 0:
            out.append(label(t.taxon[v]))
        else:
            out.append("(")
            stack += [")", t.right[v], ",", t.left[v]]
    out.append(";\n")
    return "".join(out)


def to_nested(t):
    """Nested 2-tuples of labels, the input form of ``tripcon.build_tree``."""
    built = {}
    for v in postorder(t):
        if t.left[v] < 0:
            built[v] = label(t.taxon[v])
        else:
            built[v] = (built.pop(t.left[v]), built.pop(t.right[v]))
    return built[t.root]

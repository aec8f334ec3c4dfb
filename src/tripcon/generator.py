"""Deterministic tree generation and perturbation for tests and benches.

All randomness comes from splitmix64 seeded explicitly, so every corpus
is reproducible bit for bit across platforms.  Taxa are named t0..t{n-1}.

Shapes
------
uniform-attachment   each new leaf lands on a uniformly random edge,
                     including the virtual edge above the root
caterpillar          ((..((t0,t1),t2)..),t{n-1})
balanced             recursive halving of the taxon range
"""

from array import array
from dataclasses import dataclass

from .tree import TaxonSet, Tree, build_tree

_MASK = (1 << 64) - 1

SHAPES = ("uniform-attachment", "caterpillar", "balanced")


class SplitMix64:
    """The splitmix64 generator; tiny and portable."""

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
        """Uniform integer in [0, n) by rejection."""
        limit = _MASK - (_MASK + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n


@dataclass
class GeneratorConfig:
    """Recipe for one generated instance.

    ``k`` is the leaf-swap perturbation count consumed by
    :func:`generate_pair`; :func:`random_binary_tree` itself ignores it.
    """

    n: int
    seed: int
    shape: str = "uniform-attachment"
    k: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r} (use one of {SHAPES})")


def default_taxa(n):
    return TaxonSet(f"t{i}" for i in range(n))


def _uniform_attachment(n, rng, taxa):
    left = [-1]
    right = [-1]
    taxon = [0]
    parent = [-1]
    root = 0

    def add(tx):
        left.append(-1)
        right.append(-1)
        taxon.append(tx)
        parent.append(-1)
        return len(left) - 1

    for i in range(1, n):
        target = rng.randrange(len(left))
        leaf = add(i)
        joint = add(-1)
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

    # the taxon column in post-order, left child first, as a Tree's is
    column = []
    stack = [root]
    while stack:
        v = stack.pop()
        if v < 0:  # both subtrees of an internal node are listed
            column.append(-1)
        elif left[v] < 0:
            column.append(taxon[v])
        else:
            stack += (-1, right[v], left[v])
    return Tree._from_structure(column, taxa)


def _caterpillar_shape(names):
    shape = names[0]
    for name in names[1:]:
        shape = (shape, name)
    return shape


def _balanced_shape(names):
    if len(names) == 1:
        return names[0]
    mid = len(names) // 2
    return (_balanced_shape(names[:mid]), _balanced_shape(names[mid:]))


def random_binary_tree(cfg, taxa=None):
    """Generate one tree per ``cfg`` (same config, same tree)."""
    if not isinstance(cfg, GeneratorConfig):
        raise TypeError("random_binary_tree takes a GeneratorConfig")
    taxa = taxa if taxa is not None else default_taxa(cfg.n)
    if len(taxa) != cfg.n:
        raise ValueError("taxon set size does not match cfg.n")
    if cfg.shape == "caterpillar":
        return build_tree(_caterpillar_shape(taxa.names), taxa)
    if cfg.shape == "balanced":
        return build_tree(_balanced_shape(taxa.names), taxa)
    return _uniform_attachment(cfg.n, SplitMix64(cfg.seed), taxa)


def caterpillar_tree(n, reverse=False):
    """Caterpillar on t0..t{n-1}; ``reverse`` reverses the label order."""
    taxa = default_taxa(n)
    names = taxa.names[::-1] if reverse else taxa.names
    return build_tree(_caterpillar_shape(names), taxa)


def perturb_leaf_swaps(t, k, seed):
    """Copy of ``t`` with k random label-pair exchanges; same topology."""
    if k < 0:
        raise ValueError("k must be non-negative")
    taxon = array("i", t.taxon)
    leaves = t.leaves_post
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
    return Tree._from_structure(taxon, t.taxa,
                                full=t.n_leaves == len(t.taxa))


def generate_pair(cfg):
    """(tree, perturbed tree): the seeded instance behind CLI bench/check."""
    base = random_binary_tree(cfg)
    rng = SplitMix64(cfg.seed ^ 0xA5A5A5A5A5A5A5A5)
    return base, perturb_leaf_swaps(base, cfg.k, rng.next_u64())


def enumerate_labeled_topologies(n):
    """Yield every labeled rooted binary topology on n taxa, once each.

    Count is (2n-3)!! — 1, 1, 3, 15, 105, 945 for n = 1..6.  Intended for
    exhaustive small-n verification; do not call with large n.
    """
    taxa = default_taxa(n)

    def insertions(shape, new_leaf):
        yield (shape, new_leaf)
        if isinstance(shape, tuple):
            l, r = shape
            for li in insertions(l, new_leaf):
                yield (li, r)
            for ri in insertions(r, new_leaf):
                yield (l, ri)

    def grow(shape, next_taxon):
        if next_taxon == n:
            yield shape
            return
        for bigger in insertions(shape, taxa.name_of(next_taxon)):
            yield from grow(bigger, next_taxon + 1)

    for shape in grow(taxa.name_of(0), 1):
        yield build_tree(shape, taxa)

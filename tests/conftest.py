"""Shared fixtures and reference helpers (naive oracles live here)."""

import pytest

import hashlib
import json
import math
import os
import re
import shutil
import sysconfig
from array import array

import tripcon
from tripcon import (
    SplitMix64,
    TaxonSet,
    Tree,
    build_lca_index,
    build_tree,
    induced_subtree,
    newick,
    parse_newick,
    serialize_newick,
)
from tripcon._kernels import available_backends
from tripcon.tree import _DERIVED
from tripcon.generator import (
    SHAPES,
    GeneratorConfig,
    generate_pair,
    perturb_leaf_swaps,
    random_binary_tree,
)

FIG1_P = "((A,B),((C,D),E));"
FIG1_Q = "((A,B),((D,E),C));"

# Every slot of a Tree but its TaxonSet, for comparing parsers.
TREE_SLOTS = ("root", "parent", "taxon", "leaf_count", "leaf_base", "depth",
              "leaves_post", "leaf_of_taxon")


def held_slots(obj, slots=_DERIVED):
    """Those of ``slots`` that ``obj`` holds, read past the ``__getattr__``
    that derives them on a first read: by default the derived slots of a
    ``Tree``."""
    held = set()
    for slot in slots:
        try:
            type(obj).__dict__[slot].__get__(obj, type(obj))
        except AttributeError:
            continue
        held.add(slot)
    return held


def parsed_taxa(names):
    """The TaxonSet of the compiled parse of the caterpillar text of
    ``names``, each label quoted: a set that holds a label table."""
    quoted = ["'" + name.replace("'", "''") + "'" for name in names]
    text = ("(" * (len(quoted) - 1) + quoted[0]
            + "".join(f",{x})" for x in quoted[1:]) + ";")
    taxa = parse_newick(text)[1]
    assert taxa._table is not None
    return taxa


def assert_slot_format(t):
    """Every node slot and ``leaves_post`` of ``t`` is an ``array('i')``,
    whichever builder made it, and ``leaf_of_taxon`` a dict with one entry
    per leaf of ``t``."""
    for slot in TREE_SLOTS[1:-1]:
        value = getattr(t, slot)
        assert type(value) is array and value.typecode == "i", slot
    assert type(t.leaf_of_taxon) is dict
    assert sorted(t.leaf_of_taxon.values()) == list(t.leaves_post)


@pytest.fixture(scope="session")
def fig1():
    """The worked example: trees P and Q with the single conflict CDE."""
    p, taxa = parse_newick(FIG1_P)
    q, _ = parse_newick(FIG1_Q, taxa)
    return p, q, taxa


def env_without_kernel(tmp_path):
    """Environment importing a copy of the package whose compiled kernel
    is recorded as a failed build, so that it is not available: the way
    a run without compiled code happens in the field."""
    pkg = os.path.dirname(os.path.abspath(tripcon.__file__))
    src = tmp_path / "src"
    shutil.copytree(pkg, src / "tripcon",
                    ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"))
    digest = hashlib.sha256(
        (src / "tripcon" / "_kernels" / "_fast.c").read_bytes()).hexdigest()
    entry = (tmp_path / "cache" / "tripcon"
             / f"{digest}-{sysconfig.get_config_var('EXT_SUFFIX')}")
    entry.mkdir(parents=True)
    (entry / "build-failed.txt").write_text("cc: error: one\ncc: error: two\n")
    return dict(os.environ, PYTHONPATH=str(src),
                XDG_CACHE_HOME=str(tmp_path / "cache"))


@pytest.fixture(params=available_backends())
def backend(request):
    """Run a test once per available kernel backend."""
    return request.param


@pytest.fixture(scope="session")
def small_trees():
    """A deterministic pool of random trees across sizes, with indices."""
    rng = SplitMix64(0x5EED)
    trees = []
    for _ in range(30):
        n = 2 + rng.randrange(50)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        trees.append((t, build_lca_index(t)))
    return trees


def nested_chain_pair(n):
    """P = (((X,y),z),w) against Q = (((X',z),y),w), applied recursively.

    Each level adds three leaves around the pair (X, X') of the level
    below; the innermost X is one leaf, so n must be 1 mod 3.  The root
    splits agree at every level, which is the case that kept a context of
    every level alive when the larger descent child ran first.
    """
    assert n % 3 == 1
    taxa = TaxonSet(f"t{i}" for i in range(n))
    p = q = "t0"
    for i in range(1, n, 3):
        y, z, w = f"t{i}", f"t{i + 1}", f"t{i + 2}"
        p = (((p, y), z), w)
        q = (((q, z), y), w)
    return build_tree(p, taxa), build_tree(q, taxa)


def naive_lca(t, u, v):
    """Parent-pointer walk; the reference for every LCA test."""
    seen = set()
    while u >= 0:
        seen.add(u)
        u = t.parent[u]
    while v not in seen:
        v = t.parent[v]
    return v


def cherry(t, a, b, c):
    """0, 1 or 2 for t's ab|c, ac|b or bc|a (taxa a < b < c), by parent
    walk: the one test-side reference for a triple's resolution, with the
    codes of ``tripcon.oracle.triple_resolutions``."""
    la, lb, lc = (t.leaf_of_taxon[x] for x in (a, b, c))
    d_ab = t.depth[naive_lca(t, la, lb)]
    d_ac = t.depth[naive_lca(t, la, lc)]
    return 0 if d_ab > d_ac else 1 if d_ac > d_ab else 2


def leafset(t, v):
    """Taxon set below v by direct traversal (reference)."""
    out = set()
    stack = [v]
    while stack:
        x = stack.pop()
        if t.is_leaf(x):
            out.add(t.taxon[x])
        else:
            stack += t.children(x)
    return frozenset(out)


def tree_shape(t, v=None, taxa=None):
    """Canonical nested-tuple form (child order preserved) for comparisons."""
    taxa = taxa if taxa is not None else t.taxa
    v = t.root if v is None else v
    out = {}
    for node in range(t.n_nodes):  # children first
        if t.is_leaf(node):
            out[node] = taxa.name_of(t.taxon[node])
        else:
            left, right = t.children(node)
            out[node] = (out[left], out[right])
    return out[v]


def decorated_newick(t, seed, names=None):
    """Newick text of ``t`` with seeded filler (whitespace, ``\\x1c`` and
    comments, some holding non-ASCII text) before its tokens, branch
    lengths after some subtrees, and quoted labels, which every label
    outside the bare alphabet needs; every parser reads it as ``t``.
    ``names`` (by taxon id, default the tree's) may repeat a label."""
    rng = SplitMix64(seed)
    names = t.taxa.names if names is None else names
    fillers = ["", "", " ", "\t\n", "\v", "\x1c", "\x1f", "[]", "[c]",
               "[\u00fc (x, y)]"]
    # the last is longer than the compiled parser's 64-byte number buffer
    lengths = ["1", "1e5", ".5", "-2.5E-3", "+.5e-0", "1e-999", "9" * 70]

    def pick(options):
        return options[rng.randrange(len(options))]

    def length():
        return f":{pick(fillers)}{pick(lengths)}" if rng.randrange(2) else ""

    out = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v == ")":
            out.append(pick(fillers) + ")" + length())
        elif v == ",":
            out.append(pick(fillers) + ",")
        elif t.is_leaf(v):
            name = names[t.taxon[v]]
            if not re.fullmatch(r"[A-Za-z0-9_.|-]+", name) or rng.randrange(2):
                name = "'" + name.replace("'", "''") + "'"
            out.append(pick(fillers) + name + length())
        else:
            left, right = t.children(v)
            stack += (")", right, ",", left)
            out.append(pick(fillers) + "(")
    out.append(pick(fillers) + ";" + pick(fillers))
    return "".join(out)


def unordered_shape(t):
    """Canonical string with children sorted: order-insensitive identity."""
    out = {}
    for node in range(t.n_nodes):  # children first
        if t.is_leaf(node):
            out[node] = f"L{t.taxon[node]}"
        else:
            a, b = (out[x] for x in t.children(node))
            if b < a:
                a, b = b, a
            out[node] = f"({a},{b})"
    return out[t.root]


def permutation(n, rng):
    """A uniform random permutation of range(n) drawn from ``rng``."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def caterpillar_from_order(order, taxa):
    """The caterpillar (((order[0], order[1]), order[2]), ...) over taxon
    ids, finalized from its taxon column in post-order: leaf order[0] is
    node 0, leaf order[i] node 2i - 1, and node 2i joins nodes 2i - 2 and
    2i - 1."""
    n = len(order)
    assert n >= 2
    taxon = [-1] * (2 * n - 1)
    taxon[0] = order[0]
    taxon[1::2] = order[1:]
    return Tree._from_structure(taxon, taxa)


def built_by_every_builder(n, seed):
    """A tree from each builder, by name: both Newick parsers, nested
    tuples, the leaf-swap perturbation, restriction to every other leaf,
    ``caterpillar_from_order`` and each generator shape, most of them on
    n taxa (n >= 2) from ``seed``."""
    base = random_binary_tree(GeneratorConfig(n=n, seed=seed))
    rng = SplitMix64(seed)
    built = {
        "parse_newick": parse_newick(serialize_newick(base))[0],
        "newick._parse": newick._parse(serialize_newick(base))[0],
        "build_tree": build_tree(((("a", "b"), "c"), ("d", ("e", "f")))),
        "perturb_leaf_swaps": perturb_leaf_swaps(base, n // 4, seed),
        "generate_pair": generate_pair(
            GeneratorConfig(n=n, seed=seed, k=n // 4))[1],
        "induced_subtree": induced_subtree(base, build_lca_index(base),
                                           base.leaves_post[1::2]),
        "caterpillar_from_order": caterpillar_from_order(
            permutation(n, rng), base.taxa),
    }
    for shape in SHAPES:
        built[shape] = random_binary_tree(
            GeneratorConfig(n=n, seed=seed, shape=shape))
    return built


def caterpillar_distance(sigma, tau):
    """d for the caterpillars with leaf orders sigma and tau (deepest
    first), in O(n log n).

    A triple's outgroup in a caterpillar is its taxon that comes last in
    the order, so a triple agrees exactly when the same taxon comes last
    in both orders.  With m_x the number of taxa that come before x in
    both orders, d = C(n, 3) - sum over x of C(m_x, 2); a Fenwick tree
    over the positions in tau counts m_x while sigma is walked.
    """
    n = len(sigma)
    at = [0] * n
    for i, x in enumerate(tau):
        at[x] = i
    fenwick = [0] * (n + 1)
    agree = 0
    for x in sigma:
        m = 0
        j = at[x]
        while j > 0:
            m += fenwick[j]
            j -= j & -j
        agree += m * (m - 1) // 2
        j = at[x] + 1
        while j <= n:
            fenwick[j] += 1
            j += j & -j
    return math.comb(n, 3) - agree


def _long_labels(char, width):
    """Labels of ``char``, ``width`` bytes in the packed text, whose
    pieces in text framing (the label and a tab or a newline) are one
    character under 16 bytes, 16 bytes, one character over and 40 bytes:
    the edges of the fixed 16-byte copy of ``_fast.LineSink``."""
    return [char * (chars - 1) for chars in
            (16 // width - 1, 16 // width, 16 // width + 1, 40 // width)]


# Label tables of every str kind for the chunk joins of tripcon.cli:
# ASCII (with characters JSON escapes), Latin-1, BMP, astral, and all mixed.
# Each kind ends in its long labels and one short label, so that the packed
# text ends in pieces that start less than 16 bytes before its end.
JOIN_TABLES = {
    "ascii": ["a", "t10", "sp. 1's", 'say "hi"', "back\\slash",
              *_long_labels("q", 1), "_"],
    "latin1": ["\u00e9", "\u00df", "\u00f1u", "\u00c4",
               *_long_labels("\u00ff", 1), "x\u00a0y"],
    "bmp": ["\u03a9", "\u65e5\u672c", "a\u2028b", "\uffff",
            *_long_labels("\u65e5", 2), "\u0133"],
    "astral": ["\U0001d538", "\U0001f332", "a\U0001d539",
               *_long_labels("\U0001f332", 4), "\U0010ffff"],
}
JOIN_TABLES["mixed"] = [x for table in JOIN_TABLES.values() for x in table]


def join_cases(seed=0x70B):
    """Chunk writer arguments ``(ids, mid, end, first, sep)`` for the
    chunk joins of tripcon.cli, ids as lists: each table of
    ``JOIN_TABLES`` in text and in JSON framing (whose labels JSON escapes
    to ASCII), for a full chunk of 4,096 triples and for chunks of 1, 3, 4
    and 5 ids.  Each table of one kind also comes with its 16-byte label
    and with its 40-byte label moved last, so that in text framing the
    packed text ends in a piece that the fixed copy reads to its very end
    and in one longer than 16 bytes.  The mixed table also gets chunks of
    its ASCII labels only.  The joins read ``sep + mid`` as the table of
    each triple's first id."""
    rng = SplitMix64(seed)
    cases = []
    for kind, names in JOIN_TABLES.items():
        tables = [names]
        if kind != "mixed":
            # the long labels are names[-5:-1]: 16 bytes second, 40 last
            for last in (-4, -2):
                tables.append(names[:last] + names[last + 1:] + [names[last]])
        pools = [len(names)]
        if kind == "mixed":
            pools.append(len(JOIN_TABLES["ascii"]))
        for table in tables:
            quoted = [json.dumps(name) for name in table]
            framings = [
                ([x + "\t" for x in table], [x + "\n" for x in table], "",
                 ""),
                ([x + ", " for x in quoted], [x + "]" for x in quoted],
                 '{"n": 9, "conflicts": [[', ", ["),
            ]
            for mid, end, first, sep in framings:
                for pool in pools:
                    for size in (3 * 4096, 1, 3, 4, 5):
                        ids = [rng.randrange(pool) for _ in range(size)]
                        cases.append((ids, mid, end, first, sep))
    return cases


# The label tables of one two-taxon chunk join, which cli._pack packs into
# 12 characters cut at 0, 2, 4, ..., 12, and offsets that break them: (offset
# j, its new value, a piece that it breaks).
TWO_TAXA = (["a\t", "b\t"], ["a\t", "b\t"], ["a\n", "\U0001f332\n"])
BAD_OFFSETS = [(1, 5, 1), (2, 1, 1), (0, -1, 0), (0, -2 ** 63, 0),
               (6, 13, 5), (6, 14, 5), (5, 13, 4), (5, 13, 5),
               (6, 2 ** 62, 5), (3, 2 ** 62, 2), (3, 2 ** 62, 3)]

"""Hypothesis properties of both kernels on pairs of at most 40 taxa:
relabelling invariance, a count equal to the listing's length, and
restriction to a taxon subset; and of the two chunk joins of
``tripcon.cli`` on drawn label tables."""

from array import array

import pytest

from tripcon import (
    TaxonSet,
    Tree,
    build_tree,
    count_conflicts,
    enumerate_conflicts,
)
from tripcon import cli
from tripcon.generator import SHAPES, GeneratorConfig, generate_pair

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=200, deadline=None,
                               derandomize=True, database=None)


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 40))
    return generate_pair(GeneratorConfig(
        n=n, seed=draw(st.integers(0, 2**64 - 1)), k=draw(st.integers(0, n)),
        shape=draw(st.sampled_from(SHAPES))))


def _listed(p, q, backend):
    return enumerate_conflicts(p, q, backend=backend, collect=True).conflicts


def _named(conflicts, taxa):
    return {frozenset(map(taxa.name_of, triple)) for triple in conflicts}


def _restricted_shape(t, keep):
    """Nested label tuples of t restricted to the taxa ``keep``, for
    ``build_tree``: subtrees without a kept taxon drop out and a node with
    one child left is contracted."""
    out = {}
    for v in range(t.n_nodes):  # children first
        if t.is_leaf(v):
            out[v] = t.taxa.name_of(t.taxon[v]) if t.taxon[v] in keep else None
        else:
            left, right = (out.pop(x) for x in t.children(v))
            out[v] = (left if right is None else right if left is None
                      else (left, right))
    return out[t.root]


def test_relabelling_permutes_the_conflicts(backend):
    @SETTINGS
    @hypothesis.given(pair=pairs(), data=st.data())
    def check(pair, data):
        p, q = pair
        perm = data.draw(st.permutations(range(p.n_leaves)))

        def relabel(t):
            return Tree._from_structure([perm[x] if x >= 0 else -1
                                         for x in t.taxon], t.taxa)

        want = {tuple(sorted(perm[x] for x in triple))
                for triple in _listed(p, q, backend)}
        got = _listed(relabel(p), relabel(q), backend)
        assert len(got) == len(want)
        assert set(got) == want

    check()


def test_count_equals_the_number_listed(backend):
    @SETTINGS
    @hypothesis.given(pair=pairs())
    def check(pair):
        p, q = pair
        listed = _listed(p, q, backend)
        assert count_conflicts(p, q, backend=backend) == len(listed)
        assert len(set(listed)) == len(listed)

    check()


def test_restriction_keeps_the_conflicts_inside_the_subset(backend):
    @SETTINGS
    @hypothesis.given(pair=pairs(), data=st.data())
    def check(pair, data):
        p, q = pair
        keep = data.draw(st.sets(st.integers(0, p.n_leaves - 1), min_size=1))
        sub_taxa = TaxonSet(p.taxa.name_of(x) for x in sorted(keep))
        p_s = build_tree(_restricted_shape(p, keep), sub_taxa)
        q_s = build_tree(_restricted_shape(q, keep), sub_taxa)
        inside = [triple for triple in _listed(p, q, backend)
                  if keep.issuperset(triple)]
        assert (_named(_listed(p_s, q_s, backend), sub_taxa)
                == _named(inside, p.taxa))

    check()


# The characters of each str kind, and of all of them mixed.
KINDS = {"ascii": st.characters(max_codepoint=0x7F),
         "latin1": st.characters(min_codepoint=0x80, max_codepoint=0xFF),
         "bmp": st.characters(min_codepoint=0x100, max_codepoint=0xFFFF),
         "astral": st.characters(min_codepoint=0x10000)}
KINDS["mixed"] = st.one_of(*KINDS.values())


@st.composite
def chunk_joins(draw):
    """Three label tables of n labels, all of one drawn kind, and a chunk
    of ids of any length below them, so its last triple may be partial."""
    chars = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    n = draw(st.integers(1, 12))
    tables = [draw(st.lists(st.text(chars, max_size=24), min_size=n,
                            max_size=n)) for _ in range(3)]
    ids = draw(st.lists(st.integers(0, n - 1), max_size=40))
    return ids, tables


@pytest.mark.skipif(cli._fast is None, reason="compiled module not built")
def test_a_line_sink_writes_what_the_python_join_writes():
    @hypothesis.settings(SETTINGS, max_examples=300)
    @hypothesis.given(case=chunk_joins(), data=st.data())
    def check(case, data):
        ids, tables = case
        written = []
        sink = cli._fast.LineSink(*cli._pack(*tables), written.append)
        want = cli._join(array("i", ids), *tables)
        sink(array("i", ids))
        assert written == [want]
        assert written[0].isascii() == want.isascii()
        if not ids:
            return
        # one id outside its table, at any position
        at = data.draw(st.integers(0, len(ids) - 1))
        n = len(tables[0])
        ids[at] = data.draw(st.one_of(st.integers(-2**31, -1),
                                      st.integers(n, 2**31 - 1)))
        for join in (sink, lambda chunk: cli._join(chunk, *tables)):
            with pytest.raises(IndexError):
                join(array("i", ids))

    check()

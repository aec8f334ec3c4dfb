"""Newick parsing, serialization, and the round-trip property.

Parser tests run each case through every parser in ``PARSERS``: the
regex parser ``_parse`` alone, and ``parse_newick``, which reads the text
in the compiled pass and falls back to the regex parser (when the
compiled module is built).  A differential property checks that the two
agree on every slot of the tree and the TaxonSet, or raise the same
error; the slots of a compiled parse are those derived on first read.
"""

import copy
import pickle

import pytest

from tripcon import (
    DuplicateLabelError,
    EmptyTreeError,
    NewickSyntaxError,
    NonBinaryError,
    SplitMix64,
    TaxonMismatchError,
    TaxonSet,
    TripconError,
    newick,
    parse_newick,
    serialize_newick,
)
from tripcon.generator import (
    GeneratorConfig,
    caterpillar_tree,
    random_binary_tree,
)
from tripcon.tree import _DERIVED

from conftest import (TREE_SLOTS, assert_slot_format, decorated_newick,
                      held_slots, parsed_taxa, tree_shape)

FAST = newick._fast
needs_fast = pytest.mark.skipif(FAST is None,
                                reason="compiled module not built")
PARSERS = [newick._parse] + ([parse_newick] if FAST is not None else [])


def outcome(parse, text, taxa=None):
    """What ``parse`` makes of ``text``: ("ok", every Tree slot, names,
    index), or ("error", type, message), the message with its position."""
    try:
        t, ts = parse(text, taxa)
    except TripconError as exc:
        return "error", type(exc), str(exc)
    assert t.taxa is ts and (taxa is None or ts is taxa)
    assert_slot_format(t)
    return "ok", tuple(getattr(t, s) for s in TREE_SLOTS), ts.names, ts.index


def test_fig1_parse():
    for parse in PARSERS:
        t, taxa = parse("((A,B),((C,D),E));")
        assert t.n_leaves == 5
        assert tree_shape(t) == (("A", "B"), (("C", "D"), "E"))


def test_single_leaf():
    for parse in PARSERS:
        t, taxa = parse("A;")
        assert t.n_nodes == 1
        assert taxa.names == ("A",)


def test_unbalanced_is_syntax_error():
    with pytest.raises(NewickSyntaxError):
        parse_newick("((A,B);")


def test_error_carries_position():
    with pytest.raises(NewickSyntaxError) as info:
        parse_newick("((A,B),C)")  # missing ';'
    assert info.value.position == 9


def test_multifurcation_rejected():
    with pytest.raises(NonBinaryError):
        parse_newick("(A,B,C);")


# Every error branch of the parser: (input, exception, position).  For
# NewickSyntaxError the position is the attribute; for NonBinaryError it
# is the opening position of the group the message names.
ERROR_TABLE = [
    ("(A,B)[x", NewickSyntaxError, 5),  # unterminated comment
    ("(A:1,[x", NewickSyntaxError, 5),
    ("(A:[x", NewickSyntaxError, 3),
    ("'a''", NewickSyntaxError, 0),  # unterminated quoted label
    ("(A,'b", NewickSyntaxError, 3),
    ("'';", NewickSyntaxError, 2),  # empty quoted label, after its quotes
    ("(A:,B);", NewickSyntaxError, 3),  # no branch length
    ("(A:1e,B);", NewickSyntaxError, 3),  # invalid branch length
    ("(A:1:2,B);", NewickSyntaxError, 4),  # second branch length
    ("((A,B)x,C);", NewickSyntaxError, 6),  # internal label
    ("(A,B)'x;", NewickSyntaxError, 5),
    ("(A,B);x", NewickSyntaxError, 6),  # trailing characters
    ("(A,B); [c] ;", NewickSyntaxError, 11),
    ("(,A);", NewickSyntaxError, 1),  # subtree wanted, ',' or ')' found
    ("(A,);", NewickSyntaxError, 3),
    ("();", NewickSyntaxError, 1),
    ("(:1,A);", NewickSyntaxError, 1),  # label wanted, other found
    ("(A#,B);", NewickSyntaxError, 2),  # ',' wanted
    ("(A,B", NewickSyntaxError, 4),  # ')' wanted
    ("((A,B),C)", NewickSyntaxError, 9),  # ';' wanted
    ("((A,B),", NewickSyntaxError, 7),  # end of input, subtree wanted
    ("(A,B,C);", NonBinaryError, 0),  # more than two children
    ("(A);", NonBinaryError, 0),  # one child
    ("((A,B));", NonBinaryError, 0),
    ("(A,(B));", NonBinaryError, 3),
]


@pytest.mark.parametrize("text, error, position", ERROR_TABLE)
def test_error_table(text, error, position):
    if FAST is not None:
        assert FAST.parse_newick(text, None) is None
    for parse in PARSERS:
        with pytest.raises(error) as info:
            parse(text)
        if error is NewickSyntaxError:
            assert info.value.position == position
        else:
            assert f"opened at position {position}" in str(info.value)


def test_internal_label_rejected():
    with pytest.raises(NewickSyntaxError):
        parse_newick("((A,B)label,C);")


def test_duplicate_label():
    with pytest.raises(DuplicateLabelError):
        parse_newick("(A,A);")


def test_empty_input():
    with pytest.raises(EmptyTreeError):
        parse_newick("   ")
    with pytest.raises(EmptyTreeError):
        parse_newick(";")


def test_branch_lengths_dropped():
    for parse in PARSERS:
        t, taxa = parse("((A:0.5,B:1e-3):2,(C:3,D:4):5);")
        assert tree_shape(t) == (("A", "B"), ("C", "D"))
        t, taxa = parse("((A: 1E5,B:[c].5):-0,(C:+1.,D:1e-999):9e999);")
        assert tree_shape(t) == (("A", "B"), ("C", "D"))


def test_comments_and_whitespace():
    for parse in PARSERS:
        t, _ = parse(" ( (A , B) [note] , C ) ;\n")
        assert tree_shape(t) == (("A", "B"), "C")
        # the ASCII characters that \s matches, and a comment with any text
        t, _ = parse("\x1c(\x1d(A\x1e,\x1fB)\v,\f[ü(,)]C\r);\t")
        assert tree_shape(t) == (("A", "B"), "C")


def test_quoted_labels():
    for parse in PARSERS:
        t, taxa = parse("('sp. one','don''t');")
        assert set(taxa.names) == {"sp. one", "don't"}
        again, _ = parse(serialize_newick(t))
        assert set(again.taxa.names) == {"sp. one", "don't"}
        t, taxa = parse("(('''','é [x]'),'a''''b');")
        assert taxa.names == ("'", "é [x]", "a''b")


def test_second_parse_shares_interner():
    for parse in PARSERS:
        p, taxa = parse("((A,B),C);")
        q, taxa2 = parse("(B,(A,C));", taxa)
        assert taxa2 is taxa
        assert q.taxa is taxa
        with pytest.raises(TaxonMismatchError):
            parse("((A,B),D);", taxa)
        with pytest.raises(TaxonMismatchError):
            parse("((A,B),(C,D));", taxa)
        with pytest.raises(TaxonMismatchError):
            parse("(A,B);", taxa)
        with pytest.raises(DuplicateLabelError):
            parse("((A,B),A);", taxa)


def test_serialize_examples():
    t, taxa = parse_newick("A;")
    assert serialize_newick(t) == "A;"
    t, taxa = parse_newick("(A,B);")
    assert serialize_newick(t) == "(A,B);"
    t, _ = parse_newick("((A,B),((C,D),E));")
    assert serialize_newick(t) == "((A,B),((C,D),E));"


def test_roundtrip_random_trees():
    rng = SplitMix64(0xF00D)
    for _ in range(100):
        n = 1 + rng.randrange(40)
        t = random_binary_tree(GeneratorConfig(n=n, seed=rng.next_u64()))
        text = serialize_newick(t)
        back, _ = parse_newick(text)
        assert tree_shape(back, taxa=back.taxa) == tree_shape(t)
        assert serialize_newick(back) == text


def test_deep_caterpillar_no_recursion_limit():
    t = caterpillar_tree(5000)
    text = serialize_newick(t)
    for parse in PARSERS:
        back, _ = parse(text)
        assert back.n_leaves == 5000


@needs_fast
def test_compiled_parse_of_a_deep_caterpillar():
    # 10^5 open groups fill the compiled pass's group stack, sized from
    # the text's '(' count; the slots derived on first read equal the
    # regex parser's
    n = 100_000
    text = serialize_newick(caterpillar_tree(n))
    assert FAST.parse_newick(text, None) is not None
    back, taxa = parse_newick(text)
    assert held_slots(back) == set()
    want, want_taxa = newick._parse(text)
    assert taxa.names == want_taxa.names
    for slot in TREE_SLOTS:
        assert getattr(back, slot) == getattr(want, slot), slot
    assert max(back.depth) == n - 1


@needs_fast
def test_a_parsed_taxon_set_derives_names_and_index_on_first_read():
    text = serialize_newick(random_binary_tree(GeneratorConfig(n=50, seed=3)))
    _, taxa = parse_newick(text)
    _, want = newick._parse(text)
    assert len(taxa) == 50
    assert held_slots(taxa, ("names", "index")) == set()
    assert taxa.index == want.index
    assert held_slots(taxa, ("names", "index")) == {"names", "index"}
    assert taxa.names == want.names
    assert taxa == want and hash(taxa) == hash(want)
    assert list(taxa) == list(want) and repr(taxa) == repr(want)
    assert taxa.id_of(want.names[7]) == 7 and taxa.name_of(7) == want.names[7]
    with pytest.raises(AttributeError, match="no_such_slot"):
        taxa.no_such_slot
    # a copy, which cannot take the label table, is built from names
    t, taxa = parse_newick(text)
    for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert copied.taxa == want and copied.taxon == t.taxon


@needs_fast
def test_labels_match_across_str_kinds_and_escapes():
    # a label set, with b'c written 'b''c', in texts of every str kind
    # (the comments set it) and in a caterpillar text that quotes every
    # label: every text parses in the compiled pass against the set of
    # every other, and b''c, which is not b'c, is unknown to each; b'd,
    # as long as b'c, is compared to it character by character in a
    # build where every label hash collides
    for names in (["a", "b'c", "b'd", "d"], ["a", "b'c", "b'd", "éā"]):
        t = random_binary_tree(GeneratorConfig(n=4, seed=2), TaxonSet(names))
        base = serialize_newick(t)
        assert "'b''c'" in base
        texts = [base + c for c in ("", "[é]", "[ā]", "[\U0001f332]")]
        sets = [parse_newick(text)[1] for text in texts] + [parsed_taxa(names)]
        for text in texts:
            unknown = text.replace("'b''c'", "'b''''c'")
            for taxa in sets:
                want = outcome(newick._parse, text, taxa)
                assert outcome(parse_newick, text, taxa) == want
                assert FAST.parse_newick(text, taxa._table) is not None
                assert FAST.parse_newick(unknown, taxa._table) is None
                with pytest.raises(TaxonMismatchError, match="b''c"):
                    parse_newick(unknown, taxa)


@needs_fast
def test_a_set_built_from_names_is_parsed_by_the_regex_parser():
    # only the compiled pass makes a label table, so a text parsed
    # against a set built from names goes to newick._parse: the same
    # tree, with every slot derived at once, or the same exception; and
    # the set still holds no table
    p = random_binary_tree(GeneratorConfig(n=100, seed=8))
    q = random_binary_tree(GeneratorConfig(n=100, seed=9), p.taxa)
    taxa = p.taxa
    text = serialize_newick(q)
    short = serialize_newick(random_binary_tree(GeneratorConfig(n=99, seed=9)))
    for case, kind in ((text, "ok"), (text[:-1], "error"), (short, "error")):
        want = outcome(newick._parse, case, taxa)
        assert want[0] == kind and outcome(parse_newick, case, taxa) == want
    t = parse_newick(text, taxa)[0]
    assert t.taxon == q.taxon and held_slots(t) == set(_DERIVED)
    assert taxa._table is None


# Filler, comments, lengths, quoted labels with quotes and non-ASCII
# text, and a bare label with every bare punctuation character.
MIXED = ("[head] ((A:1e5,'b''c ü'):.5, ( 'é d' [x, y]:2 ,"
         "\x1cE_1.x|-) ) ;\n")


@needs_fast
def test_every_prefix_fails_alike():
    assert outcome(parse_newick, MIXED)[0] == "ok"
    for k in range(len(MIXED) + 1):
        assert (outcome(parse_newick, MIXED[:k])
                == outcome(newick._parse, MIXED[:k])), MIXED[:k]


def test_roundtrip_arbitrary_labels():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        names=st.lists(st.text(min_size=1, max_size=8), min_size=1,
                       max_size=12, unique=True),
        seed=st.integers(0, 2**64 - 1),
    )
    def check(names, seed):
        taxa = TaxonSet(names)
        t = random_binary_tree(GeneratorConfig(n=len(names), seed=seed), taxa)
        text = serialize_newick(t)
        for parse in PARSERS:
            back, back_taxa = parse(text)
            assert sorted(back_taxa.names) == sorted(names)
            assert tree_shape(back) == tree_shape(t)

    check()


@needs_fast
def test_compiled_and_regex_parsers_agree():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    prefix = st.text(st.sampled_from(list("aZ_|'é (")), max_size=3)
    # "\u0663" is an Arabic-Indic digit, which \d matches and float() reads
    noise = st.sampled_from(list("(),;:'[]xé")
                            + [",Z", "(Z)", "[c", ":1e", ":+.", ":\u0663",
                               ":e5"])
    unicode_space = st.sampled_from(["\xa0", "\x85", "\u2003", "\u3000"])

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(n=st.integers(1, 40), seed=st.integers(0, 2**64 - 1),
                      data=st.data())
    def check(n, seed, data):
        # a binary tree with distinct labels, decorated, then at most one
        # edit: 3 and 4 insert noise, 5 deletes a character, 6 repeats a
        # label and 7 inserts a space outside ASCII
        t = random_binary_tree(GeneratorConfig(n=n, seed=seed))
        edit = data.draw(st.integers(0, 7))
        names = [data.draw(prefix) + str(i) for i in range(n)]
        if edit == 6 and n > 1:
            names[1] = names[0]
        text = decorated_newick(t, seed, names)
        if edit in (3, 4, 5, 7):
            at = data.draw(st.integers(0, len(text)))
            new = {3: noise, 4: noise, 7: unicode_space}.get(edit)
            text = (text[:at] + ("" if new is None else data.draw(new))
                    + text[at + (edit == 5):])

        # the labels as written, in label order, sorted, one short and one
        # extra: each built from names, which the regex parser reads, and
        # parsed from a caterpillar text that quotes every label, whose
        # table the compiled pass probes
        names = list(dict.fromkeys(names))
        label_sets = (names, sorted(names), names[:-1] or ["z"],
                      names + ["zz"])
        for taxa in (None, *map(TaxonSet, label_sets),
                     *map(parsed_taxa, label_sets)):
            want = outcome(newick._parse, text, taxa)
            assert outcome(parse_newick, text, taxa) == want
            if taxa is not None and taxa._table is None:
                continue  # built from names
            raw = FAST.parse_newick(text,
                                    None if taxa is None else taxa._table)
            if want[0] == "error":
                assert raw is None
            elif text.isascii():
                assert raw is not None
            if raw is not None:
                # so the slots compared above were derived on first read
                assert held_slots(parse_newick(text, taxa)[0]) == set()

    check()

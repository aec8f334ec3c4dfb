"""Newick parsing, serialization, and the round-trip property."""

import pytest

from tripcon import (
    DuplicateLabelError,
    EmptyTreeError,
    NewickSyntaxError,
    NonBinaryError,
    SplitMix64,
    TaxonMismatchError,
    TaxonSet,
    parse_newick,
    serialize_newick,
)
from tripcon.generator import GeneratorConfig, random_binary_tree

from conftest import tree_shape


def test_fig1_parse():
    t, taxa = parse_newick("((A,B),((C,D),E));")
    assert t.n_leaves == 5
    assert tree_shape(t) == (("A", "B"), (("C", "D"), "E"))


def test_single_leaf():
    t, taxa = parse_newick("A;")
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
    with pytest.raises(error) as info:
        parse_newick(text)
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
    t, taxa = parse_newick("((A:0.5,B:1e-3):2,(C:3,D:4):5);")
    assert tree_shape(t) == (("A", "B"), ("C", "D"))


def test_comments_and_whitespace():
    t, _ = parse_newick(" ( (A , B) [note] , C ) ;\n")
    assert tree_shape(t) == (("A", "B"), "C")


def test_quoted_labels():
    t, taxa = parse_newick("('sp. one','don''t');")
    assert set(taxa.names) == {"sp. one", "don't"}
    again, _ = parse_newick(serialize_newick(t))
    assert set(again.taxa.names) == {"sp. one", "don't"}


def test_second_parse_shares_interner():
    p, taxa = parse_newick("((A,B),C);")
    q, taxa2 = parse_newick("(B,(A,C));", taxa)
    assert taxa2 is taxa
    assert q.taxa is taxa
    with pytest.raises(TaxonMismatchError):
        parse_newick("((A,B),D);", taxa)
    with pytest.raises(TaxonMismatchError):
        parse_newick("((A,B),(C,D));", taxa)


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
    from tripcon.generator import caterpillar_tree

    t = caterpillar_tree(5000)
    text = serialize_newick(t)
    back, _ = parse_newick(text)
    assert back.n_leaves == 5000


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
        back, back_taxa = parse_newick(serialize_newick(t))
        assert sorted(back_taxa.names) == sorted(names)
        assert tree_shape(back) == tree_shape(t)

    check()

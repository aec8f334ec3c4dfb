"""Parsing and serialization for the Newick subset used by this package.

Grammar
-------
    tree    := subtree ';'
    subtree := label [length] | '(' subtree ',' subtree ')' [length]

Tokens
------
The text is read as one run of tokens, each after optional filler:
whitespace and bracketed comments ``[...]``, which are dropped.

    punct    ( ) , ;
    bare     a run of [A-Za-z0-9_.|-]                      (a label)
    quoted   '...' with '' for one quote; not empty        (a label)
    length   ':' filler number, where number is a run of decimal digits
             and + - . e E that float() accepts; the value is dropped
    end      the end of the text
    bad      any other character, which is always an error

Every internal node has exactly two children: a group with one child,
such as ``(A)``, or with three or more, such as ``(A,B,C)``, raises
NonBinaryError.  Internal node labels are rejected.  The parser and
serializer are iterative, so arbitrarily deep (caterpillar) trees are
fine.

Two parsers
-----------
With the compiled module loaded, :func:`parse_newick` reads the text in
one pass of ``_fast.parse_newick``, which returns only the tree's taxon
column; the tree derives its other slots from it on their first read
(see :mod:`tripcon.tree`), so a compiled count derives none.  The pass
keeps a first tree's labels in a C table of spans of its text, a
``_fast.LabelTable``, which the new TaxonSet holds, and looks up a
second tree's labels in that table by their code points.  The set
derives its names and index on their first read, so a compiled count
makes no label str.  A set built from names gets its table on its
first use as a parse index.  That pass gives up, and does nothing else,
on any error, on any character outside ASCII that is not in a quoted
label or a comment, since the regex classes for whitespace and digits
match Unicode, and on a label whose probe passes the table's fixed
bound, which only a crafted label set reaches: the regex parser's dict,
with Python's seeded hash, keeps parsing linear.  The regex loop of
:func:`_parse` then raises the error with its position, or parses the
text and finalizes the tree at once; it is also the only parser when
the compiled module is absent.
"""

import re

from .errors import (
    DuplicateLabelError,
    EmptyTreeError,
    NewickSyntaxError,
    NonBinaryError,
    TaxonMismatchError,
)
from ._kernels import _fast
from .tree import TaxonSet, Tree

_FILLER = r"(?:\s|\[[^\]]*\])*"
_BARE = r"[A-Za-z0-9_.|-]+"
# A quoted label ends at a quote that no other quote follows, so that
# "'a''" cannot backtrack into the label a.  An unterminated quote or
# comment fails its own pattern and is left to `bad`.
_TOKEN = re.compile(
    _FILLER + r"""(?:
      (?P<open>\() | (?P<close>\)) | (?P<comma>,) | (?P<semi>;)
    | (?P<bare>""" + _BARE + r""")
    | (?P<quoted>'(?P<text>[^']*(?:''[^']*)*)'(?!'))
    | (?P<length>:""" + _FILLER + r"""(?P<number>[\d+\-.eE]*))
    | (?P<end>\Z)
    | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)
_BARE_LABEL = re.compile(_BARE)


def _check_length(text, m):
    number = m["number"]
    pos = m.start("number")
    if not number:
        if text.startswith("[", pos):
            raise NewickSyntaxError("unterminated comment", pos)
        raise NewickSyntaxError("expected a branch length after ':'", pos)
    try:
        float(number)
    except ValueError:
        raise NewickSyntaxError(f"invalid branch length {number!r}", pos) from None


def _unexpected(m, last, groups, prev):
    """Raise the error for token ``m`` after a token of kind ``prev``,
    with ``last`` and ``groups`` as in :func:`parse_newick`."""
    kind = m.lastgroup
    pos = m.start(kind)
    tok = m[kind]
    if tok == "[":
        raise NewickSyntaxError("unterminated comment", pos)
    if last < 0:  # a subtree is wanted
        if prev is None and kind in ("semi", "end"):
            raise EmptyTreeError("no tree in input")
        if kind in ("comma", "close"):
            message = f"expected a subtree, found {tok!r}"
        elif kind == "end":
            message = "unexpected end of input"
        elif kind == "quoted":
            message, pos = "empty quoted label", m.end()
        elif tok == "'":
            message = "unterminated quoted label"
        else:
            message = f"expected a label, found {tok[0]!r}"
    elif prev == "semi":
        message = "trailing characters after ';'"
    elif prev == "close" and (kind in ("bare", "quoted") or tok == "'"):
        message = "internal node labels are not supported"
    elif not groups:
        message = "expected ';' at the end of the tree"
    elif groups[-1][1] < 0:  # ',' is wanted
        if kind == "close":
            raise NonBinaryError(
                f"only one child in the group opened at position {groups[-1][0]}"
            )
        message = "expected ',' (every internal node has two children)"
    elif kind == "comma":
        raise NonBinaryError(
            f"more than two children in the group opened at "
            f"position {groups[-1][0]}"
        )
    else:
        message = "expected ')'"
    raise NewickSyntaxError(message, pos)


def parse_newick(text, taxa=None):
    """Parse one Newick statement into ``(Tree, TaxonSet)``.

    With ``taxa`` given (the set of a previously parsed tree, or one
    built from names), the new tree must use exactly the same label set;
    any unknown or missing label raises TaxonMismatchError.  Duplicate
    labels raise DuplicateLabelError; more (or fewer) than two children
    raise NonBinaryError; structural problems raise NewickSyntaxError
    with the offending position.
    """
    if _fast is not None:
        table = None if taxa is None else taxa._table
        if taxa is not None and table is None:  # a set built from names
            table = taxa._table = _fast.LabelTable(taxa.names)
        out = _fast.parse_newick(text, table)
        if out is not None:
            taxon, table = out
            if taxa is None:
                taxa = TaxonSet._of(table)
            return Tree._of(taxon, taxa), taxa
    return _parse(text, taxa)


def _parse(text, taxa=None):
    """:func:`parse_newick` by the regex tokens: the reference parser, and
    the one that reports every error."""
    taxon, labels = [], []
    groups = []  # [opening position, left child or -1] per open '('
    last = -1  # the subtree just completed, or -1 while one is wanted
    prev = None  # kind of the previous token
    tokens = _TOKEN.finditer(text)
    for m in tokens:
        kind = m.lastgroup
        if last < 0:
            if kind == "open":
                groups.append([m.start(kind), -1])
            elif kind == "bare" or (kind == "quoted" and m["text"]):
                label = m[kind] if kind == "bare" else m["text"].replace("''", "'")
                last = len(taxon)
                taxon.append(len(labels))
                labels.append((label, m.start(kind)))
            else:
                _unexpected(m, last, groups, prev)
        elif kind == "comma" and groups and groups[-1][1] < 0:
            groups[-1][1] = last
            last = -1
        elif kind == "close" and groups and groups[-1][1] >= 0:
            groups.pop()
            last = len(taxon)
            taxon.append(-1)
        elif kind == "length" and prev in ("bare", "quoted", "close"):
            _check_length(text, m)
        elif kind == "semi" and not groups:
            break
        else:
            _unexpected(m, last, groups, prev)
        prev = kind
    m = next(tokens)
    if m.lastgroup != "end":
        _unexpected(m, last, groups, "semi")

    seen = {}
    for label, pos in labels:
        if label in seen:
            raise DuplicateLabelError(
                f"duplicate leaf label {label!r} (positions {seen[label]} and {pos})"
            )
        seen[label] = pos

    if taxa is None:
        taxa = TaxonSet(label for label, _ in labels)
        return Tree._from_structure(taxon, taxa), taxa

    index = taxa.index
    if len(labels) != len(taxa):
        raise TaxonMismatchError(
            f"tree has {len(labels)} taxa, expected {len(taxa)}"
        )
    for v in range(len(taxon)):
        if taxon[v] >= 0:
            label, pos = labels[taxon[v]]
            if label not in index:
                raise TaxonMismatchError(
                    f"label {label!r} (position {pos}) not in the shared taxon set"
                )
            taxon[v] = index[label]
    return Tree._from_structure(taxon, taxa), taxa


def _format_label(name):
    if _BARE_LABEL.fullmatch(name):
        return name
    return "'" + name.replace("'", "''") + "'"


def serialize_newick(t, taxa=None):
    """Serialize ``t`` back to Newick, children in stored order.

    Round-trip contract: ``parse_newick(serialize_newick(t))`` is
    label-isomorphic to ``t``.
    """
    taxa = taxa if taxa is not None else t.taxa
    out = []
    stack = [("n", t.root)]
    while stack:
        kind, x = stack.pop()
        if kind == "t":
            out.append(x)
            continue
        v = x
        if t.left[v] < 0:
            out.append(_format_label(taxa.name_of(t.taxon[v])))
        else:
            stack.append(("t", ")"))
            stack.append(("n", t.right[v]))
            stack.append(("t", ","))
            stack.append(("n", t.left[v]))
            out.append("(")
    out.append(";")
    return "".join(out)

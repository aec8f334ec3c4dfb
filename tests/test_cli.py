"""CLI: output formats, exit codes, stream separation, determinism."""

import json
import os
import shlex
import subprocess
import sys
import time
from array import array

import pytest

import tripcon

from tripcon import (
    SplitMix64,
    TaxonSet,
    Tree,
    enumerate_bruteforce,
    enumerate_conflicts,
    parse_newick,
    serialize_newick,
)
from tripcon import cli
from tripcon._kernels import available_backends
from tripcon.generator import GeneratorConfig, generate_pair

from conftest import (BAD_OFFSETS, TWO_TAXA, env_without_kernel, held_slots,
                      join_cases)


def _line_sink_join(ids, *tables):
    """The text that a ``_fast.LineSink`` over the packed tables writes
    for one chunk called from Python."""
    written = []
    cli._fast.LineSink(*cli._pack(*tables), written.append)(ids)
    return written[0]


# The chunk joins, both called as ``join(ids, lead, mid, end)``: the
# reference ``_join``, and the compiled twin, the sink that the chunk
# writer returns whenever the compiled module is loaded.
JOINS = [pytest.param(cli._join, id="python")]
if cli._fast is not None:
    JOINS.append(pytest.param(_line_sink_join, id="compiled"))
needs_fast = pytest.mark.skipif(cli._fast is None,
                                reason="compiled module not built")

FIG1_P = "((A,B),((C,D),E));"
FIG1_Q = "((A,B),((D,E),C));"


@pytest.fixture
def fig1_files(tmp_path):
    p = tmp_path / "P.nwk"
    q = tmp_path / "Q.nwk"
    p.write_text(FIG1_P)
    q.write_text(FIG1_Q)
    return str(p), str(q)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_conflicts_fig1(fig1_files, capsys):
    code, out, err = run_cli(capsys, "conflicts", *fig1_files)
    assert code == 0
    assert out == "C\tD\tE\n"
    assert err == ""


def test_conflicts_stats_on_stderr(fig1_files, capsys):
    code, out, err = run_cli(capsys, "conflicts", *fig1_files, "--stats")
    assert code == 0
    assert out == "C\tD\tE\n"
    assert "n=5" in err and "d=1" in err
    assert "frames_opened=" in err and "nodes_touched=" in err


def test_conflicts_json(fig1_files, capsys):
    code, out, _ = run_cli(capsys, "conflicts", *fig1_files, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["n", "conflicts", "d", "stats"]
    assert doc["n"] == 5 and doc["d"] == 1
    assert doc["conflicts"] == [["C", "D", "E"]]
    assert set(doc["stats"]) == {"frames_opened", "nodes_touched", "backend"}
    # identical trees: no chunk reaches the writer
    p, _ = fig1_files
    for sort in ([], ["--sorted"]):
        code, out, _ = run_cli(capsys, "conflicts", p, p, "--format", "json",
                               *sort)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["n", "conflicts", "d", "stats"]
        assert (doc["n"], doc["conflicts"], doc["d"]) == (5, [], 0)


def test_count(fig1_files, capsys):
    code, out, _ = run_cli(capsys, "count", *fig1_files)
    assert code == 0 and out == "1\n"
    p, _ = fig1_files
    code, out, _ = run_cli(capsys, "count", p, p)
    assert code == 0 and out == "0\n"


def test_count_equals_conflict_line_count(tmp_path, capsys):
    code, out1, _ = run_cli(capsys, "gen", "--n", "30", "--seed", "11")
    code, out2, _ = run_cli(capsys, "gen", "--n", "30", "--seed", "11",
                            "--k", "4")
    p = tmp_path / "a.nwk"
    q = tmp_path / "b.nwk"
    p.write_text(out1)
    q.write_text(out2)
    _, lines, _ = run_cli(capsys, "conflicts", str(p), str(q))
    _, count, _ = run_cli(capsys, "count", str(p), str(q))
    assert int(count) == len(lines.splitlines())


def test_sorted_output_stable(fig1_files, capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "gen", "--n", "20", "--seed", "3")
    code, out2, _ = run_cli(capsys, "gen", "--n", "20", "--seed", "3", "--k", "5")
    p = tmp_path / "a.nwk"
    q = tmp_path / "b.nwk"
    p.write_text(out1)
    q.write_text(out2)
    runs = [
        run_cli(capsys, "conflicts", str(p), str(q), "--sorted")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert lines == sorted(lines)


# Labels whose sorted order is not the order the parser meets them in:
# names that sort apart from their numbering, names that need quoting,
# and non-ASCII names.
ODD_LABELS = ["t10", "t9", "T1", "a b", "x(y)", "it's", "b:c", "[x]", "z,1",
              "é", "Ω", "ß", "日本", "ñu", "Ä", "a", "aa", "Ab", "_", "'"]


def test_sorted_chunks_are_fresh_int_arrays(tmp_path, capsys, monkeypatch,
                                            backend):
    # --sorted hands the one chunk writer the chunk type of the kernels
    p, q = generate_pair(GeneratorConfig(n=60, seed=4, k=30))
    paths = []
    for tag, t in (("p", p), ("q", q)):
        path = tmp_path / f"{tag}.nwk"
        path.write_text(serialize_newick(t))
        paths.append(str(path))
    chunks = []
    writer = cli._chunk_writer

    def recording_writer(*args):
        sink = writer(*args)

        def record(ids):
            chunks.append(ids)
            sink(ids)

        return record

    monkeypatch.setattr(cli, "_chunk_writer", recording_writer)
    code, out, _ = run_cli(capsys, "--backend", backend, "conflicts", *paths,
                           "--sorted")
    assert code == 0
    assert len(chunks) >= 2
    assert sum(map(len, chunks)) == 3 * out.count("\n")
    assert all(type(chunk) is array and chunk.typecode == "i"
               for chunk in chunks)
    assert len({id(chunk) for chunk in chunks}) == len(chunks)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_conflicts_lines_in_label_order(tmp_path, capsys, seed):
    rng = SplitMix64(seed)
    labels = list(ODD_LABELS)
    for i in range(len(labels) - 1, 0, -1):
        j = rng.randrange(i + 1)
        labels[i], labels[j] = labels[j], labels[i]
    n = len(labels)
    p, q = generate_pair(GeneratorConfig(n=n, seed=rng.next_u64(), k=4))
    names = TaxonSet(labels)
    paths = []
    for tag, t in (("p", p), ("q", q)):
        path = tmp_path / f"{tag}.nwk"
        path.write_text(serialize_newick(t, names), encoding="utf-8")
        paths.append(str(path))
    pp, taxa = parse_newick((tmp_path / "p.nwk").read_text(encoding="utf-8"))
    qq, _ = parse_newick((tmp_path / "q.nwk").read_text(encoding="utf-8"), taxa)
    assert list(taxa.names) != sorted(taxa.names)
    expected = sorted(sorted(taxa.name_of(t) for t in trip)
                      for trip in enumerate_bruteforce(pp, qq))
    assert expected

    code, out, _ = run_cli(capsys, "conflicts", *paths)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert all(row == sorted(row) for row in rows)
    assert sorted(rows) == expected

    code, out, _ = run_cli(capsys, "conflicts", *paths, "--sorted")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows == expected
    assert all(a < b for a, b in zip(rows, rows[1:]))

    code, out, _ = run_cli(capsys, "conflicts", *paths, "--format", "json")
    assert code == 0
    rows = json.loads(out)["conflicts"]
    assert all(row == sorted(row) for row in rows)
    assert sorted(rows) == expected

    code, out, _ = run_cli(capsys, "conflicts", *paths, "--format", "json",
                           "--sorted")
    assert code == 0
    assert json.loads(out)["conflicts"] == expected


@needs_fast
def test_compiled_count_and_conflicts_derive_no_tree_slot(tmp_path, capsys,
                                                          monkeypatch):
    # the compiled kernel takes each tree's taxon column only, and
    # conflicts renumbers P's column instead of parsing P a second time
    paths = _write_pair(tmp_path, 300, 5, 4)
    want = {cmd: run_cli(capsys, "--backend", "pure", cmd, *paths)
            for cmd in ("count", "conflicts")}

    def refuse(*args, **kwargs):
        raise AssertionError("a tree slot was derived")

    parsed = []

    def parse(*args):
        parsed.append(args)
        return parse_newick(*args)

    monkeypatch.setattr(Tree, "_from_structure", classmethod(refuse))
    monkeypatch.setattr(cli, "parse_newick", parse)
    for cmd, (code, out, err) in want.items():
        parsed.clear()
        assert code == 0 and out and not err
        assert run_cli(capsys, "--backend", "fast", cmd, *paths) == want[cmd]
        assert len(parsed) == 2


@needs_fast
def test_compiled_count_builds_no_taxon_names(tmp_path, capsys, monkeypatch):
    # the labels stay in the compiled pass's table: count never builds a
    # TaxonSet's names or index
    paths = _write_pair(tmp_path, 300, 5, 4)
    options = ((), ("--stats", "--format", "json"))
    want = [run_cli(capsys, "--backend", "pure", "count", *paths, *opts)
            for opts in options]

    def refuse(self, name):
        raise AssertionError(f"TaxonSet.{name} was built")

    sets = []

    def parse(*args):
        t, taxa = parse_newick(*args)
        sets.append(taxa)
        return t, taxa

    monkeypatch.setattr(TaxonSet, "__getattr__", refuse)
    monkeypatch.setattr(cli, "parse_newick", parse)
    for opts, (code, out, err) in zip(options, want):
        assert code == 0 and out
        assert run_cli(capsys, "--backend", "fast", "count", *paths,
                       *opts) == (code, out, err)
    assert len(sets) == 4
    for taxa in sets:
        assert held_slots(taxa, ("names", "index")) == set()


@pytest.mark.parametrize("join", JOINS)
def test_chunk_joins_agree(join):
    # each id is one piece, picked from lead, mid, end in turn; labels of
    # every str kind
    for ids, mid, end, _, sep in join_cases():
        lead = [sep + x for x in mid]
        want = "".join((lead, mid, end)[i % 3][x] for i, x in enumerate(ids))
        got = join(array("i", ids), lead, mid, end)
        # equality does not see a str of ASCII flagged as Latin-1
        assert got == want and got.isascii() == want.isascii()


@pytest.mark.parametrize("join", JOINS)
def test_chunk_joins_reject_ids_outside_the_table(join):
    names = ["a", "\u00e9", "\U0001f332"]
    mid = [x + "\t" for x in names]
    end = [x + "\n" for x in names]
    for at in range(6):
        for bad in (-1, 3, -2 ** 31, 2 ** 31 - 1):
            ids = [0, 1, 2, 2, 1, 0]
            ids[at] = bad
            with pytest.raises(IndexError):
                join(array("i", ids), mid, mid, end)


@pytest.mark.parametrize("compiled", [False, True])
def test_chunk_writer_frames_first_and_later_chunks(compiled, monkeypatch):
    # the first chunk starts with ``first + mid[a]`` and every other
    # triple with ``sep + mid[a]``, whichever join builds the lines
    if compiled and cli._fast is None:
        pytest.skip("compiled module not built")
    if not compiled:
        monkeypatch.setattr(cli, "_fast", None)
    for ids, mid, end, first, sep in join_cases():
        lead = [sep + x for x in mid]
        pieces = [(lead, mid, end)[i % 3][x] for i, x in enumerate(ids)]
        later = "".join(pieces)
        pieces[0] = first + mid[ids[0]]
        written = []
        sink = cli._chunk_writer(written.append, mid, end, first, sep)
        sink(array("i", ids))
        sink(array("i", ids))
        assert written == ["".join(pieces), later]
        assert [x.isascii() for x in written] == [later.isascii()] * 2


@needs_fast
def test_line_sink_checks_its_tables_when_built():
    sink = cli._fast.LineSink
    text, offsets = cli._pack(*TWO_TAXA)
    written = []
    ids = array("i", [0, 1, 1])
    sink(text, offsets, written.append)(ids)
    sink(text, offsets, written.append)(array("i"))
    assert written == ["a\tb\t\U0001f332\n", ""]
    # offsets only as an array('q'), text only as str, write callable
    for bad in (list(offsets), array("l", offsets), array("i", offsets),
                bytes(offsets)):
        with pytest.raises(TypeError):
            sink(text, bad, written.append)
    with pytest.raises(TypeError):
        sink(text.encode(), offsets, written.append)
    with pytest.raises(TypeError):
        sink(text, offsets, None)
    # the first chunk's framing is the chunk writer's, not the sink's
    for extra in (("[",), ("[", ", ")):
        with pytest.raises(TypeError):
            sink(text, offsets, written.append, *extra)
    with pytest.raises(TypeError):
        sink(text, offsets, written.append, first="[")
    # 3n + 1 offsets, n the table length
    for bad in (offsets[:-1], offsets[:-2], offsets + array("q", [7]),
                array("q")):
        with pytest.raises(ValueError, match="3n"):
            sink(text, bad, written.append)
    # a piece that runs backwards, starts before text or ends past it
    for j, value, _ in BAD_OFFSETS:
        bad = array("q", offsets)
        bad[j] = value
        with pytest.raises(ValueError, match="pieces"):
            sink(text, bad, written.append)
    # a built sink holds its offsets, which then cannot be resized
    held = array("q", offsets)
    built = sink(text, held, written.append)
    with pytest.raises(BufferError):
        held.append(12)
    # chunks only as an array('i'), each id inside its table
    for bad in ([0, 1, 1], (0, 1, 1), array("l", ids), array("I", ids),
                bytes(ids)):
        with pytest.raises(TypeError):
            built(bad)
    for at in range(6):
        for value in (-1, 2, -2 ** 31, 2 ** 31 - 1):
            chunk = array("i", [0, 1, 1, 1, 1, 0])
            chunk[at] = value
            with pytest.raises(IndexError):
                built(chunk)
    del built
    held.append(12)
    # as the sink of a run whose taxa its tables do not cover, in either
    # kernel
    p, q = generate_pair(GeneratorConfig(n=12, seed=2, k=6))
    for backend in available_backends():
        with pytest.raises(IndexError):
            enumerate_conflicts(p, q, sink=sink(text, offsets, written.append),
                                backend=backend)
    assert len(written) == 2


def _label_sets(n):
    """n labels of each str kind, of all kinds mixed, and ASCII but for
    the last one; the test below hangs the last label of each set off the
    root of both trees, so that it is in no conflict."""
    sets = {kind: [f"{char}{i}" for i in range(n)] for kind, char in
            (("ascii", "t"), ("latin1", "\u00e9"), ("bmp", "\u65e5"),
             ("astral", "\U0001f332"))}
    sets["mixed"] = [("t", "\u00e9", "\u65e5", "\U0001f332")[i % 4] + str(i)
                     for i in range(n)]
    sets["outgroup"] = sets["ascii"][:-1] + ["\u00e9"]
    return sets


@needs_fast
@pytest.mark.parametrize("kind", ["ascii", "latin1", "bmp", "astral", "mixed",
                                  "outgroup"])
def test_kernel_fed_and_called_line_sinks_write_the_same(tmp_path, capsys,
                                                         monkeypatch, kind):
    # the compiled kernel hands the sink its buffer, the pure kernel and
    # --sorted call it with arrays, and without the compiled module the
    # Python join writes: the same list of strings, over chunks of 4,096
    # triples, so that the first chunk and every later one are both seen
    n = 60
    labels = _label_sets(n)[kind]
    p, q = generate_pair(GeneratorConfig(n=n - 1, seed=8, k=40))
    names = TaxonSet(labels[:-1])
    outgroup = "'" + labels[-1] + "'"
    paths = []
    for tag, t in (("p", p), ("q", q)):
        path = tmp_path / f"{tag}.nwk"
        path.write_text(f"({serialize_newick(t, names)[:-1]},{outgroup});",
                        encoding="utf-8")
        paths.append(str(path))
    writer = cli._chunk_writer
    written = []
    compiled = []

    def recording_writer(write, *tables):
        sink = writer(written.append, *tables)
        compiled.append(isinstance(sink, tripcon._kernels._fast.LineSink))
        return sink

    monkeypatch.setattr(cli, "_chunk_writer", recording_writer)
    for fmt in ("text", "tsv", "json"):
        runs = {}
        for backend, extra, fast in (("fast", [], True), ("pure", [], True),
                                     ("pure", [], False),
                                     ("fast", ["--sorted"], True),
                                     ("pure", ["--sorted"], False)):
            monkeypatch.setattr(cli, "_fast",
                                tripcon._kernels._fast if fast else None)
            written.clear()
            compiled.clear()
            code, _, err = run_cli(capsys, "--backend", backend, "conflicts",
                                   *paths, "--format", fmt, *extra)
            assert (code, err, compiled) == (0, "", [fast])
            runs[backend, tuple(extra), fast] = list(written)
        streamed = runs["fast", (), True]
        assert len(streamed) >= 3
        assert all(x == streamed for key, x in runs.items() if not key[1])
        assert runs["fast", ("--sorted",), True] == runs["pure", ("--sorted",),
                                                         False]
        # an ASCII chunk of a wider table is an ASCII str
        assert [x.isascii() for x in streamed] == [
            kind in ("ascii", "outgroup") or fmt == "json"] * len(streamed)


@needs_fast
def test_a_line_sink_whose_write_raises_ends_the_run_cleanly():
    # the exception propagates, and the kernel's blocks are released: the
    # next count and listing equal the pure kernel's
    p, q = generate_pair(GeneratorConfig(n=80, seed=3, k=40))
    names = list(p.taxa.names)
    want = enumerate_conflicts(p, q, collect=True, backend="pure")
    assert want.d > 3 * 4096
    writes = []

    def write(text):
        writes.append(text)
        if len(writes) == 2:
            raise KeyError("stop")

    for backend in ("fast", "pure", "fast"):
        writes.clear()
        sink = cli._chunk_writer(write, [x + "\t" for x in names],
                                 [x + "\n" for x in names])
        with pytest.raises(KeyError, match="stop"):
            enumerate_conflicts(p, q, sink=sink, backend=backend)
        assert len(writes) == 2
        got = enumerate_conflicts(p, q, backend="fast")
        assert (got.d, got.nodes_touched) == (want.d, want.nodes_touched)
        got = enumerate_conflicts(p, q, collect=True, backend="fast")
        assert got.conflicts == want.conflicts


def test_conflicts_output_is_the_same_for_every_kernel_and_join(tmp_path,
                                                                  capsys):
    # labels of every str kind whose sorted order is not the parse order;
    # in this process the compiled module (when built) joins for both
    # kernels, and in a child whose build failed the Python join serves
    # the pure kernel
    labels = ODD_LABELS + ["\U0001f332", "a\U0001d539"]
    p, q = generate_pair(GeneratorConfig(n=len(labels), seed=5, k=6))
    names = TaxonSet(labels)
    paths = []
    for tag, t in (("p", p), ("q", q)):
        path = tmp_path / f"{tag}.nwk"
        path.write_text(serialize_newick(t, names), encoding="utf-8")
        paths.append(str(path))
    _, taxa = parse_newick((tmp_path / "p.nwk").read_text(encoding="utf-8"))
    assert list(taxa.names) != sorted(taxa.names)
    runs = [["conflicts", *paths, "--format", fmt, *extra]
            for fmt in ("text", "tsv", "json") for extra in ([], ["--sorted"])]
    outputs = {}
    for backend in ("fast", "pure"):
        if backend in available_backends():
            outputs[backend] = [run_cli(capsys, "--backend", backend, *argv)
                                for argv in runs]
    script = (
        "import contextlib, io, json, sys\n"
        "from tripcon import cli\n"
        "assert cli._fast is None\n"
        "outs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        outs.append([cli.main(argv), buf.getvalue(), ''])\n"
        "print(json.dumps(outs))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        env=env_without_kernel(tmp_path), capture_output=True,
        text=True, check=True)
    outputs["python join"] = [tuple(x) for x in json.loads(proc.stdout)]
    want = outputs.pop("pure")
    assert all(code == 0 and out for code, out, _ in want)
    assert json.loads(want[4][1])["d"] == want[0][1].count("\n") > 0
    assert want[1][1] == "".join(sorted(want[0][1].splitlines(True)))
    for got in outputs.values():
        # JSON's stats name the kernel that ran
        assert [(code, out.replace('"backend": "fast"', '"backend": "pure"'),
                 err) for code, out, err in got] == want


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    # editors on Windows start UTF-8 files with U+FEFF
    p = tmp_path / "p.nwk"
    q = tmp_path / "q.nwk"
    p.write_bytes(b"\xef\xbb\xbf" + FIG1_P.encode())
    q.write_bytes(b"\xef\xbb\xbf" + FIG1_Q.encode())
    code, out, err = run_cli(capsys, "conflicts", str(p), str(q))
    assert (code, out, err) == (0, "C\tD\tE\n", "")
    code, out, err = run_cli(capsys, "count", str(p), str(q))
    assert (code, out, err) == (0, "1\n", "")


def test_exit_code_not_utf8(tmp_path, capsys):
    # one line naming the first bad byte and its offset in the file (the
    # byte order mark counts), not a UnicodeDecodeError traceback
    p = tmp_path / "p.nwk"
    q = tmp_path / "q.nwk"
    p.write_bytes(b"((A,B),\xffC);")
    q.write_text("((A,B),C);")
    code, out, err = run_cli(capsys, "count", str(p), str(q))
    assert (code, out) == (2, "")
    assert err == f"tripcon: {p}: not UTF-8: byte 0xff at offset 7 (invalid start byte)\n"
    q.write_bytes(b"\xef\xbb\xbf((A,B),C\xe2);")
    code, out, err = run_cli(capsys, "conflicts", str(q), str(q))
    assert (code, out) == (2, "")
    assert err.startswith(f"tripcon: {q}: not UTF-8: byte 0xe2 at offset 11 (")
    assert err.count("\n") == 1


def test_conflicts_rejects_labels_that_break_lines(tmp_path, capsys):
    # text and tsv promise one conflict per line, labels tab-separated;
    # JSON escapes every label
    p = tmp_path / "p.nwk"
    q = tmp_path / "q.nwk"
    p.write_text("(('a\tb','c d'),(e,'f\ng'));")
    q.write_text("(('a\tb',e),('c d','f\ng'));")
    for fmt in ("text", "tsv"):
        for extra in ([], ["--sorted"]):
            code, out, err = run_cli(capsys, "conflicts", "--format", fmt,
                                     *extra, str(p), str(q))
            assert (code, out) == (2, "")
            assert err == ("tripcon: label 'a\\tb' holds a tab, line feed or "
                           "carriage return, which would break the "
                           f"tab-separated lines of --format {fmt}; use "
                           "--format json\n")
    code, out, err = run_cli(capsys, "conflicts", "--format", "json", str(p),
                             str(q))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["d"] == 4
    assert doc["conflicts"] == [["a\tb", "c d", "e"], ["a\tb", "c d", "f\ng"],
                                ["a\tb", "e", "f\ng"], ["c d", "e", "f\ng"]]
    for ch in "\t\n\r":
        p.write_text(f"((A,B),'C{ch}D');")
        q.write_text(f"((A,'C{ch}D'),B);")
        code, out, err = run_cli(capsys, "conflicts", str(p), str(q))
        assert (code, out) == (2, "")
        assert err.startswith(f"tripcon: label {'C' + ch + 'D'!r} holds")
        assert err.count("\n") == 1


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.nwk"
    bad.write_text("((A,B);")
    code, _, err = run_cli(capsys, "count", str(bad), str(bad))
    assert code == 2
    assert "tripcon:" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "count", "/nonexistent.nwk", "/also.nwk")
    assert code == 2


def test_exit_code_nonbinary(tmp_path, capsys):
    bad = tmp_path / "multi.nwk"
    bad.write_text("(A,B,C);")
    code, _, _ = run_cli(capsys, "count", str(bad), str(bad))
    assert code == 3


def test_exit_code_one_child(tmp_path, capsys):
    bad = tmp_path / "one.nwk"
    bad.write_text("((A,B));")
    code, _, err = run_cli(capsys, "count", str(bad), str(bad))
    assert code == 3
    assert "one child" in err


def test_exit_code_taxon_mismatch(tmp_path, capsys):
    p = tmp_path / "p.nwk"
    q = tmp_path / "q.nwk"
    p.write_text("((A,B),C);")
    q.write_text("((A,B),D);")
    code, _, _ = run_cli(capsys, "count", str(p), str(q))
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "0"],
    ["gen", "--n", "5", "--k", "-1"],
    ["bench", "--n", "0"],
    ["bench", "--n", ""],
    ["bench", "--k", ""],
    ["check", "--pairs", "1", "--n", "0"],
    ["bench", "--n", "5", "--k", "1", "--backends", "bogus"],
    ["bench", "--n", "5", "--k", "1", "--backends", "auto"],
], ids=" ".join)
def test_exit_code_bad_numbers(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("tripcon: ") and err.count("\n") == 1


def test_check_files_ok(fig1_files, capsys):
    code, out, err = run_cli(capsys, "check", *fig1_files)
    assert code == 0
    assert "check: OK" in err


def test_check_takes_files_or_pairs_not_both(fig1_files, capsys):
    code, out, err = run_cli(capsys, "check", *fig1_files, "--pairs", "5")
    assert (code, out) == (2, "")
    assert err == "tripcon: check takes two tree files or --pairs, not both\n"


@pytest.mark.parametrize("option", [["--n", "5"], ["--k", "0"],
                                    ["--seed", "3"], ["--shape", "balanced"]])
def test_check_files_take_no_generator_option(fig1_files, capsys, option):
    code, out, err = run_cli(capsys, "check", *fig1_files, *option)
    assert (code, out) == (2, "")
    assert err == (f"tripcon: {option[0]} goes with --pairs, not with two "
                   "tree files\n")


def test_check_pairs_defaults(capsys, monkeypatch):
    # --pairs alone keeps n = 30, k = 3, seed 1 and the uniform shape
    seen = []
    monkeypatch.setattr(cli, "generate_pair",
                        lambda cfg: seen.append(cfg) or generate_pair(cfg))
    code, _, _ = run_cli(capsys, "check", "--pairs", "2")
    rng = cli.SplitMix64(1)
    assert code == 0
    assert seen == [cli._config(30, rng.next_u64(), "uniform-attachment", 3)
                    for _ in range(2)]


def test_check_generated_corpus(capsys):
    code, _, err = run_cli(
        capsys, "check", "--pairs", "100", "--n", "30", "--k", "3", "--seed", "6"
    )
    assert code == 0
    assert "check: OK" in err


def test_check_mismatch_exit_code(fig1_files, capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_bruteforce",
                        lambda p, q: {(0, 1, 2)})
    for backend in available_backends():
        code, _, err = run_cli(capsys, "--backend", backend, "check", *fig1_files)
        assert code == 1
        assert f"MISMATCH ({backend} d=1, oracle d=1)" in err


def test_check_large_n_without_oracle(capsys, tmp_path):
    _, text, _ = run_cli(capsys, "gen", "--n", "600", "--seed", "1")
    p = tmp_path / "big.nwk"
    p.write_text(text)
    code, _, err = run_cli(capsys, "check", str(p), str(p))
    assert code == 2
    assert "--oracle" in err


def test_gen_deterministic_and_pipelines(capsys):
    _, a, _ = run_cli(capsys, "gen", "--n", "12", "--seed", "42")
    _, b, _ = run_cli(capsys, "gen", "--n", "12", "--seed", "42")
    assert a == b and a.endswith(";\n")
    _, c, _ = run_cli(capsys, "gen", "--n", "12", "--seed", "42", "--k", "2")
    assert c != a


def test_bench_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--n", "64,128", "--k", "1,2", "--seed", "5"
    )
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split("\t")
    assert header == ["backend", "shape", "n", "k", "seed", "d", "frames",
                      "nodes_touched", "ratio", "ms"]
    assert len(lines) == 1 + 4
    row = dict(zip(header, lines[1].split("\t")))
    assert row["n"] == "64"
    assert float(row["ratio"]) > 0


def test_bench_compares_backends(capsys):
    from tripcon._kernels import available_backends

    names = ",".join(available_backends())
    code, out, _ = run_cli(
        capsys, "bench", "--n", "64", "--k", "1", "--seed", "5",
        "--backends", names,
    )
    lines = out.splitlines()
    assert len(lines) == 1 + len(available_backends())
    got = {line.split("\t")[0] for line in lines[1:]}
    assert got == set(available_backends())
    # d and counters identical across backends
    cells = [line.split("\t") for line in lines[1:]]
    assert len({(c[5], c[6], c[7]) for c in cells}) == 1


def test_bench_oracle_column(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--n", "32", "--k", "2", "--seed", "5", "--oracle"
    )
    lines = out.splitlines()
    header = lines[0].split("\t")
    assert header[-2:] == ["oracle_d", "oracle_ms"]
    for line in lines[1:]:
        cells = dict(zip(header, line.split("\t")))
        assert cells["oracle_d"] == cells["d"]


def test_backend_flag(fig1_files, capsys):
    code, out, _ = run_cli(capsys, "--backend", "pure", "conflicts", *fig1_files)
    assert code == 0 and out == "C\tD\tE\n"


def _cli_env():
    """Environment that imports this copy of the package."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(tripcon.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (pkg_root, env.get("PYTHONPATH")) if x
    )
    return env


def test_pipeline_head_no_broken_pipe_noise(tmp_path):
    # Run the CLI module with this interpreter and this copy of the package,
    # so the test needs no installed ``tripcon`` script on PATH.
    env = _cli_env()
    tripcon_cmd = [sys.executable, "-m", "tripcon.cli"]

    p = tmp_path / "p.nwk"
    q = tmp_path / "q.nwk"
    subprocess.run(tripcon_cmd + ["gen", "--n", "120", "--seed", "2"],
                   stdout=p.open("w"), check=True, env=env)
    subprocess.run(tripcon_cmd + ["gen", "--n", "120", "--seed", "2", "--k", "5"],
                   stdout=q.open("w"), check=True, env=env)
    cmd = shlex.join(tripcon_cmd + ["conflicts", str(p), str(q)])
    proc = subprocess.run(
        f"{cmd} | head -2",
        shell=True, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 2
    assert "pipe" not in proc.stderr.lower()


def _write_pair(tmp_path, n, seed, k):
    p, q = generate_pair(GeneratorConfig(n=n, seed=seed, k=k))
    paths = []
    for tag, t in (("p", p), ("q", q)):
        path = tmp_path / f"{tag}.nwk"
        path.write_text(serialize_newick(t))
        paths.append(str(path))
    return paths


# Runs the CLI on argv and prints its exit code and peak RSS in kB to
# stderr.  VmHWM starts afresh at exec, whereas ru_maxrss keeps the peak
# of the process that forked the child.
CLI_PEAK_RSS = """
import sys
from tripcon.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, hwm, file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_conflicts_streams_in_bounded_memory(tmp_path, backend):
    # d = 1,367,830.  Holding every triple before the first line peaked
    # at 152 MB (fast) and 168 MB (pure) for text, and at 249 MB for one
    # JSON document built in memory; streamed chunks keep the run near the
    # interpreter's own size.
    paths = _write_pair(tmp_path, 1024, 11, 2)
    for fmt in ("text", "json"):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_PEAK_RSS, "--backend", backend,
             "conflicts", *paths, "--format", fmt],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=_cli_env(), check=True)
        code, hwm = proc.stderr.split()[-2:]
        assert code == "0"
        assert int(hwm) < 48 * 1024, fmt


def _cap_address_space():
    import resource

    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_pipeline_head_returns_early_on_huge_output(tmp_path):
    # d = 475,056,195 (n = 16,384, k = 4): holding the triples before the
    # first line needs more than 5 GB, so under a 1 GiB address-space cap
    # such a run fails fast instead of exhausting the machine.  The pure
    # kernel once held a whole listing call (up to one frame's d_r) first.
    paths = _write_pair(tmp_path, 16384, 7, 4)
    for backend in available_backends():
        start = time.monotonic()
        producer = subprocess.Popen(
            [sys.executable, "-m", "tripcon.cli", "--backend", backend,
             "conflicts", *paths],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
            preexec_fn=_cap_address_space)
        head = subprocess.Popen(["head", "-3"], stdin=producer.stdout,
                                stdout=subprocess.PIPE, text=True)
        producer.stdout.close()  # head is now the only reader
        try:
            out, _ = head.communicate(timeout=10)
            _, err = producer.communicate(timeout=10)
        finally:
            for proc in (producer, head):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert time.monotonic() - start < 10, backend
        assert producer.returncode == 0, err
        assert len(out.splitlines()) == 3
        assert all(len(line.split("\t")) == 3 for line in out.splitlines())


def test_unbuilt_fast_backend_is_a_usage_error(tmp_path, fig1_files):
    env = env_without_kernel(tmp_path)
    for argv in (["conflicts", *fig1_files, "--format", "json"],
                 ["count", *fig1_files], ["check", *fig1_files]):
        proc = subprocess.run(
            [sys.executable, "-m", "tripcon.cli", "--backend", "fast", *argv],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("tripcon: "), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "compiled kernel is not available" in proc.stderr
        # the reason is the recorded compiler message
        assert "cc: error: one cc: error: two" in proc.stderr
    # gen runs no kernel
    proc = subprocess.run(
        [sys.executable, "-m", "tripcon.cli", "--backend", "fast", "gen",
         "--n", "5"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.endswith(";\n")


def test_backend_auto_is_not_a_choice(fig1_files, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--backend", "auto", "count", *fig1_files])
    assert exc.value.code == 2
    assert "invalid choice: 'auto'" in capsys.readouterr().err


@needs_fast
@pytest.mark.parametrize("value", ["pure", "bogus"])
def test_environment_does_not_pick_the_kernel(fig1_files, value):
    # only the build and backend= pick the kernel, not the environment
    env = dict(_cli_env(), TRIPCON_BACKEND=value)
    proc = subprocess.run(
        [sys.executable, "-c", "import tripcon; print(tripcon.active_backend())"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "fast\n"
    proc = subprocess.run(
        [sys.executable, "-m", "tripcon.cli", "count", *fig1_files],
        env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")

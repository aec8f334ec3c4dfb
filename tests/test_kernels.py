"""The compiled kernel: first-import build into the user cache, a
warning-free compile of its C source, its checks on malformed input, a
run of a sanitized build under ASan and UBSan, and builds with a lowered
count limit, with a corrupted d_r and with colliding label hashes.

Each build test copies the package without any built extension into
``tmp_path`` and imports it in a fresh interpreter with its own
XDG_CACHE_HOME, so the result does not depend on an earlier install or
cache.
"""

import functools
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from array import array

import pytest

import tripcon
from tripcon import (DuplicateLabelError, EmptyTreeError, SplitMix64,
                     TaxonMismatchError, TaxonSet, Tree, TripconError,
                     build_tree, count_conflicts, enumerate_conflicts,
                     serialize_newick)
from tripcon._kernels import _fast, available_backends
from tripcon.generator import (
    GeneratorConfig,
    caterpillar_tree,
    random_binary_tree,
)

from conftest import (BAD_OFFSETS, TWO_TAXA, built_by_every_builder,
                      decorated_newick, join_cases)
from test_newick import ERROR_TABLE

CC = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")
needs_compiler = pytest.mark.skipif(shutil.which(CC) is None,
                                    reason=f"no C compiler ({CC})")

PROBE = """
import tripcon
from tripcon import _kernels, enumerate_conflicts, newick, parse_newick
assert newick._fast is _kernels._fast
print(tripcon.active_backend())
print(_kernels._fast.__file__ if _kernels._fast else "-")
p, taxa = parse_newick("((A,B),((C,D),E));")
q, _ = parse_newick("((A,B),((D,E),C));", taxa)
try:
    print(enumerate_conflicts(p, q, collect=True, backend="fast").conflicts)
except ImportError as exc:
    print("ImportError:", " ".join(str(exc).split()))
"""


@pytest.fixture
def fresh_copy(tmp_path):
    """Package copy without extensions, and a runner for PROBE against it."""
    pkg = os.path.dirname(os.path.abspath(tripcon.__file__))
    src = tmp_path / "src"
    shutil.copytree(pkg, src / "tripcon",
                    ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"))
    cache = tmp_path / "cache"

    def run():
        env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(cache))
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                              capture_output=True, text=True, check=True)
        return proc.stdout.splitlines()

    return src / "tripcon" / "_kernels" / "_fast.c", cache, run


def _entry(cache, source):
    digest = hashlib.sha256(source.read_bytes()).hexdigest()
    return cache / "tripcon" / f"{digest}-{EXT_SUFFIX}"


@needs_compiler
def test_first_import_builds_kernel_into_cache(fresh_copy):
    source, cache, run = fresh_copy
    backend, path, conflicts = run()
    built = _entry(cache, source) / f"_fast{EXT_SUFFIX}"
    assert backend == "fast"
    assert built.is_file()
    assert path == str(built)
    assert conflicts == "[(2, 3, 4)]"
    # a second interpreter loads the cached build instead of compiling again
    mtime = built.stat().st_mtime_ns
    assert run()[:2] == ["fast", str(built)]
    assert built.stat().st_mtime_ns == mtime
    # after an edit, a stale build next to the source does not shadow the
    # build of the edited source
    shutil.copy(built, source.with_name(f"_fast{EXT_SUFFIX}"))
    with source.open("a") as fh:
        fh.write("/* edited */\n")
    rebuilt = _entry(cache, source) / f"_fast{EXT_SUFFIX}"
    assert run() == ["fast", str(rebuilt), conflicts]
    assert rebuilt.is_file()


@needs_compiler
def test_failed_build_falls_back_and_is_not_retried(fresh_copy):
    source, cache, run = fresh_copy
    source.write_text("#error deliberately broken kernel source\n")
    marker = _entry(cache, source) / "build-failed.txt"

    backend, path, conflicts = run()
    assert (backend, path) == ("pure", "-")
    assert marker.is_file()
    assert "deliberately broken" in conflicts
    assert not list(marker.parent.glob("_fast*"))

    backend, _, conflicts = run()
    assert backend == "pure"
    assert "an earlier build failed" in conflicts
    assert "deliberately broken" in conflicts


@needs_compiler
def test_kernel_source_compiles_without_warnings(tmp_path):
    pkg = os.path.dirname(os.path.abspath(tripcon.__file__))
    source = os.path.join(pkg, "_kernels", "_fast.c")
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    cmd = cc + ["-std=c99", "-Wall", "-Wextra", "-Werror", "-pedantic",
                "-Wshadow", "-Wcast-qual", "-Wvla", "-Wstrict-prototypes",
                "-fPIC", "-shared", "-I" + sysconfig.get_paths()["include"],
                source,
                "-o", str(tmp_path / f"_fast{EXT_SUFFIX}")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def column(taxon):
    """A tree's taxon column as the compiled kernel takes it, array('i')."""
    return array("i", taxon)


EMPTY = "the taxon column is empty"
DIFFERENT = "P and Q carry different leaf taxa"


def out_of_range(v, tx):
    """Both finalizers' message for node v with taxon tx below -1 or at or
    above the universe."""
    return f"taxon[{v}] = {tx} is out of range"


def lacking(v):
    """Both finalizers' message for internal node v without two complete
    subtrees before it."""
    return f"internal node {v} lacks two subtrees before it"


# Node ids are post-order numbers: node v is a leaf (taxon >= 0), or an
# internal node (taxon -1) with children v - 2 * leaf_count[v - 1] >= 0 and
# v - 1.
CHERRY = column([0, 1, -1])
# Trees the compiled kernel must reject when paired with CHERRY, on either
# side, in a universe of two taxa, each with its message. A row keeps its
# place in the list, so its test id bad<place> names the same case over time.
BAD_TREES = [(column(t), why) for t, why in (
    ([], EMPTY),
    ([-1], lacking(0)),
    # node 0 internal: it has no right child v - 1, nor a leaf count there
    ([-1, 1, -1], lacking(0)),
    # node 1's right child 0 has one leaf, so its left would be 1 - 2
    ([0, -1, 1, -1], lacking(1)),
    # node 3's right child 2 has two leaves, so its left would be 3 - 4
    ([0, 1, -1, -1], lacking(3)),
    ([0, -2, -1], out_of_range(1, -2)),
    ([0, 1, -2 ** 31], out_of_range(2, -2 ** 31)),
    ([2 ** 31 - 1, 1, -1], out_of_range(0, 2 ** 31 - 1)),
    # node 1's right child 0 is the lone leaf, so its left would be -1
    ([0, -1], lacking(1)),
    ([-2], out_of_range(0, -2)),
    ([1, 0, 2], out_of_range(2, 2)),  # the universe in the root's slot
    ([0, 1], "1 of 2 nodes are not below the root"),
    # a leaf after a complete tree repeats a taxon before it is found
    # outside the root
    ([0, 1, -1, 0], "leaf 3 has a repeated taxon"),
    ([1], DIFFERENT),  # taxa {1} against {0, 1}
    ([0, 2, -1], out_of_range(1, 2)),  # the universe
    ([1, 1, -1], "leaf 1 has a repeated taxon"),
    ([1, 0, -1, 0, -1], "leaf 3 has a repeated taxon"),
    ([0], DIFFERENT),  # taxa {0} against {0, 1}
)]
# run_enumeration arguments that must raise ValueError, each with its
# message; the last pairs the taxa {0, 1} with {0, 2}.
MALFORMED = ([((t, CHERRY, 2), why) for t, why in BAD_TREES]
             + [((CHERRY, t, 2), why) for t, why in BAD_TREES]
             + [((CHERRY, column([0, 2, -1]), 3), DIFFERENT)])


def mutated_column(t, rng):
    """The taxon column of ``t`` as a list with one to three seeded edits:
    an entry set to -2, -1, the universe or a random taxon, an entry
    deleted or inserted, or two entries exchanged."""
    taxon = list(t.taxon)
    nt = len(t.taxa)
    for _ in range(1 + rng.randrange(3)):
        kind = rng.randrange(4)
        value = (-2, -1, nt, rng.randrange(nt))[rng.randrange(4)]
        if kind == 0:
            taxon.insert(rng.randrange(len(taxon) + 1), value)
        elif taxon:
            at = rng.randrange(len(taxon))
            if kind == 1:
                taxon[at] = value
            elif kind == 2:
                del taxon[at]
            else:
                other = rng.randrange(len(taxon))
                taxon[at], taxon[other] = taxon[other], taxon[at]
    return taxon


@functools.cache
def finalizer_cases():
    """``(taxon, t)``: taxon columns from every builder, each with seeded
    edits (``mutated_column``), and the valid tree ``t`` it was made
    from."""
    rng = SplitMix64(0xA7E7A)
    cases = []
    for n, seed in ((2, 1), (5, 2), (12, 3), (30, 4)):
        for t in built_by_every_builder(n, seed).values():
            cases += [(mutated_column(t, rng), t) for _ in range(40)]
    return cases


def python_finalizer(taxon, t):
    """d of the tree that Tree._from_structure finalizes from ``taxon``,
    against t, or the exception raised on the way."""
    try:
        u = Tree._from_structure(taxon, t.taxa,
                                 full=t.n_leaves == len(t.taxa))
        return count_conflicts(u, t, backend="pure")
    except (ValueError, TripconError) as exc:
        return exc


def fast_finalizer(taxon, t):
    """d of run_enumeration on ``taxon`` against t, or its ValueError."""
    try:
        return _fast.run_enumeration(column(taxon), t.taxon, len(t.taxa))[0]
    except ValueError as exc:
        return exc


def not_int_arrays(slot):
    """``slot``, an array('i'), in the forms the kernel must refuse, each
    with the exception it raises: a list, a tuple, another typecode and a
    view that is not contiguous."""
    spread = array("i", [x for v in slot for x in (v, 0)])
    return [(list(slot), TypeError), (tuple(slot), TypeError),
            (array("q", slot), TypeError), (array("h", slot), TypeError),
            (memoryview(spread)[::2], BufferError)]


@pytest.mark.skipif("fast" not in available_backends(),
                    reason="compiled kernel not built")
def test_kernel_rejects_malformed_arrays():
    run = _fast.run_enumeration
    leaf = column([0])
    assert run(CHERRY, CHERRY, 2)[:2] == (0, 3)
    for args, why in MALFORMED:
        with pytest.raises(ValueError) as error:
            run(*args)
        assert str(error.value) == why
    with pytest.raises(TypeError):
        run(CHERRY, CHERRY, 2, 5)  # a sink that is not callable
    assert run(leaf, leaf, 1)[:2] == (0, 1)
    # each column is read in place, only as a contiguous array('i')
    args = (CHERRY, CHERRY, 2)
    assert run(CHERRY, memoryview(CHERRY), 2)[:2] == (0, 3)
    for at in range(2):
        for bad, error in not_int_arrays(args[at]):
            with pytest.raises(error):
                run(*args[:at], bad, *args[at + 1:])


@pytest.mark.skipif("fast" not in available_backends(),
                    reason="compiled kernel not built")
def test_a_sink_may_change_the_input_arrays():
    # the kernel holds no view of its inputs once a sink runs, so an
    # array that it read may grow meanwhile
    n = 40
    p, q = caterpillar_tree(n), caterpillar_tree(n, reverse=True)
    ids = []

    def sink(chunk):
        ids.extend(chunk)
        p.taxon.append(-1)
        q.taxon.append(-1)

    instr = enumerate_conflicts(p, q, sink=sink, backend="fast")
    assert instr.d == math.comb(n, 3) and len(ids) == 3 * instr.d
    assert len(p.taxon) == 2 * n - 1 + math.ceil(instr.d / 4096)


@pytest.mark.parametrize("bad", BAD_TREES)
def test_both_finalizers_reject_malformed_arrays(bad):
    taxon, why = bad
    with pytest.raises((ValueError, TripconError)) as python_error:
        Tree._from_structure(taxon, TaxonSet(["a", "b"]))
    if not isinstance(python_error.value, (DuplicateLabelError,
                                           TaxonMismatchError)):
        # the Python errors about taxa name them by their labels
        assert str(python_error.value) == why
    if "fast" not in available_backends():
        return
    with pytest.raises(ValueError) as c_error:
        _fast.run_enumeration(taxon, CHERRY, 2)
    assert str(c_error.value) == why


@pytest.mark.skipif("fast" not in available_backends(),
                    reason="compiled kernel not built")
def test_both_finalizers_accept_and_reject_mutated_arenas_alike():
    # every column that Tree._from_structure accepts, the kernel accepts
    # with the same d; every other one both reject, for the same reason
    # and with the same text but for the Python errors about taxa, which
    # name them by their labels
    seen = set()
    cases = finalizer_cases()
    assert len(cases) >= 1600
    for taxon, t in cases:
        want = python_finalizer(taxon, t)
        got = fast_finalizer(taxon, t)
        if isinstance(want, int):
            assert got == want, taxon
            seen.add("accepted")
        elif isinstance(want, TaxonMismatchError):
            assert str(got) == DIFFERENT, taxon
            seen.add("taxa differ")
        elif isinstance(want, DuplicateLabelError):
            assert re.fullmatch(r"leaf \d+ has a repeated taxon", str(got)), taxon
            seen.add("repeated taxon")
        else:
            assert type(want) in (ValueError, EmptyTreeError), taxon
            assert isinstance(got, ValueError) and str(got) == str(want), taxon
            seen.add(re.sub(r"-?\d+", "#", str(want)))
    assert seen == {
        "accepted", "taxa differ", "repeated taxon", EMPTY,
        out_of_range("#", "#"), lacking("#"),
        "# of # nodes are not below the root"}


SANITIZED = """
import math
from array import array
from tripcon import SplitMix64, _kernels, enumerate_conflicts
from tripcon.generator import (
    SHAPES, GeneratorConfig, caterpillar_tree, generate_pair,
    random_binary_tree)

assert _kernels._fast.__file__ == {built!r}
run = _kernels._fast.run_enumeration
rng = SplitMix64(0x5A17)
for i in range(300):
    n = 3 + rng.randrange(60)
    p, q = generate_pair(GeneratorConfig(
        n=n, seed=rng.next_u64(), k=rng.randrange(n + 1),
        shape=SHAPES[i % len(SHAPES)]))
    for collect in (True, False):
        enumerate_conflicts(p, q, collect=collect, backend="fast")
# P against itself opens 2n - 1 frames, filling the d_r block
for shape in SHAPES:
    p = random_binary_tree(GeneratorConfig(n=300, seed=7, shape=shape))
    for collect in (True, False):
        instr = enumerate_conflicts(p, p, collect=collect, backend="fast")
        assert instr.frames_opened == len(instr.per_frame_dr) == 599
p, q = caterpillar_tree(300), caterpillar_tree(300, reverse=True)
args = (p.taxon, q.taxon, len(p.taxa))
assert run(*args)[0] == math.comb(300, 3)
chunks = []
out = run(*args, chunks.append)
assert out[0] == math.comb(300, 3)
assert sum(map(len, chunks)) == 3 * math.comb(300, 3)
def stop(ids):
    if len(chunks) == 2:
        raise KeyError("stop")
    chunks.append(ids)
chunks.clear()
try:
    run(*args, stop)
except KeyError:
    pass
else:
    raise AssertionError("the sink's exception was lost")
# malformed trees, each with its message, and columns from every builder
# with seeded edits, against a valid tree
for args, why in {malformed!r}:
    try:
        run(*args)
    except ValueError as exc:
        assert str(exc) == why, (args, str(exc), why)
        continue
    raise AssertionError(args)
import json
with open({finalizer_cases!r}, encoding="utf-8") as fh:
    for args in json.load(fh):
        try:
            run(array("i", args[0]), array("i", args[1]), args[2])
        except ValueError:
            pass
# columns of another type, typecode or stride, or one entry short
args = ({cherry!r},) * 2 + (2,)
for at in range(2):
    slot = args[at]
    spread = array("i", [x for v in slot for x in (v, 0)])
    for bad in (list(slot), array("q", slot), array("h", slot),
                memoryview(spread)[::2], slot[:-1]):
        try:
            run(*args[:at], bad, *args[at + 1:])
        except (BufferError, TypeError, ValueError):
            continue
        raise AssertionError((at, bad))
# a sink that grows the input arrays, which the kernel no longer holds
p, q = caterpillar_tree(40), caterpillar_tree(40, reverse=True)
def grow(ids):
    p.taxon.append(-1)
    q.taxon.append(-1)
out = run(p.taxon, q.taxon, 40, grow)
assert out[0] == math.comb(40, 3) and len(p.taxon) == 79 + 3

# the Newick pass: every error, with and without a table, every prefix
# of a text with comments, lengths and quoted labels, with and without
# its table, and tables that lack one label or hold one more
from tripcon.newick import _parse, serialize_newick
parse = _kernels._fast.parse_newick
LabelTable = _kernels._fast.LabelTable
for text in {errors!r}:
    for table in (None, LabelTable(("A", "B", "C"))):
        assert parse(text, table) is None, text
text = {mixed!r}
taxon, table = parse(text, None)
names = tuple(table)
assert names == _parse(text)[1].names
assert parse(text, table) == (taxon, table)
assert parse(text, LabelTable(names))[0] == taxon
for other in (names[:-1], names + ("extra",)):
    assert parse(text, LabelTable(other)) is None
for k in range(len(text)):
    for t in (None, table):
        out = parse(text[:k], t)
        assert out is None or out[0] == taxon, text[:k]
# one label set in texts of every str kind, each against the table of
# every other and of the names; 'b''c' is b'c, and 'b''''c' is unknown
texts = ["((a,'b''c'),(d,'\\u00e9\\u0101'));" + c
         for c in ("", "[\\u00e9]", "[\\u0101]", "[\\U0001f332]")]
want = parse(texts[0], None)[0]
tables = [parse(text, None)[1] for text in texts]
tables.append(LabelTable(("a", "b'c", "d", "\\u00e9\\u0101")))
for text in texts:
    for t in tables:
        assert parse(text, t) == (want, t)
    assert parse(text.replace("b''c", "b''''c"), tables[-1]) is None
# 10^5 labels grow the table many times and come back in leaf order;
# rejects after it has grown free it, and against it the labels repeat,
# are unknown or are missing
n = 100_000
text = serialize_newick(caterpillar_tree(n))
taxon, table = parse(text, None)
ref, ref_taxa = _parse(text)
assert taxon == ref.taxon and len(table) == n
assert tuple(table) == ref_taxa.names and table[-1] == ref_taxa.names[-1]
assert parse(text, LabelTable(tuple(table)))[0] == taxon
for bad in (text[:-1], text[:-2] + ",x);", text.replace("t0,", "t2,")):
    for t in (None, table):
        assert parse(bad, t) is None
for bad in (text.replace("t0,", "(t0,x),"), text.replace("(t0,t1)", "t1")):
    assert parse(bad, None) is not None and parse(bad, table) is None
# arguments of the wrong type, and names that cannot be a table
for args in ((text, {{}}), (text, names)):
    try:
        parse(*args)
    except TypeError:
        continue
    raise AssertionError(args[1])
assert parse(text.encode(), None) is None
for bad in (["a"], ("a", 1), ("a", "b", "a")):
    try:
        LabelTable(bad)
    except (TypeError, ValueError):
        continue
    raise AssertionError(bad)
try:
    table[n]
except IndexError:
    pass
else:
    raise AssertionError("a label past the table")
del table, tables

# the chunk join: every case of join_cases against the Python join, and
# through the chunk writer as a first and a later chunk; then ids outside
# the table in every position, arguments of the wrong type or length, and
# offsets that break the piece of an id
import json
from array import array
from tripcon import cli
from tripcon.cli import _join, _pack
join = _kernels._fast.join_triples
assert cli._fast is _kernels._fast
with open({cases!r}, encoding="utf-8") as fh:
    cases = json.load(fh)
for ids, mid, end, first, sep in cases:
    lead = [sep + x for x in mid]
    chunk = array("i", ids)
    want = _join(chunk, lead, mid, end)
    got = join(chunk, *_pack(lead, mid, end))
    assert got == want and got.isascii() == want.isascii()
    written = []
    sink = cli._chunk_writer(written.append, mid, end, first, sep)
    sink(chunk)
    sink(chunk)
    assert written == [first + mid[ids[0]] + want[len(lead[ids[0]]):],
                       want]
    assert all(x.isascii() == want.isascii() for x in written)
text, offsets = _pack(*{two!r})
ids = array("i", [0, 1, 1])
bad_calls = [([0, 1, 1], text, offsets), (array("l", ids), text, offsets),
             (ids, text.encode(), offsets), (ids, text, list(offsets)),
             (ids, text, array("l", offsets)), (ids, text, offsets[:-1]),
             (ids, text, offsets[:-2]), (ids, text, array("q"))]
for at in range(6):
    for bad in (-1, 2, -2 ** 31, 2 ** 31 - 1):
        chunk = array("i", [0, 1, 1, 1, 1, 0])
        chunk[at] = bad
        bad_calls.append((chunk, text, offsets))
for j, value, piece in {bad_offsets!r}:
    bad = array("q", offsets)
    bad[j] = value
    chunk = array("i", [0, 0, 0])
    chunk[piece // 2] = piece % 2
    bad_calls.append((chunk, text, bad))
for args in bad_calls:
    try:
        join(*args)
    except (IndexError, TypeError, ValueError):
        continue
    raise AssertionError(args)
print("ok")
"""


def _sanitized_build(source, cache, sanitizers, *flags):
    """Build ``source`` with ``sanitizers`` and ``flags`` into the cache
    entry that the package copy loads; returns the build and the runtime
    library that the sanitizers need, or skips without it."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    lib = "libasan.so" if "address" in sanitizers else "libubsan.so"
    runtime = subprocess.run(cc + [f"-print-file-name={lib}"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip(f"{cc[0]} does not provide {lib}")
    built = _entry(cache, source) / f"_fast{EXT_SUFFIX}"
    built.parent.mkdir(parents=True)
    proc = subprocess.run(
        cc + ["-O1", "-g", f"-fsanitize={sanitizers}",
              "-fno-sanitize-recover=undefined", "-fPIC", "-shared",
              "-I" + sysconfig.get_paths()["include"], *flags, str(source),
              "-o", str(built)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return built, runtime


@needs_compiler
def test_kernel_runs_clean_under_asan_and_ubsan(fresh_copy):
    source, cache, _ = fresh_copy
    built, libasan = _sanitized_build(source, cache, "address,undefined")

    env = dict(os.environ, PYTHONPATH=str(source.parents[2]),
               XDG_CACHE_HOME=str(cache), LD_PRELOAD=libasan,
               ASAN_OPTIONS="detect_leaks=0",
               # objects from the system allocator, so that ASan sees a read
               # past the buffer of a str or an array
               PYTHONMALLOC="malloc")
    mutated = source.parents[3] / "finalizer_cases.json"
    mutated.write_text(json.dumps([
        [taxon, list(t.taxon), len(t.taxa)]
        for taxon, t in finalizer_cases()]), encoding="utf-8")
    names = [f"t{i}" if i % 3 else f"sp. {i}'s \u00e9" for i in range(200)]
    mixed = decorated_newick(random_binary_tree(
        GeneratorConfig(n=200, seed=5), TaxonSet(names)), 9)
    cases = source.parents[3] / "join_cases.json"
    cases.write_text(json.dumps(join_cases()), encoding="utf-8")
    script = SANITIZED.format(built=str(built), malformed=MALFORMED,
                              cherry=CHERRY, finalizer_cases=str(mutated),
                              mixed=mixed,
                              errors=[text for text, _, _ in ERROR_TABLE],
                              cases=str(cases), bad_offsets=BAD_OFFSETS,
                              two=TWO_TAXA)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "Sanitizer" not in proc.stderr, proc.stderr[-4000:]
    assert "runtime error" not in proc.stderr, proc.stderr[-4000:]
    assert proc.stdout.split() == ["ok"]


# P = ((A,B),C) and Q = ((A,C),B), A, B and C caterpillars of s leaves
# each: the conflicts are the s^3 triples with one leaf in each block, all
# found at the root.  With the limit at 1,000: s = 7 (d = 343,
# nodes_touched = 923) fits; s = 8 (d = 512, 1,178 steps) passes it in
# a sum of steps, and s = 11 (d = 1,331) in the root's product.
OVERFLOW = """
from functools import reduce
from tripcon import _kernels, build_tree, enumerate_conflicts
from tripcon._kernels import pure

assert _kernels._fast.__file__ == {built!r}
pure.COUNT_MAX = 1000
for s in (7, 8, 11):
    a, b, c = (reduce(lambda x, y: (x, y), [x + str(i) for i in range(s)])
               for x in "abc")
    p = build_tree(((a, b), c))
    q = build_tree(((a, c), b), p.taxa)
    for backend in ("fast", "pure"):
        for collect in (False, True):
            try:
                d = enumerate_conflicts(p, q, backend=backend,
                                        collect=collect).d
            except OverflowError as exc:
                d = str(exc)
            print(s, backend, collect, d, sep=":")
"""


@needs_compiler
def test_counts_past_the_limit_raise_alike_in_both_kernels(fresh_copy):
    # the compiled kernel built with its limit lowered to 1,000, under
    # UBSan, and the pure one with the same limit
    source, cache, _ = fresh_copy
    built, _ = _sanitized_build(source, cache, "undefined",
                                "-DCOUNT_MAX=1000")
    env = dict(os.environ, PYTHONPATH=str(source.parents[2]),
               XDG_CACHE_HOME=str(cache))
    proc = subprocess.run([sys.executable, "-c",
                           OVERFLOW.format(built=str(built))],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "runtime error" not in proc.stderr, proc.stderr[-4000:]
    message = "more than 2^63 - 1 conflicts or steps"
    assert proc.stdout.split("\n")[:-1] == [
        f"{s}:{backend}:{collect}:{343 if s == 7 else message}"
        for s in (7, 8, 11) for backend in ("fast", "pure")
        for collect in (False, True)]


# The pair above at s = 11, whose root product passes the limit, through
# the command line: count and conflicts print one line and exit 2.
@needs_compiler
def test_cli_reports_a_count_past_the_limit_on_one_line(fresh_copy, tmp_path):
    source, cache, _ = fresh_copy
    built, _ = _sanitized_build(source, cache, "undefined",
                                "-DCOUNT_MAX=1000")
    a, b, c = (functools.reduce(lambda x, y: (x, y),
                                [x + str(i) for i in range(11)]) for x in "abc")
    p = build_tree(((a, b), c))
    paths = []
    for tag, t in (("p", p), ("q", build_tree(((a, c), b), p.taxa))):
        paths.append(tmp_path / f"{tag}.nwk")
        paths[-1].write_text(serialize_newick(t))
    env = dict(os.environ, PYTHONPATH=str(source.parents[2]),
               XDG_CACHE_HOME=str(cache))
    for command in ("count", "conflicts"):
        proc = subprocess.run(
            [sys.executable, "-m", "tripcon.cli", command, *map(str, paths)],
            env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "tripcon: more than 2^63 - 1 conflicts or steps\n")


# A build whose kernel stores one frame's d_r one too high: the run checks
# the sum of the d_r against d itself and raises.
DR_SUM = """
from tripcon import _kernels, enumerate_conflicts
from tripcon.generator import GeneratorConfig, generate_pair

assert _kernels._fast.__file__ == {built!r}
p, q = generate_pair(GeneratorConfig(n=60, seed=3, k=5))
print(enumerate_conflicts(p, q, backend="pure").d > 0)
for kwargs in ({{}}, {{"collect": True}}, {{"sink": list}}):
    try:
        enumerate_conflicts(p, q, backend="fast", **kwargs)
    except AssertionError as exc:
        print(exc)
"""


@needs_compiler
def test_compiled_kernel_checks_that_the_d_r_sum_to_d(fresh_copy):
    source, cache, _ = fresh_copy
    text = source.read_text()
    store = "        run->dr[run->frames++] = d_r;\n"
    assert text.count(store) == 1
    source.write_text(text.replace(
        store, store + "        if (run->frames == 1)\n"
                       "            run->dr[0]++;\n"))
    built, _ = _sanitized_build(source, cache, "undefined")
    env = dict(os.environ, PYTHONPATH=str(source.parents[2]),
               XDG_CACHE_HOME=str(cache))
    proc = subprocess.run([sys.executable, "-c",
                           DR_SUM.format(built=str(built))],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "runtime error" not in proc.stderr, proc.stderr[-4000:]
    assert proc.stdout.split("\n")[:-1] == [
        "True"] + ["per-frame d_r do not sum to the triples emitted"] * 3


# With every label hash equal, a probe passes the bound of 128 slots at
# the 129th label of a tree: the compiled pass gives up, on a text and on
# a table of names alike, and the regex parser parses the text.
GIVE_UP = """
from tripcon import TaxonSet, _kernels, parse_newick
from tripcon.generator import caterpillar_tree
from tripcon.newick import _parse, serialize_newick

assert _kernels._fast.__file__ == {built!r}
parse = _kernels._fast.parse_newick
for n in (128, 129, 2000):
    text = serialize_newick(caterpillar_tree(n))
    ref, ref_taxa = _parse(text)
    out = parse(text, None)
    table = _kernels._fast.LabelTable(ref_taxa.names)
    print(n, out is not None, parse(text, table) is not None)
    for taxa in (None, TaxonSet(ref_taxa.names)):
        t, taxa = parse_newick(text, taxa)
        assert t.taxon == ref.taxon and taxa.names == ref_taxa.names
"""


@needs_compiler
def test_a_build_where_every_label_collides_gives_up_to_the_regex_parser(
        fresh_copy, tmp_path):
    # the parser tests, and the give-up path, under ASan and UBSan
    source, cache, _ = fresh_copy
    built, libasan = _sanitized_build(source, cache, "address,undefined",
                                      "-DHASH_MASK=0")
    env = dict(os.environ, PYTHONPATH=str(source.parents[2]),
               XDG_CACHE_HOME=str(cache), LD_PRELOAD=libasan,
               ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc")
    proc = subprocess.run([sys.executable, "-c",
                           GIVE_UP.format(built=str(built))],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.split("\n")[:-1] == [
        "128 True True", "129 False False", "2000 False False"]
    # the 10^5-leaf caterpillar test needs the compiled pass to take the
    # whole tree, which this build gives up on; pymalloc, for speed
    del env["PYTHONMALLOC"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "not test_compiled_parse_of_a_deep_caterpillar",
         os.path.join(os.path.dirname(__file__), "test_newick.py")],
        env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    for report in ("Sanitizer", "runtime error"):
        assert report not in proc.stderr, proc.stderr[-4000:]

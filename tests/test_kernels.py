"""The compiled kernel: first-import build into the user cache, a
warning-free compile of its C source, its checks on malformed input, and
a run of a sanitized build under ASan and UBSan.

Each build test copies the package without any built extension into
``tmp_path`` and imports it in a fresh interpreter with its own
XDG_CACHE_HOME, so the result does not depend on an earlier install or
cache.
"""

import hashlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from array import array

import pytest

import tripcon
from tripcon import (SplitMix64, TaxonSet, Tree, TripconError,
                     enumerate_conflicts)
from tripcon._kernels import _fast, available_backends
from tripcon.generator import (
    SHAPES,
    GeneratorConfig,
    caterpillar_tree,
    generate_pair,
    random_binary_tree,
)

from conftest import (BAD_OFFSETS, TWO_TAXA, decorated_newick, join_cases,
                      shuffled_arena)
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
    cmd = cc + ["-std=c99", "-Wall", "-Wextra", "-Werror", "-fPIC", "-shared",
                "-I" + sysconfig.get_paths()["include"], source,
                "-o", str(tmp_path / f"_fast{EXT_SUFFIX}")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def arena(left, right, taxon, root):
    """A tree's slots as the compiled kernel takes them, array('i')."""
    return array("i", left), array("i", right), array("i", taxon), root


# Trees the compiled kernel must reject when paired with CHERRY, on either
# side, in a universe of two taxa.
CHERRY = arena([1, -1, -1], [2, -1, -1], [-1, 0, 1], 0)
CHAIN = [i + 1 for i in range(29)] + [-1]
BAD_TREES = [arena(*t) for t in (
    ([1, -1, -1], [2, -1], [-1, 0, 1], 0),      # lengths differ
    ([1, -1, -1], [2, -1, -1], [-1, 0, 1], 3),  # root out of range
    ([1, -1, -1], [7, -1, -1], [-1, 0, 1], 0),  # child out of range
    ([1, -1, -1], [-5, -1, -1], [-1, 0, 1], 0),  # child below -1
    ([1, -1, -1], [2, -1, -1], [-1, 0, 2], 0),  # taxon out of range
    ([], [], [], 0),                            # empty
    ([0], [0], [-1], 0),                        # its own child
    (CHAIN, CHAIN, [-1] * 29 + [0], 0),         # both children the same
    ([1, -1, -1], [-1, -1, -1], [-1, 0, 1], 0),  # one child
    ([1, -1, -1, -1, -1], [2, -1, -1, -1, -1],
     [-1, 0, 1, -1, -1], 0),                    # unreachable nodes
    ([1, -1, -1], [2, -1, -1], [-1, 0, -1], 0),  # leaf without a taxon
    ([1, -1, -1], [2, -1, -1], [-1, 0, 0], 0),   # repeated taxon
    ([1, 3, -1, -1, -1], [2, 4, -1, -1, -1],
     [-1, -1, 1, 0, 0], 0),                     # repeated taxon
    ([-1], [-1], [0], 0),                       # taxa {0} against {0, 1}
    ([1, -1, -1], [2, -1, -1], [0, 0, 1], 0),   # internal node with a taxon
)]
# run_enumeration arguments that must raise ValueError; the last pairs the
# taxa {0, 1} with {0, 2}.
MALFORMED = ([t + CHERRY + (2,) for t in BAD_TREES]
             + [CHERRY + t + (2,) for t in BAD_TREES]
             + [CHERRY + arena([1, -1, -1], [2, -1, -1], [-1, 0, 2], 0)
                + (3,)])


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
    leaf = arena([-1], [-1], [0], 0)
    assert run(*CHERRY, *CHERRY, 2)[:2] == (0, 3)
    for args in MALFORMED:
        with pytest.raises(ValueError):
            run(*args)
    with pytest.raises(TypeError):
        run(*CHERRY, *CHERRY, 2, 5)  # a sink that is not callable
    assert run(*leaf, *leaf, 1)[:2] == (0, 1)
    # errors name the caller's ids, not the post-order numbers (leaf 1)
    with pytest.raises(ValueError, match="^leaf 2 has a repeated taxon$"):
        run(*arena([1, -1, -1], [2, -1, -1], [-1, 0, 0], 0), *CHERRY, 2)
    with pytest.raises(ValueError, match="^leaf 2 has no taxon$"):
        run(*CHERRY, *arena([1, -1, -1], [2, -1, -1], [-1, 0, -1], 0), 2)
    # each slot is read in place, only as a contiguous array('i'), and the
    # three of a tree have one length
    args = CHERRY + CHERRY + (2,)
    assert run(*args[:4], memoryview(args[4]), *args[5:])[:2] == (0, 3)
    for at in (0, 1, 2, 4, 5, 6):
        for bad, error in not_int_arrays(args[at]):
            with pytest.raises(error):
                run(*args[:at], bad, *args[at + 1:])
        with pytest.raises(ValueError, match="equal, non-zero length"):
            run(*args[:at], args[at][:-1], *args[at + 1:])


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
        for t in (p, q):
            for slot in (t.left, t.right, t.taxon):
                slot.append(-1)

    instr = enumerate_conflicts(p, q, sink=sink, backend="fast")
    assert instr.d == math.comb(n, 3) and len(ids) == 3 * instr.d
    assert len(p.left) == 2 * n - 1 + math.ceil(instr.d / 4096)


@pytest.mark.parametrize("bad", BAD_TREES)
def test_both_finalizers_reject_malformed_arrays(bad):
    with pytest.raises((ValueError, TripconError)) as python_error:
        Tree._from_structure(*bad, TaxonSet(["a", "b"]))
    if "fast" not in available_backends():
        return
    with pytest.raises(ValueError) as c_error:
        _fast.run_enumeration(*bad, *CHERRY, 2)
    if ("out of range" in str(python_error.value)
            or "carries a taxon" in str(python_error.value)):
        # a child id outside [-1, m), or an internal node with a taxon,
        # named alike by both
        assert python_error.type is ValueError
        assert str(python_error.value) == str(c_error.value)


@pytest.mark.skipif("fast" not in available_backends(),
                    reason="compiled kernel not built")
def test_kernel_result_does_not_depend_on_the_input_numbering():
    # finalized trees come in post-order, which the kernel's renumbering
    # keeps; a shuffled numbering makes it reorder every node
    run = _fast.run_enumeration
    rng = SplitMix64(0x5F1E)
    for i in range(12):
        n = 3 + rng.randrange(60)
        p, q = generate_pair(GeneratorConfig(
            n=n, seed=rng.next_u64(), k=rng.randrange(n + 1),
            shape=SHAPES[i % len(SHAPES)]))
        want, got = [], []
        d, frames, work, violations, per_dr = run(
            p.left, p.right, p.taxon, p.root,
            q.left, q.right, q.taxon, q.root, n, want.extend)
        out = run(*shuffled_arena(p, rng.next_u64()),
                  *shuffled_arena(q, rng.next_u64()), n, got.extend)
        assert out[:4] == (d, frames, work, violations)
        assert out[4] == per_dr
        assert got == want and len(want) == 3 * d


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
args = (p.left, p.right, p.taxon, p.root,
        q.left, q.right, q.taxon, q.root, len(p.taxa))
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
# the same pair in a shuffled numbering
p, q = generate_pair(GeneratorConfig(n=80, seed=3, k=9))
args = (p.left, p.right, p.taxon, p.root,
        q.left, q.right, q.taxon, q.root, len(p.taxa))
assert run(*{shuffled!r}) == run(*args)
for args in {malformed!r}:
    try:
        run(*args)
    except ValueError:
        continue
    raise AssertionError(args)
# slots of another type, typecode, stride or length
args = {cherry!r} * 2 + (2,)
for at in (0, 1, 2, 4, 5, 6):
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
    for slot in (p.left, p.right, p.taxon, q.left, q.right, q.taxon):
        slot.append(-1)
out = run(p.left, p.right, p.taxon, p.root,
          q.left, q.right, q.taxon, q.root, 40, grow)
assert out[0] == math.comb(40, 3) and len(p.left) == 79 + 3

# the Newick pass: every error, every prefix of a text with comments,
# lengths and quoted labels, with and without an index, and an index
# that lacks one label or holds one more
from tripcon.newick import serialize_newick
parse = _kernels._fast.parse_newick
for text in {errors!r}:
    assert parse(text, None) is None, text
text = {mixed!r}
full = parse(text, None)
names, index = full[9], full[10]
short = dict(index)
del short[names[-1]]
assert parse(text, short) is None
assert parse(text, dict(index, extra=len(index))) is None
assert parse(text, index)[:9] == full[:9]
for k in range(len(text)):
    for idx in (None, index):
        out = parse(text[:k], idx)
        assert out is None or out[:9] == full[:9], text[:k]
# 10^5 open groups grow the group stack
n = 100_000
out = parse(serialize_newick(caterpillar_tree(n)), None)
assert len(out[0]) == 2 * n - 1 and max(out[6]) == n - 1

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


@needs_compiler
def test_kernel_runs_clean_under_asan_and_ubsan(fresh_copy):
    source, cache, _ = fresh_copy
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    libasan = subprocess.run(cc + ["-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip(f"{cc[0]} does not provide libasan")
    built = _entry(cache, source) / f"_fast{EXT_SUFFIX}"
    built.parent.mkdir(parents=True)
    proc = subprocess.run(
        cc + ["-O1", "-g", "-fsanitize=address,undefined",
              "-fno-sanitize-recover=undefined", "-fPIC", "-shared",
              "-I" + sysconfig.get_paths()["include"], str(source),
              "-o", str(built)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

    env = dict(os.environ, PYTHONPATH=str(source.parents[2]),
               XDG_CACHE_HOME=str(cache), LD_PRELOAD=libasan,
               ASAN_OPTIONS="detect_leaks=0",
               # objects from the system allocator, so that ASan sees a read
               # past the buffer of a str or an array
               PYTHONMALLOC="malloc")
    p, q = generate_pair(GeneratorConfig(n=80, seed=3, k=9))
    shuffled = shuffled_arena(p, 1) + shuffled_arena(q, 2) + (len(p.taxa),)
    names = [f"t{i}" if i % 3 else f"sp. {i}'s \u00e9" for i in range(200)]
    mixed = decorated_newick(random_binary_tree(
        GeneratorConfig(n=200, seed=5), TaxonSet(names)), 9)
    cases = source.parents[3] / "join_cases.json"
    cases.write_text(json.dumps(join_cases()), encoding="utf-8")
    script = SANITIZED.format(built=str(built), malformed=MALFORMED,
                              cherry=CHERRY, shuffled=shuffled, mixed=mixed,
                              errors=[text for text, _, _ in ERROR_TABLE],
                              cases=str(cases), bad_offsets=BAD_OFFSETS,
                              two=TWO_TAXA)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "Sanitizer" not in proc.stderr, proc.stderr[-4000:]
    assert "runtime error" not in proc.stderr, proc.stderr[-4000:]
    assert proc.stdout.split() == ["ok"]

"""Command-line interface.

Subcommands: conflicts, count, check, bench, gen.  Results go to stdout,
statistics and diagnostics to stderr, so the tool composes in pipelines.

Exit codes: 0 success; 1 check found a fast/oracle mismatch; 2 I/O or
parse error (also bad usage, such as a size or backend the generator or
kernel selection rejects, and a count past 2^63 - 1); 3 taxon mismatch or
non-binary input.
"""

import argparse
import functools
import json
import os
import sys
import time
from array import array
from itertools import accumulate

from ._kernels import _fast, resolve as resolve_backend
from .enumeration import TRI_CHUNK, enumerate_conflicts
from .errors import (
    NonBinaryError,
    TaxonMismatchError,
    TripconError,
)
from .generator import (
    SHAPES,
    GeneratorConfig,
    SplitMix64,
    generate_pair,
    random_binary_tree,
)
from .newick import parse_newick, serialize_newick
from .oracle import enumerate_bruteforce
from .tree import TaxonSet, Tree

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BAD_TREES = 3

# check refuses to run the cubic oracle above this n unless --oracle is given
ORACLE_GUARD = 512


class _UsageError(TripconError):
    pass


def _read(path):
    """The text of ``path``; undecodable bytes are an input error that
    names the first one and its offset in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # utf-8-sig drops the byte order mark some editors put first
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec counts from after a byte order mark
        at = exc.start + len(data) - len(exc.object)
        raise TripconError(f"{path}: not UTF-8: byte 0x{data[at]:02x} "
                           f"at offset {at} ({exc.reason})") from None


def _load_pair(path_p, path_q, label_order=False):
    """Parse both trees over one TaxonSet.  With ``label_order``, taxon
    ids are the ranks of the sorted labels, so that ids a < b < c are in
    label order; both taxon columns are then renumbered by those ranks."""
    p, taxa = parse_newick(_read(path_p))
    q, _ = parse_newick(_read(path_q), taxa)
    if label_order:
        names = sorted(taxa.names)
        index = dict(zip(names, range(len(names))))
        # rank[-1] keeps internal nodes -1
        rank = list(map(index.__getitem__, taxa.names)) + [-1]
        taxa = TaxonSet._of(None, tuple(names))
        p, q = (Tree._of(array("i", [rank[t] for t in tree.taxon]), taxa)
                for tree in (p, q))
    return p, q, taxa


def _join(ids, lead, mid, end):
    """The text of one chunk of flat ids: id k is written as
    ``(lead, mid, end)[k % 3][ids[k]]``.  An id outside its table raises
    IndexError.  ``_fast.join_triples`` is its compiled twin, over the
    same tables packed by ``_pack``."""
    if ids and min(ids) < 0:
        raise IndexError(f"taxon id {min(ids)} is out of range")
    parts = [None] * len(ids)
    parts[0::3] = map(lead.__getitem__, ids[0::3])
    parts[1::3] = map(mid.__getitem__, ids[1::3])
    parts[2::3] = map(end.__getitem__, ids[2::3])
    return "".join(parts)


def _pack(lead, mid, end):
    """The three label tables of a chunk join as ``_fast.join_triples``
    reads them: one str of their 3n pieces and an ``array('q')`` of the
    3n + 1 offsets that bound them."""
    pieces = lead + mid + end
    return "".join(pieces), array("q", accumulate(map(len, pieces), initial=0))


def _chunk_writer(write, mid, end, first="", sep=""):
    """A sink that writes each triple of flat ids a, b, c as
    ``mid[a] + mid[b] + end[c]``, after ``first`` for the first triple
    and after ``sep`` for every other one.

    Each chunk, an ``array('i')``, is one ``write`` of one string, joined
    over three tables that are built here only: ``sep + mid`` for the
    first id of each triple, ``mid`` and ``end``.  The first chunk then
    trades its leading ``sep`` for ``first``.  Whenever the compiled
    module is loaded, whatever the kernel, ``_pack`` packs the tables once
    for ``_fast.join_triples``; without it, ``_join`` reads them as
    lists."""
    lead = [sep + label for label in mid]
    if _fast is None:
        def join(ids):
            return _join(ids, lead, mid, end)
    else:
        text, offsets = _pack(lead, mid, end)

        def join(ids):
            return _fast.join_triples(ids, text, offsets)

    def sink(ids):
        nonlocal first
        if first is None:
            write(join(ids))
        else:
            write(first + join(ids)[len(sep):])
            first = None

    return sink


def _sort_triples(flat, n, sink):
    """Hand ``sink`` the triples of the flat ids ``flat``, all below n,
    in ascending order and in a kernel's chunks; each triple a, b, c is
    sorted as the one int (a·n + b)·n + c."""
    it = iter(flat)
    keys = [(a * n + b) * n + c for a, b, c in zip(it, it, it)]
    keys.sort()
    nn = n * n
    step = TRI_CHUNK // 3
    for k in range(0, len(keys), step):
        part = keys[k:k + step]
        ids = array("i", [0]) * (3 * len(part))
        ids[0::3] = array("i", [x // nn for x in part])
        ids[1::3] = array("i", [x // n % n for x in part])
        ids[2::3] = array("i", [x % n for x in part])
        sink(ids)


def _backend(name):
    """The kernel to run; an unknown or unbuilt one is a usage error,
    reported on one line."""
    try:
        return resolve_backend(name)
    except (ValueError, ImportError) as exc:
        raise _UsageError(" ".join(str(exc).split())) from None


def _config(n, seed, shape, k):
    try:
        return GeneratorConfig(n=n, seed=seed, shape=shape, k=k)
    except ValueError as exc:
        raise _UsageError(f"bad --n/--k: {exc}") from None


def _stats_line(instr):
    return (
        f"n={instr.n_taxa}\td={instr.d}\tframes_opened={instr.frames_opened}"
        f"\tnodes_touched={instr.nodes_touched}"
    )


def _cmd_conflicts(args):
    backend = _backend(args.backend)
    # ids in label order: each triple a < b < c is a line in label order
    p, q, taxa = _load_pair(args.tree_p, args.tree_q, label_order=True)
    write = sys.stdout.write
    if args.format == "json":
        # the head goes out with the first triple, so an error before it
        # leaves stdout empty
        head = f'{{"n": {p.n_leaves}, "conflicts": ['
        labels = [json.dumps(name) for name in taxa.names]
        sink = _chunk_writer(write, [label + ", " for label in labels],
                             [label + "]" for label in labels],
                             head + "[", ", [")
    else:  # text and tsv are the same tab-separated triple lines
        for name in taxa.names:
            if "\t" in name or "\n" in name or "\r" in name:
                raise _UsageError(
                    f"label {name!r} holds a tab, line feed or carriage "
                    f"return, which would break the tab-separated lines of "
                    f"--format {args.format}; use --format json")
        sink = _chunk_writer(write, [name + "\t" for name in taxa.names],
                             [name + "\n" for name in taxa.names])
    if args.sorted:
        flat = array("i")
        instr = enumerate_conflicts(p, q, backend=backend, sink=flat.extend)
        _sort_triples(flat, len(taxa), sink)
    else:
        instr = enumerate_conflicts(p, q, backend=backend, sink=sink)
    if args.format == "json":
        stats = {"frames_opened": instr.frames_opened,
                 "nodes_touched": instr.nodes_touched, "backend": instr.backend}
        write(f'{"" if instr.d else head}], "d": {instr.d}, '
              f'"stats": {json.dumps(stats)}}}\n')
    if args.stats:
        print(_stats_line(instr), file=sys.stderr)
    return EXIT_OK


def _cmd_count(args):
    backend = _backend(args.backend)
    p, q, _ = _load_pair(args.tree_p, args.tree_q)
    instr = enumerate_conflicts(p, q, backend=backend)
    if args.format == "json":
        sys.stdout.write(json.dumps({"n": instr.n_taxa, "d": instr.d}) + "\n")
    else:
        sys.stdout.write(f"{instr.d}\n")
    if args.stats:
        print(_stats_line(instr), file=sys.stderr)
    return EXIT_OK


def _check_one(p, q, taxa, force_oracle, label, backend=None):
    if p.n_leaves > ORACLE_GUARD and not force_oracle:
        raise _UsageError(
            f"{label}: n={p.n_leaves} exceeds {ORACLE_GUARD}; the cubic oracle "
            "would be expensive, rerun with --oracle to force it"
        )
    instr = enumerate_conflicts(p, q, collect=True, backend=backend)
    listed = set(instr.conflicts)
    if len(listed) != len(instr.conflicts):
        print(f"{label}: duplicate emissions detected", file=sys.stderr)
        return False
    oracle = enumerate_bruteforce(p, q)
    if listed == oracle:
        return True
    missing = sorted(oracle - listed)
    extra = sorted(listed - oracle)
    print(f"{label}: MISMATCH ({instr.backend} d={len(listed)}, "
          f"oracle d={len(oracle)})", file=sys.stderr)
    for tag, sample in (("missing", missing), ("extra", extra)):
        for trip in sample[:5]:
            names = ",".join(taxa.name_of(t) for t in trip)
            print(f"{label}:   {tag} {names}", file=sys.stderr)
    return False


# The options of ``check --pairs`` with their defaults; with two tree files
# none of them may be given.
_CHECK_PAIRS = {"n": 30, "k": 3, "seed": 1, "shape": "uniform-attachment"}


def _cmd_check(args):
    backend = _backend(args.backend)
    ok = True
    if args.tree_p:
        if not args.tree_q:
            raise _UsageError("check needs two tree files (or --pairs)")
        if args.pairs:
            raise _UsageError("check takes two tree files or --pairs, "
                              "not both")
        for name in _CHECK_PAIRS:
            if getattr(args, name) is not None:
                raise _UsageError(f"--{name} goes with --pairs, not with "
                                  "two tree files")
        p, q, taxa = _load_pair(args.tree_p, args.tree_q)
        ok = _check_one(p, q, taxa, args.oracle, "pair", backend)
    else:
        if args.pairs < 1:
            raise _UsageError("--pairs must be at least 1")
        n, k, seed, shape = (
            _CHECK_PAIRS[name] if getattr(args, name) is None
            else getattr(args, name) for name in _CHECK_PAIRS)
        rng = SplitMix64(seed)
        for i in range(args.pairs):
            p, q = generate_pair(_config(n, rng.next_u64(), shape, k))
            if not _check_one(p, q, p.taxa, args.oracle, f"pair[{i}]",
                              backend):
                ok = False
    if ok:
        print("check: OK", file=sys.stderr)
        return EXIT_OK
    return EXIT_MISMATCH


def _cmd_bench(args):
    try:
        sizes = [int(x) for x in args.n.split(",") if x]
        swaps = [int(x) for x in args.k.split(",") if x]
    except ValueError as exc:
        raise _UsageError(f"bad --n/--k list: {exc}") from None
    if not sizes or not swaps:
        raise _UsageError("--n and --k must each list at least one value")
    names = [b.strip() for b in (args.backends or "").split(",") if b.strip()]
    backends = [_backend(b) for b in names or [args.backend]]
    rng = SplitMix64(args.seed)
    cfgs = [_config(n, rng.next_u64(), args.shape, k)
            for n in sizes for k in swaps]
    out = sys.stdout
    cols = ["backend", "shape", "n", "k", "seed", "d", "frames",
            "nodes_touched", "ratio", "ms"]
    if args.oracle:
        cols += ["oracle_d", "oracle_ms"]
    out.write("\t".join(cols) + "\n")
    for cfg in cfgs:
        p, q = generate_pair(cfg)
        oracle_cells = []
        if args.oracle:
            t0 = time.perf_counter()
            oracle_d = len(enumerate_bruteforce(p, q))
            oracle_cells = [str(oracle_d),
                            f"{(time.perf_counter() - t0) * 1e3:.3f}"]
        for backend in backends:
            t0 = time.perf_counter()
            instr = enumerate_conflicts(p, q, backend=backend)
            ms = (time.perf_counter() - t0) * 1e3
            ratio = instr.nodes_touched / (cfg.n + instr.d)
            row = [instr.backend, args.shape, str(cfg.n), str(cfg.k),
                   str(cfg.seed), str(instr.d), str(instr.frames_opened),
                   str(instr.nodes_touched), f"{ratio:.3f}", f"{ms:.3f}"]
            out.write("\t".join(row + oracle_cells) + "\n")
    return EXIT_OK


def _cmd_gen(args):
    cfg = _config(args.n, args.seed, args.shape, args.k)
    if args.k:
        _, tree = generate_pair(cfg)
    else:
        tree = random_binary_tree(cfg)
    sys.stdout.write(serialize_newick(tree) + "\n")
    return EXIT_OK


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and kept: building
    its five subcommands costs about a millisecond."""
    top = argparse.ArgumentParser(
        prog="tripcon",
        description="Enumerate rooted triplet conflicts between two "
                    "phylogenetic trees in O(n + d) time.",
    )
    top.add_argument("--backend", default=None, choices=("fast", "pure"),
                     help="kernel to use (default: fast when compiled)")
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("conflicts", help="list all conflict triples")
    pc.add_argument("tree_p")
    pc.add_argument("tree_q")
    pc.add_argument("--sorted", action="store_true",
                    help="sort output lines lexicographically")
    pc.add_argument("--stats", action="store_true",
                    help="print a summary line to stderr")
    pc.add_argument("--format", default="text", choices=("text", "tsv", "json"))
    pc.set_defaults(func=_cmd_conflicts)

    pn = sub.add_parser("count", help="print only the number of conflicts")
    pn.add_argument("tree_p")
    pn.add_argument("tree_q")
    pn.add_argument("--stats", action="store_true")
    pn.add_argument("--format", default="text", choices=("text", "json"))
    pn.set_defaults(func=_cmd_count)

    pk = sub.add_parser("check",
                        help="compare the enumerator against the oracle")
    pk.add_argument("tree_p", nargs="?")
    pk.add_argument("tree_q", nargs="?")
    pk.add_argument("--oracle", action="store_true",
                    help=f"run the cubic oracle even when n > {ORACLE_GUARD}")
    pk.add_argument("--pairs", type=int, default=0,
                    help="instead of files: number of generated pairs")
    pk.add_argument("--n", type=int, help="with --pairs: leaves per tree "
                    f"(default {_CHECK_PAIRS['n']})")
    pk.add_argument("--k", type=int, help="with --pairs: leaf swaps from P "
                    f"to Q (default {_CHECK_PAIRS['k']})")
    pk.add_argument("--seed", type=int, help="with --pairs: corpus seed "
                    f"(default {_CHECK_PAIRS['seed']})")
    pk.add_argument("--shape", choices=SHAPES, help="with --pairs: tree "
                    f"shape (default {_CHECK_PAIRS['shape']})")
    pk.set_defaults(func=_cmd_check)

    pb = sub.add_parser("bench", help="run a seeded corpus and report TSV")
    pb.add_argument("--shape", default="uniform-attachment", choices=SHAPES)
    pb.add_argument("--n", default="1024,4096",
                    help="comma-separated taxa counts")
    pb.add_argument("--k", default="1,16",
                    help="comma-separated leaf-swap counts")
    pb.add_argument("--seed", type=int, default=1)
    pb.add_argument("--backends", default=None,
                    help="comma-separated kernel list (default: the active one)")
    pb.add_argument("--oracle", action="store_true",
                    help="also run and time the cubic oracle per instance")
    pb.set_defaults(func=_cmd_bench)

    pg = sub.add_parser("gen", help="emit a seeded Newick tree")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--seed", type=int, default=1)
    pg.add_argument("--shape", default="uniform-attachment", choices=SHAPES)
    pg.add_argument("--k", type=int, default=0,
                    help="emit the k-leaf-swap perturbation of the seeded tree")
    pg.set_defaults(func=_cmd_gen)
    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NonBinaryError, TaxonMismatchError) as exc:
        print(f"tripcon: {exc}", file=sys.stderr)
        return EXIT_BAD_TREES
    except BrokenPipeError:
        # the downstream reader (head, etc.) closed the pipe: not an error;
        # point stdout at devnull so interpreter shutdown stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (TripconError, OSError, OverflowError) as exc:
        print(f"tripcon: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

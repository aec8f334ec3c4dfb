"""tripcon benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload count-large --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 7        # every workload, one process each

A run imports the package from ``src/`` and sets up its inputs several
times (``setup_s`` is the median), then repeats passes of the workload
for ``--seconds`` (at least ``MIN_PASSES``), and then checks every
answer.  With ``--trace 1`` it adds one traced pass after the timed ones
and reports per-layer self times and counts instead; the spans go to
``.perfbench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

import argparse
import gc
import gzip
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

MIN_PASSES = 3
SETUP_REPEATS = 5   # at least this many set-ups,
SETUP_MIN_S = 2.0   # and until they have taken this long together

# per-layer metric -> (layer, field, unit); the field is summed over spans
LAYER_METRICS = {
    "newick.parse_s": ("newick.parse", "self_s", "s"),
    "newick.parse_calls": ("newick.parse", "calls", "count"),
    "newick.bytes_in": ("newick.parse", "bytes_in", "B"),
    "tree.finalize_s": ("tree.finalize", "self_s", "s"),
    "tree.finalize_calls": ("tree.finalize", "calls", "count"),
    "tree.finalize_nodes": ("tree.finalize", "nodes", "count"),
    "lca.build_s": ("lca.build", "self_s", "s"),
    "lca.build_calls": ("lca.build", "calls", "count"),
    "lca.tour_len": ("lca.build", "tour_len", "count"),
    "equivalence.build_s": ("equivalence.build", "self_s", "s"),
    "equivalence.build_calls": ("equivalence.build", "calls", "count"),
    "restrict.induced_s": ("restrict.induced", "self_s", "s"),
    "restrict.induced_calls": ("restrict.induced", "calls", "count"),
    "restrict.leaves": ("restrict.induced", "leaves", "count"),
    "enumeration.partition_s": ("enumeration.partition", "self_s", "s"),
    "enumeration.partition_calls": ("enumeration.partition", "calls", "count"),
    "enumeration.root_product_s": ("enumeration.root_product", "self_s", "s"),
    "enumeration.root_product_emitted": ("enumeration.root_product", "emitted", "count"),
    "enumeration.lsc_s": ("enumeration.lsc", "self_s", "s"),
    "enumeration.lsc_calls": ("enumeration.lsc", "calls", "count"),
    "enumeration.lsc_emitted": ("enumeration.lsc", "emitted", "count"),
    "enumeration.lsc_work": ("enumeration.lsc", "work", "count"),
    "enumeration.entry_s": ("enumeration.entry", "self_s", "s"),
    "enumeration.entry_calls": ("enumeration.entry", "calls", "count"),
    "kernel.run_s": ("kernel.run", "self_s", "s"),
    "kernel.frames_opened": ("enumeration.entry", "frames_opened", "count"),
    "kernel.nodes_touched": ("enumeration.entry", "nodes_touched", "count"),
    "kernel.triples_emitted": ("enumeration.entry", "triples_emitted", "count"),
    "kernel.work_base": ("enumeration.entry", "work_base", "count"),
    "kernel.dr_sum_mismatch": ("enumeration.entry", "dr_sum_mismatch", "count"),
    "cli.self_s": ("cli", "self_s", "s"),
}


def _purge_package():
    """Drop the package's Python modules so the next import runs them
    again; compiled extensions stay, as they cannot be loaded twice."""
    for name, mod in list(sys.modules.items()):
        if name == "tripcon" or name.startswith("tripcon."):
            if str(getattr(mod, "__file__", "")).endswith(".py"):
                del sys.modules[name]


def _setup(workload_cls, seed, workdir):
    """Import the package and build the inputs at least SETUP_REPEATS times
    and for at least SETUP_MIN_S; return the last workload and the median
    set-up seconds."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        wl = None  # one copy of the inputs at a time, for peak_rss_mb
        _purge_package()
        gc.collect()
        t0 = time.perf_counter()
        importlib.import_module("tripcon")
        importlib.import_module("tripcon.cli")
        wl = workload_cls(workdir)
        wl.setup(seed)
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times)


def _measure(wl, seconds):
    """Passes for ``seconds`` (at least MIN_PASSES): list of pass samples."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()
        passes.append(wl.run_pass())
    return passes


def _end_to_end(passes, setup_s, peak_rss_kb):
    """Every pass repeats the same call, so rates are per median pass."""
    wall = statistics.median(sum(dt for dt, _ in p) for p in passes)
    return {
        "wall_s": (wall, "s"),
        "triples_per_s": (sum(d for _, d in passes[0]) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _traced_pass(wl, backend=None):
    from tracing import Tracer

    tracer = Tracer()
    gc.collect()
    tracer.install()
    try:
        samples = wl.run_pass(backend=backend)
    finally:
        tracer.uninstall()
    return tracer, sum(dt for dt, _ in samples)


def _per_layer(tracer, traced_s, untraced_s):
    layers, top = tracer.layers()
    out = {}
    for metric, (layer, field, unit) in LAYER_METRICS.items():
        out[metric] = (layers[layer][field] if layer in layers else 0.0, unit)
    base = out["kernel.work_base"][0]
    out["kernel.work_ratio"] = (out["kernel.nodes_touched"][0] / base if base else 0.0,
                                "ratio")
    out["trace.pass_s"] = (traced_s, "s")
    out["trace.remainder_s"] = (traced_s - top, "s")
    if untraced_s is not None:
        out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def _write_trace(path, context, traced):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"context": context}) + "\n")
        for label, tracer in traced:
            origin = tracer.spans[0][1] if tracer.spans else 0.0
            for rec in tracer.records(origin):
                rec["pass"] = label
                fh.write(json.dumps(rec) + "\n")


def _commit(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _context(root, args):
    import numpy

    tripcon = importlib.import_module("tripcon")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": tripcon.active_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
    }


def _print_metrics(name, metrics):
    for key, (value, unit) in metrics.items():
        print(f"# {name}  {key} = {value:.6g} {unit}")


def run_one(root, args):
    import workloads

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl, setup_s = _setup(workloads.WORKLOADS[args.workload], args.seed, workdir)
        context = _context(root, args)
        print("# context " + json.dumps(context))
        passes = _measure(wl, args.seconds)
        walls = [round(sum(dt for dt, _ in p), 4) for p in passes]
        print(f"# {args.workload}  pass seconds = {walls}")
        if args.trace:
            untraced_s = statistics.median(sum(dt for dt, _ in p) for p in passes)
            tracer, traced_s = _traced_pass(wl)
            metrics = _per_layer(tracer, traced_s, untraced_s)
            traced = [(context["backend"], tracer)]
            if context["backend"] != "pure":
                # The compiled kernel bypasses the layer functions; a pure
                # pass attributes the kernel's work to them.
                pure, pure_s = _traced_pass(wl, backend="pure")
                _print_metrics(f"{args.workload} (backend=pure)",
                               _per_layer(pure, pure_s, None))
                traced.append(("pure", pure))
            outdir = os.path.join(root, ".perfbench_out")
            os.makedirs(outdir, exist_ok=True)
            _write_trace(os.path.join(
                outdir, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"),
                context, traced)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = _end_to_end(passes, setup_s, peak_kb)
        attempted, failed = wl.verify()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_metrics(args.workload, metrics)
    print(f"# {args.workload}  failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tripcon", "__init__.py")):
        print("perfbench: run from the repository root (no src/tripcon here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)
    return run_one(root, args)


if __name__ == "__main__":
    sys.exit(main())

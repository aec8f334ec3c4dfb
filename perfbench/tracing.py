"""Spans around the package's layer functions, recorded from outside.

``Tracer.install`` replaces each layer function listed in ``LAYERS`` with
a wrapper that records a span (name, start, end, parent span, request)
and a few counts taken from the call's arguments or result, then puts
the originals back on ``uninstall``.  Nothing under ``src/`` is edited.

Three traps decide how functions are found and replaced:

* ``import tripcon.lca as m`` yields the re-exported *function* ``lca``,
  so modules are fetched with ``importlib.import_module``;
* ``tripcon.cli``, ``tripcon/__init__`` and others bind functions at
  import time, so every ``tripcon.*`` module attribute that *is* the
  original function is replaced, not only the defining one (the pure
  kernel imports its layer functions at call time and so sees the
  replacement either way);
* ``Tree._from_structure`` is a classmethod, so its wrapper is
  re-wrapped in ``classmethod``.

A layer's self time is its spans' durations minus the time covered by
their direct child spans.
"""

import importlib
import sys
import time
from collections import defaultdict


def _len_arg(pos):
    return lambda args, result: len(args[pos])


# (module, attribute, layer, {count name: f(args, result)}).  Counts that
# describe the kernel's work are read from the Instrumentation that
# enumerate_conflicts returns, so they do not depend on the kernel's
# calling convention.
LAYERS = [
    ("tripcon.newick", "parse_newick", "newick.parse",
     {"bytes_in": _len_arg(0)}),
    ("tripcon.tree", "Tree._from_structure", "tree.finalize",
     {"nodes": _len_arg(1)}),
    ("tripcon.lca", "build_lca_index", "lca.build",
     {"tour_len": lambda args, r: len(r.tour)}),
    ("tripcon.equivalence", "build_leaf_equivalence", "equivalence.build", {}),
    ("tripcon.restrict", "induced_subtree", "restrict.induced",
     {"leaves": _len_arg(2)}),
    ("tripcon.enumeration", "partition_leaves", "enumeration.partition", {}),
    ("tripcon.enumeration", "list_common_root_conflicts",
     "enumeration.root_product", {"emitted": lambda args, r: r}),
    ("tripcon.enumeration", "list_subtree_conflicts", "enumeration.lsc",
     {"emitted": lambda args, r: r[0], "work": lambda args, r: r[1]}),
    ("tripcon.enumeration", "enumerate_conflicts", "enumeration.entry", {
        "frames_opened": lambda args, r: r.frames_opened,
        "nodes_touched": lambda args, r: r.nodes_touched,
        "triples_emitted": lambda args, r: r.triples_emitted,
        "work_base": lambda args, r: args[0].n_leaves + r.triples_emitted,
        "dr_sum_mismatch": lambda args, r: int(
            sum(r.per_frame_dr) != r.triples_emitted),
    }),
    ("tripcon._kernels.pure", "run_enumeration", "kernel.run", {}),
    ("tripcon._kernels._fast", "run_enumeration", "kernel.run", {}),
    ("tripcon.cli", "main", "cli", {}),
]


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        # (name, start, end, parent index, request, counts)
        self.spans = []
        self._open = []
        self._undo = []
        self.request = 0

    def _wrap(self, name, fn, counters):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent, self.request, None)
            if counters:
                counts = {k: f(args, result) for k, f in counters.items()}
                spans[idx] = (name, start, end, parent, self.request, counts)
            return result

        return traced

    def install(self):
        for modname, attr, name, counters in LAYERS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue  # e.g. no compiled kernel
            if attr == "Tree._from_structure":
                raw = mod.Tree.__dict__["_from_structure"]
                wrapped = self._wrap(name, raw.__func__, counters)
                mod.Tree._from_structure = classmethod(wrapped)
                self._undo.append((mod.Tree, "_from_structure", raw))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig, counters)
            for m in list(sys.modules.values()):
                mname = getattr(m, "__name__", "")
                if mname != "tripcon" and not mname.startswith("tripcon."):
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def layers(self):
        """Per layer: calls, self seconds and summed counts; plus the
        seconds covered by top-level spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(int))
        top = 0.0
        for i, (name, start, end, parent, _, counts) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            for k, v in (counts or {}).items():
                row[k] += v
            if parent < 0:
                top += end - start
        return out, top

    def records(self, origin):
        """The spans as JSON-ready dicts, times relative to ``origin``."""
        for i, (name, start, end, parent, request, counts) in enumerate(self.spans):
            rec = {"id": i, "parent": parent, "request": request, "name": name,
                   "start_s": start - origin, "end_s": end - origin}
            if counts:
                rec["counts"] = counts
            yield rec

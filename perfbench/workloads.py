"""The two benchmark workloads: the ``tripcon count`` and ``tripcon
conflicts`` paths end to end, from Newick files to printed output.

Each workload builds its inputs from the seed in ``setup``, runs one pass
of program calls in ``run_pass`` (returning one ``(seconds, d)`` sample
per tree pair, timed around the program call alone) and afterwards
judges every call it made in ``verify``, which returns
``(attempted, failed)``.  Answers are checked against references that do
not come from the code path being timed.

The tree shapes of ``count-large`` and ``list-medium`` are the reference
uniform-attachment instances (generator seeds 7 and 11); the benchmark
seed relabels their taxa and swaps children at random.  That changes
every byte of the input files and every node id, but not the number of
conflicts or the work the algorithm does, so runs with different seeds
measure the same amount of work: with the seed choosing the shape, d at
n = 16384, k = 4 ranges over 3.0e8..5.8e8 and the count time over a
factor of two.
"""

import contextlib
import hashlib
import importlib
import io
import os
import traceback
from time import perf_counter as _clock

import instances as inst
from tripcount import Resolver, triplet_distance


def _failed_call():
    traceback.print_exc()
    return None


class _CliPair:
    """One ``tripcon <command> P Q`` call per pass, through ``cli.main``."""

    command = None
    n = shape_seed = swaps = None

    def __init__(self, workdir):
        self.workdir = workdir
        self.cli = importlib.import_module("tripcon.cli")
        self.answers = []

    def setup(self, seed):
        p, q = inst.uniform_pair(self.n, self.shape_seed, self.swaps)
        rng = inst.SplitMix64(seed)
        perm = inst.permutation(self.n, rng)
        self.p = inst.relabel(p, perm, rng)
        self.q = inst.relabel(q, perm, rng)
        self.paths = []
        for tag, t in (("p", self.p), ("q", self.q)):
            path = os.path.join(self.workdir, f"{tag}.nwk")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inst.to_newick(t))
            self.paths.append(path)

    def argv(self, backend):
        pre = ["--backend", backend] if backend else []
        return pre + [self.command] + self.paths

    def expected_d(self):
        return triplet_distance(self.p, self.q, self.n)


class CountLarge(_CliPair):
    """``count`` on n = 16384, k = 4: parse and finalize heavy, no triple
    is materialized."""

    command = "count"
    n, shape_seed, swaps = 16384, 7, 4

    def run_pass(self, backend=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = _clock()
            try:
                rc = self.cli.main(self.argv(backend))
            except Exception:
                rc = _failed_call()
            dt = _clock() - t0
        text = buf.getvalue().strip()
        self.answers.append((rc, text))
        return [(dt, int(text) if text.isdigit() else 0)]

    def verify(self):
        want = str(self.expected_d())
        failed = sum(1 for rc, text in self.answers if rc != 0 or text != want)
        return len(self.answers), failed


class ListMedium(_CliPair):
    """``conflicts`` on n = 512, k = 2 into a file: emission bound."""

    command = "conflicts"
    n, shape_seed, swaps = 512, 11, 2
    sampled = 1000  # lines per output re-resolved independently

    def run_pass(self, backend=None):
        out = os.path.join(self.workdir, "conflicts.txt")
        t0 = _clock()
        with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            try:
                rc = self.cli.main(self.argv(backend))
            except Exception:
                rc = _failed_call()
        dt = _clock() - t0
        with open(out, "rb") as fh:
            data = fh.read()
        lines = data.count(b"\n")
        self.answers.append((rc, lines, hashlib.sha256(data).digest()))
        if len(self.answers) == 1:
            # Kept for the full check in verify(); output order is
            # deterministic, so equal digests cover every later pass.
            os.replace(out, self._first_output())
        return [(dt, lines)]

    def _first_output(self):
        return os.path.join(self.workdir, "conflicts-first.txt")

    def _full_check(self, data, want):
        rows = data.decode("utf-8").splitlines()
        if len(set(rows)) != len(rows) or len(rows) != want:
            return False
        res_p, res_q = Resolver(self.p), Resolver(self.q)
        step = max(1, len(rows) // self.sampled)
        for row in rows[::step]:
            names = row.split("\t")
            if len(names) != 3 or names != sorted(set(names)):
                return False
            try:
                a, b, c = sorted(int(x[1:]) for x in names)
            except ValueError:
                return False
            if res_p.cherry(a, b, c) == res_q.cherry(a, b, c):
                return False
        return True

    def verify(self):
        want = self.expected_d()
        with open(self._first_output(), "rb") as fh:
            full_ok = self._full_check(fh.read(), want)
        digest = self.answers[0][2]
        failed = sum(
            1 for rc, lines, dg in self.answers
            if rc != 0 or lines != want or dg != digest or not full_ok
        )
        return len(self.answers), failed


WORKLOADS = {
    "count-large": CountLarge,
    "list-medium": ListMedium,
}

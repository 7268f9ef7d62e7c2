"""The benchmark's workloads: seeded op lists, their execution and checks.

Each workload turns a seed into a fixed list of ops, built from rounds of a
fixed template so that every prefix of the list has the same mix of op kinds.
Sizes drawn from a range follow a golden-ratio sequence from a seeded start,
so every prefix also covers the range evenly; that keeps latency
percentiles steady from seed to seed. `execute` makes the calls into
parkfun (one span per call), `summarise` reduces the raw result outside the
op's timer, and `check` compares a summary with a reference that shares no
code with the call it checks: the benchmark's own oracles, or a different
parkfun module.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import parkfun as pf
from parkfun import verify

import oracles
from spans import NullTracer

GOLDEN = 0.6180339887498949
SAMPLE = 8  # listed items re-simulated per listing


@dataclass
class Op:
    kind: str
    params: tuple  # plain data: the op list digest is taken over (kind, params)
    args: tuple = ()  # parkfun objects built from params during set-up
    ref: dict = field(default_factory=dict, repr=False)  # cached references


class ChildProcesses:
    """Starts child processes one at a time and records how many were alive
    at once, so a run can show it never loaded more than one extra core."""

    def __init__(self):
        self.alive = 0
        self.peak = 0

    def run(self, argv, **kwargs) -> subprocess.CompletedProcess:
        self.alive += 1
        self.peak = max(self.peak, self.alive)
        try:
            return subprocess.run(argv, capture_output=True, text=True, timeout=120, **kwargs)
        finally:
            self.alive -= 1


CHILDREN = ChildProcesses()


def _spread(rng: random.Random, lo: int, hi: int):
    """Endless sizes in [lo, hi]: a golden-ratio sequence from a seeded start."""
    u = rng.random()
    while True:
        yield lo + int(u * (hi - lo + 1))
        u = (u + GOLDEN) % 1.0


def _random_graph(rng: random.Random, n: int, p: float) -> tuple[int, tuple]:
    edges = tuple(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
    )
    return n, edges


def _fixed_size_graph(rng: random.Random, n: int, m: int) -> tuple[int, tuple]:
    """G(n, m): m edges drawn uniformly, so costs that grow with the edge
    count vary far less from graph to graph than under G(n, p)."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return n, tuple(sorted(rng.sample(pairs, m)))


def _named_graph(family: str, n: int) -> tuple[int, tuple]:
    return n, tuple(sorted(pf.graph_generator(family, n).edges))


def _listing_summary(items, sample_seed: int) -> tuple[int, bool, list]:
    """(length, strictly increasing, seeded sample of items) of a listing."""
    entries = [p.entries for p in items]
    increasing = all(a < b for a, b in zip(entries, entries[1:]))
    picks = random.Random(sample_seed).sample(range(len(entries)), min(SAMPLE, len(entries)))
    return len(entries), increasing, [entries[k] for k in picks]


def _check_listing(summary, expected_len: int, valid) -> str | None:
    length, increasing, sample = summary
    if length != expected_len:
        return f"listed {length} items, reference {expected_len}"
    if not increasing:
        return "listing is not strictly increasing"
    bad = [e for e in sample if not valid(e)]
    return f"listed items fail re-simulation: {bad[:2]}" if bad else None


def _fibre_batch(rng: random.Random, n: int, edges, items: int):
    """Seeded Hamiltonian paths of a graph whose fibres hold between 90% and
    100% of `items` preferences in all, or None when the graph has too few.
    The ceiling keeps the op's peak memory the same from seed to seed."""
    adj = oracles.adjacency(n, edges)
    paths = oracles.hamiltonian_paths(n, adj)
    rng.shuffle(paths)
    batch, total = [], 0
    for word in paths:
        size = oracles.fibre_size(word, adj)
        if total + size <= items:
            batch.append(word)
            total += size
            if total >= 0.9 * items:
                return tuple(batch)
    return None


class Workload:
    name = ""
    rounds = 0  # rounds of the template generated; the op loop wraps around
    round_len = 0
    probe_ref_s = 0.0015  # the usual probe time; op times are scaled to it

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.out_dir = out_dir
        self.prepare()
        self.ops = [op for _ in range(self.rounds) for op in self.round()]

    def prepare(self) -> None:
        """Inputs shared by the rounds, drawn before the first round."""

    def probe(self) -> float:
        """Seconds taken by a fixed task that gauges machine speed."""
        return oracles.speed_probe()

    def round(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def execute(self, op: Op, tr, op_id: int):
        raise NotImplementedError

    def summarise(self, op: Op, raw):
        return raw

    def check(self, op: Op, summary) -> str | None:
        raise NotImplementedError


class CountSweep(Workload):
    """Brute counting over [6]^6 on seeded graphs."""

    name = "count_sweep"
    rounds = 40
    round_len = 8
    N = 6
    NAMED = ("cycle", "complete", "path")

    def round(self):
        rng, n = self.rng, self.N
        named = [_named_graph(f, n) for f in rng.sample(self.NAMED, 2)]
        graphs = [("count", _random_graph(rng, n, 0.5)) for _ in range(3)]
        graphs += [("count", named[0]), ("fibres", named[1])]
        graphs += [("fibres", _random_graph(rng, n, 0.5)) for _ in range(2)]
        ops = [Op(kind, g, (pf.make_graph(*g),)) for kind, g in graphs]
        ops.append(Op("cyclic", (n,)))
        rng.shuffle(ops)
        return ops

    def warm_up(self):
        g = pf.graph_generator("path", 3)
        pf.count_fpf_brute(g), pf.brute_fibre_counts(g), pf.count_cyclic_brute(3)

    def execute(self, op, tr, op_id):
        prefs = self.N ** self.N
        if op.kind == "count":
            with tr.span("friendship.count_fpf_brute", op_id, prefs=prefs):
                return pf.count_fpf_brute(op.args[0])
        if op.kind == "fibres":
            with tr.span("friendship.brute_fibre_counts", op_id, prefs=prefs):
                return pf.brute_fibre_counts(op.args[0])
        with tr.span("cyclic.count_cyclic_brute", op_id, prefs=prefs):
            return pf.count_cyclic_brute(self.N)

    def check(self, op, summary):
        if op.kind == "cyclic":
            expected = {pf.cyclic_total_count(self.N), oracles.cyclic_total(self.N)}
            return None if expected == {summary} else f"{summary} != {expected}"
        g = op.args[0]
        if "total" not in op.ref:
            op.ref["total"] = pf.total_fpf_count(g)
        total = op.ref["total"]
        if op.kind == "count":
            expected = {total}
            n, edges = op.params
            if len(edges) == n * (n - 1) // 2:
                expected.add((n + 1) ** (n - 1))
            if op.params == _named_graph("cycle", n):
                expected.add(pf.cycle_total_count(n))
            return None if expected == {summary} else f"{summary} != {expected}"
        if sum(summary.values()) != total:
            return f"fibres sum to {sum(summary.values())}, reference {total}"
        for word, count in summary.items():
            size = pf.fibre_size(pf.Permutation(word), g)
            if count != size:
                return f"fibre of {word} has {count} preferences, fibre_size {size}"
        return None


class EnumerateSweep(Workload):
    """The same sweeps, listing every preference; fibre listings; verify."""

    name = "enumerate_sweep"
    rounds = 32
    round_len = 13
    N = 6
    FIBRE_ITEMS = 16_000  # about as many as the largest enumerate_fpf listing

    def round(self):
        rng, n = self.rng, self.N
        ops = []
        for g in [_random_graph(rng, n, 0.5) for _ in range(4)] + [
            _named_graph(rng.choice(CountSweep.NAMED), n)
        ]:
            ops.append(Op("fpf", (*g, rng.randrange(2**32)), (pf.make_graph(*g),)))
        ops.append(Op("cyclic", (n, rng.randrange(2**32))))
        fig4 = (8, tuple(sorted(pf.fig4_graph().edges)))
        batches = []
        while len(batches) < 3:
            g = _random_graph(rng, 8, 0.5) if batches else fig4
            batch = _fibre_batch(rng, *g, self.FIBRE_ITEMS)
            if batch:
                batches.append((g, batch))
        for g, batch in batches:
            args = (pf.make_graph(*g), [pf.Permutation(w) for w in batch])
            ops.append(Op("fibre", (*g, batch, rng.randrange(2**32)), args))
        # Two props suites in thirteen ops put p90 inside their cluster of
        # latencies instead of on its edge.
        ops += [Op("verify", ("props", 4)), Op("verify", ("props", 4))]
        ops += [Op("verify", ("cycle", 6)), Op("verify", ("bijection", 5))]
        rng.shuffle(ops)
        return ops

    def warm_up(self):
        g = pf.graph_generator("path", 3)
        list(pf.enumerate_fpf(g)), list(pf.enumerate_cyclic_pf(3))
        list(pf.enumerate_fibre(pf.Permutation((1, 2, 3)), g))
        verify.run_suite("bijection", [2])

    def execute(self, op, tr, op_id):
        if op.kind == "fpf":
            with tr.span("friendship.enumerate_fpf", op_id, prefs=self.N ** self.N) as a:
                items = list(pf.enumerate_fpf(op.args[0]))
                a["items"] = len(items)
            return items
        if op.kind == "cyclic":
            with tr.span("cyclic.enumerate_cyclic_pf", op_id) as a:
                items = list(pf.enumerate_cyclic_pf(self.N))
                a["items"] = len(items)
            return items
        if op.kind == "fibre":
            graph, perms = op.args
            out = []
            for perm in perms:
                with tr.span("structure.enumerate_fibre", op_id) as a:
                    items = list(pf.enumerate_fibre(perm, graph))
                    a["items"] = len(items)
                out.append(items)
            return out
        suite, n = op.params
        with tr.span(f"verify.{suite}", op_id):
            return verify.run_suite(suite, [n])

    def summarise(self, op, raw):
        if op.kind == "verify":
            return [(c.name, c.passed) for c in raw]
        seed = op.params[-1]
        if op.kind == "fibre":
            return [_listing_summary(items, seed + k) for k, items in enumerate(raw)]
        return _listing_summary(raw, seed)

    def check(self, op, summary):
        if op.kind == "verify":
            failing = [name for name, passed in summary if not passed]
            if not summary or failing:
                return f"verify {op.params} failed checks {failing}"
            return None
        if op.kind == "cyclic":
            n = self.N

            def cyclic(e):
                word = oracles.classical_outcome(e)
                return word is not None and word == oracles.increasing_rotation(word[0], n)

            return _check_listing(summary, pf.cyclic_total_count(n), cyclic)
        n, edges = op.params[:2]
        adj = oracles.adjacency(n, edges)
        if op.kind == "fpf":
            if "total" not in op.ref:
                op.ref["total"] = pf.total_fpf_count(op.args[0])
            valid = lambda e: oracles.friendship_outcome(e, adj) is not None  # noqa: E731
            return _check_listing(summary, op.ref["total"], valid)
        for word, part in zip(op.params[2], summary):
            valid = lambda e: oracles.friendship_outcome(e, adj) == word  # noqa: E731
            err = _check_listing(part, oracles.fibre_size(word, adj), valid)
            if err:
                return f"fibre of {word}: {err}"
        return None


class StructureForms(Workload):
    """Fibres and closed forms at sizes no sweep reaches."""

    name = "structure_forms"
    rounds = 64
    round_len = 12
    POOL = 16
    G8_EDGES = 17  # density 0.6 of the 28 possible edges
    PSI_N = 1000
    INV_N = 3000

    def prepare(self):
        self.totals = _spread(self.rng, 500, 2000)
        large = _spread(self.rng, 300, 1000)
        # Pools are taken in turn, so every prefix of the op list uses them evenly.
        self.large = itertools.cycle([self._large_graph(next(large)) for _ in range(self.POOL)])
        self.psi = itertools.cycle([self._psi_input() for _ in range(self.POOL)])
        self.perms = itertools.cycle([self._perm() for _ in range(self.POOL // 2)])

    def _large_graph(self, n):
        """A seeded graph with a known Hamiltonian path plus ~3n chords."""
        rng = self.rng
        path = list(range(1, n + 1))
        rng.shuffle(path)
        edges = {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}
        for _ in range(3 * n):
            u, v = rng.sample(range(1, n + 1), 2)
            edges.add((min(u, v), max(u, v)))
        edges = tuple(sorted(edges))
        op = Op("fibre_size", (n, edges, tuple(path)))
        op.args = (pf.Permutation(tuple(path)), pf.make_graph(n, edges))
        return op

    def _psi_input(self):
        """A host permutation cut into seeded blocks, one of its components,
        and the cyclic preference that maps to it."""
        rng, n = self.rng, self.PSI_N
        cuts = sorted(rng.sample(range(1, n), 4))
        host = []
        for lo, hi in zip([0] + cuts, cuts + [n]):
            block = list(range(lo + 1, hi + 1))
            rng.shuffle(block)
            host += block
        start, end = rng.choice(oracles.component_blocks(host))
        pref = oracles.cyclic_preference(host, start)
        component = pf.Component(pf.Permutation(tuple(host)), start, end)
        return (tuple(host), start, end, pref), (pf.ParkingPreference(pref), component)

    def _perm(self):
        word = list(range(1, self.INV_N + 1))
        self.rng.shuffle(word)
        counts = oracles.inversion_counts(word)
        return (tuple(word), counts), (pf.Permutation(tuple(word)), pf.InversionSequence(counts))

    def round(self):
        rng = self.rng
        ops = []
        for _ in range(3):
            g = _fixed_size_graph(rng, 8, self.G8_EDGES)
            ops.append(Op("total", g, (pf.make_graph(*g),)))
        ops += [next(self.large), next(self.large)]
        ops += [Op("cycle_total", (next(self.totals),)), Op("cyclic_total", (next(self.totals),))]
        params, args = next(self.psi)
        ops += [Op("psi", params, args), Op("psi_inverse", params, args)]
        params, args = next(self.perms)
        ops += [Op("inv_seq", params, args), Op("perm_from_inv_seq", params, args)]
        ops.append(Op("inv_seq", *next(self.perms)))
        rng.shuffle(ops)
        return ops

    def warm_up(self):
        pf.total_fpf_count(pf.graph_generator("path", 4))
        pf.fibre_size(pf.Permutation((1, 2, 3)), pf.graph_generator("path", 3))
        pf.cycle_total_count(10), pf.cyclic_total_count(10)
        c = pf.psi(pf.ParkingPreference((1, 1)))
        pf.psi_inverse(c), pf.perm_from_inv_seq(pf.inv_seq(pf.Permutation((2, 1))))

    def _own_paths(self, op):
        return lambda: len(oracles.hamiltonian_paths(op.params[0], oracles.adjacency(*op.params)))

    def execute(self, op, tr, op_id):
        kind, args = op.kind, op.args
        if kind == "total":
            with tr.span("structure.total_fpf_count", op_id, paths=self._own_paths(op)):
                return pf.total_fpf_count(args[0])
        if kind == "fibre_size":
            with tr.span("structure.fibre_size", op_id):
                return pf.fibre_size(*args)
        if kind == "cycle_total":
            with tr.span("cycle.cycle_total_count", op_id):
                return pf.cycle_total_count(op.params[0])
        if kind == "cyclic_total":
            with tr.span("cyclic.cyclic_total_count", op_id):
                return pf.cyclic_total_count(op.params[0])
        if kind == "psi":
            with tr.span("cyclic.psi", op_id):
                return pf.psi(args[0])
        if kind == "psi_inverse":
            with tr.span("cyclic.psi_inverse", op_id):
                return pf.psi_inverse(args[1])
        if kind == "inv_seq":
            with tr.span("cyclic.inv_seq", op_id):
                return pf.inv_seq(args[0])
        with tr.span("cyclic.perm_from_inv_seq", op_id):
            return pf.perm_from_inv_seq(args[1])

    @staticmethod
    def _plain(op, raw):
        """The part of a result its reference pins down, as plain data."""
        if op.kind == "psi":
            return raw.start, raw.end, pf.psi_inverse(raw).entries
        if op.kind in ("psi_inverse", "inv_seq"):
            return raw.entries
        if op.kind == "perm_from_inv_seq":
            return raw.word
        return raw

    def _reference(self, op):
        kind, params = op.kind, op.params
        if kind == "total":
            return oracles.count_fpf(params[0], oracles.adjacency(*params))
        if kind == "fibre_size":
            return oracles.fibre_size(params[2], oracles.adjacency(*params[:2]))
        if kind == "cycle_total":
            return oracles.cycle_total(params[0])
        if kind == "cyclic_total":
            return oracles.cyclic_total(params[0])
        if kind == "psi":
            host, start, end, pref = params
            return start, end, pref
        if kind == "psi_inverse":
            return params[3]
        if kind == "inv_seq":
            return params[1]
        return params[0]

    def check(self, op, summary):
        if "value" not in op.ref:
            op.ref["value"] = self._reference(op)
        expected = op.ref["value"]
        if self._plain(op, summary) == expected:
            return None
        return f"{op.kind} {op.params[:1]}: result differs from the reference"


def _ints(text: str) -> list[int]:
    return [int(x) for x in re.findall(r"\d+", text)]


def _line(stdout: str, prefix: str) -> str:
    return next((ln for ln in stdout.splitlines() if ln.startswith(prefix)), "")


class CliCalls(Workload):
    """Sequential `python -m parkfun` calls, one child process at a time."""

    name = "cli_calls"
    rounds = 16
    round_len = 13
    # A bare interpreter start gauges the speed of process start-up, which
    # the in-process probe does not: run right after a child, it reads the
    # caches the child left cold.
    probe_ref_s = 0.065
    FILE_N = 7

    def prepare(self):
        self.root = Path(pf.__file__).resolve().parents[2]
        n, rng = self.FILE_N, self.rng
        path = list(range(1, n + 1))
        rng.shuffle(path)
        edges = {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}
        edges |= set(_random_graph(rng, n, 0.3)[1])
        self.file_graph = (n, tuple(sorted(edges)))
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.graph_file = self.out_dir / f"cli-graph-{self.seed}.txt"
        self.graph_file.write_text(
            f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in self.file_graph[1])
        )
        self.fig4 = (8, tuple(sorted(pf.fig4_graph().edges)))
        env = dict(os.environ)
        env.pop("PARKFUN_BRUTE_CAP", None)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.env = env

    def _fibre_member(self, n, edges, word):
        """A preference drawn from the fibre of `word`, by the own oracle."""
        intervals = oracles.fibre_intervals(word, oracles.adjacency(n, edges))
        return tuple(self.rng.randint(lo, hi) for lo, hi in intervals)

    def _rotation(self, n):
        start = self.rng.randint(1, n)
        word = oracles.increasing_rotation(start, n)
        return word if self.rng.random() < 0.5 else tuple(reversed(word))

    def _host(self, n):
        host = list(range(1, n + 1))
        cut = self.rng.randint(1, n - 1)
        head, tail = host[:cut], host[cut:]
        self.rng.shuffle(head)
        self.rng.shuffle(tail)
        host = tuple(head + tail)
        start, _ = self.rng.choice(oracles.component_blocks(host))
        return host, start

    def round(self):
        rng = self.rng
        ops = []
        n = rng.randint(5, 9)
        while True:
            pref = tuple(rng.randint(1, n) for _ in range(n))
            if oracles.classical_outcome(pref):
                break
        ops.append(Op("park_classical", (pref,)))
        n = rng.randint(4, 9)
        cycle = _named_graph("cycle", n)
        word = self._rotation(n)
        ops.append(Op("park_cycle", (n, cycle[1], self._fibre_member(*cycle, word))))
        fn, fedges = self.file_graph
        word = rng.choice(oracles.hamiltonian_paths(fn, oracles.adjacency(fn, fedges)))
        ops.append(Op("park_file", (fn, fedges, self._fibre_member(fn, fedges, word))))
        word = rng.choice(oracles.hamiltonian_paths(8, oracles.adjacency(*self.fig4)))
        ops.append(Op("fibre_count", (word,)))
        n = rng.randint(4, 9)
        ops.append(Op("fibre_sets", (n, self._rotation(n))))
        ops.append(Op("count_cyclic", (rng.randint(4, 12),)))
        ops.append(Op("count_both", (5,)))
        host, start = self._host(10)
        ops.append(Op("psi", (host, start)))
        host, start = self._host(9)
        ops.append(Op("psi_inverse", (host, start)))
        ops.append(Op("verify", ("table1",)))
        # Two of the thirteen ops make two calls each, so p90 falls inside
        # their cluster instead of on the edge between one call and two.
        ops += [Op("json_validate", (rng.randint(4, 12),)) for _ in range(2)]
        ops.append(Op("refusal", (9,)))
        rng.shuffle(ops)
        return ops

    def argv(self, op) -> list[str]:
        p = op.params
        words = lambda w: ",".join(map(str, w))  # noqa: E731
        if op.kind == "park_classical":
            return ["park", "classical", "-p", words(p[0])]
        if op.kind == "park_cycle":
            return ["park", "friendship", "-g", f"cycle:{p[0]}", "-p", words(p[2])]
        if op.kind == "park_file":
            return ["park", "friendship", "-g", f"file:{self.graph_file}", "-p", words(p[2])]
        if op.kind == "fibre_count":
            return ["fibre", "-g", "fig4", "-o", words(p[0]), "--count"]
        if op.kind == "fibre_sets":
            return ["fibre", "-g", f"cycle:{p[0]}", "-o", words(p[1]), "--sets"]
        if op.kind == "count_cyclic":
            return ["count", "cyclic", "-n", str(p[0]), "--formula"]
        if op.kind == "count_both":
            return ["count", "fpf", "-g", f"cycle:{p[0]}", "--both"]
        if op.kind == "psi":
            return ["bijection", "psi", "-p", words(oracles.cyclic_preference(*p))]
        if op.kind == "psi_inverse":
            return ["bijection", "psi-inverse", "--perm", words(p[0]), "--start", str(p[1])]
        if op.kind == "verify":
            return ["verify", p[0]]
        if op.kind == "json_validate":
            return ["count", "cyclic", "-n", str(p[0]), "--formula", "--json"]
        return ["count", "fpf", "-g", f"complete:{p[0]}", "--brute"]

    def call(self, tr, op_id, argv, stdin=None):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with tr.span(f"cli.{argv[0]}", op_id) as a:
            proc = CHILDREN.run(
                [sys.executable, "-m", "parkfun", *argv],
                input=stdin, env=self.env, cwd=self.root,
            )
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            a["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            a["refused"] = proc.returncode == 2 and "exceeds the cap" in proc.stderr
        return proc.returncode, proc.stdout, proc.stderr

    def probe(self):
        t0 = time.perf_counter()
        CHILDREN.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.root)
        return time.perf_counter() - t0

    def warm_up(self):
        self.call(NullTracer(), -1, ["park", "classical", "-p", "1"])

    def execute(self, op, tr, op_id):
        first = self.call(tr, op_id, self.argv(op))
        if op.kind != "json_validate":
            return [first]
        return [first, self.call(tr, op_id, ["validate-report"], stdin=first[1])]

    def check(self, op, summary):
        code, out, err = summary[0]
        p = op.params
        want_code = 2 if op.kind == "refusal" else 0
        if code != want_code:
            return f"{op.kind}: exit {code}, expected {want_code}: {err.strip()[:120]}"
        if op.kind == "park_classical":
            ok = _ints(_line(out, "outcome:")) == list(oracles.classical_outcome(p[0]))
        elif op.kind in ("park_cycle", "park_file"):
            adj = oracles.adjacency(*p[:2])
            ok = _ints(_line(out, "outcome:")) == list(oracles.friendship_outcome(p[2], adj))
        elif op.kind == "fibre_count":
            ok = _ints(_line(out, "fibre size:")) == [oracles.fibre_size(p[0], oracles.adjacency(*self.fig4))]
        elif op.kind == "fibre_sets":
            adj = oracles.adjacency(*_named_graph("cycle", p[0]))
            want = []
            for car, (lo, hi) in enumerate(oracles.fibre_intervals(p[1], adj), start=1):
                want += [car, lo] if lo == hi else [car, lo, hi]
            ok = [x for ln in out.splitlines() if ln.startswith("S_") for x in _ints(ln)] == want
        elif op.kind == "count_cyclic":
            ok = _ints(_line(out, "formula:")) == [oracles.cyclic_total(p[0])]
        elif op.kind == "count_both":
            want = oracles.cycle_total(p[0])
            ok = (_ints(_line(out, "formula:")) == [want] and _ints(_line(out, "brute:")) == [want]
                  and _line(out, "match:") == "match: yes")
        elif op.kind == "psi":
            host, start = p
            end = dict(oracles.component_blocks(host))[start]
            ok = _ints(_line(out, "component:"))[-2:] == [start, end]
        elif op.kind == "psi_inverse":
            ok = _ints(_line(out, "preference:")) == list(oracles.cyclic_preference(*p))
        elif op.kind == "verify":
            counts = _ints(out.splitlines()[-1]) if out.strip() else []
            ok = len(counts) == 2 and counts[0] == counts[1] > 0
        elif op.kind == "json_validate":
            try:
                ok = json.loads(out)["result"]["formula"] == oracles.cyclic_total(p[0])
            except (ValueError, KeyError, TypeError):
                ok = False
            ok = ok and summary[1][0] == 0 and summary[1][1].strip() == "ok"
        else:
            ok = "exceeds the cap" in err
        return None if ok else f"{op.kind} {self.argv(op)}: unexpected output {out.strip()[-160:]!r}"


WORKLOADS = {w.name: w for w in (CountSweep, EnumerateSweep, StructureForms, CliCalls)}

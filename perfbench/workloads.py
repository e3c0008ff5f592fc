"""Inputs, timed items and output checks of the four benchmark workloads.

A workload is a list of items.  Each item is one call a user makes: a
labeled sweep of one (r, d, n) through the public API, one ``hyperind`` CLI
command run in-process, or one ``canonical_form`` call.  A pass runs every
item once; the benchmark times passes and checks every output against
``refs``.

Why each workload exists:

* ``sweep`` -- the everyday counterexample hunt over labeled ranges.
  Enumeration does most of the work and counting plus verdicts on tens of
  thousands of tiny graphs do the rest, so it exposes per-call overhead.
* ``iso`` -- ``enumerate --up-to-iso --check-conjecture`` plus
  ``canonical_form`` on symmetric constructions: canonical labeling dominates.
* ``proof`` -- ``verify-proof --json`` on random quasi-bipartite instances:
  the exact joint distribution and its marginals dominate time and memory.
* ``count`` -- ``count`` on cycles, random quasi-bipartite instances and a
  band of sizes on both sides of ``count_auto``'s brute/branch threshold:
  branch-and-reduce dominates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import hyperind as hi
from hyperind import cli

import refs

WORKLOADS = ("sweep", "iso", "proof", "count")

#: The seed whose large random count answers are pinned in expected.json.
COMMITTED_SEED = 0

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

SWEEP_RANGES = [(2, 1, 10), (2, 2, 9), (2, 3, 8), (3, 1, 12), (3, 2, 6)]
ISO_RANGES = [(2, 2, 3, 7), (2, 3, 4, 6), (3, 2, 6, 6), (3, 3, 6, 6)]
PROOF_SHAPES = [(3, 2, 6), (3, 2, 7), (2, 3, 10), (4, 2, 5)]  # (r, d, |A|)
# C_38, the slowest count item on every seed, takes about a second.  The pass
# stays short enough for three passes in a run.
CYCLES = range(34, 39)
# Random quasi-bipartite count instances, (r, d, |A|, copies).  A random
# instance's count_branch time varies by a quarter or more with its labeling,
# so many mid-size copies keep the pass time steady from seed to seed, and
# every one stays faster than C_38.
COUNT_SHAPES = [(3, 2, 11, 4), (3, 2, 12, 6), (4, 2, 9, 6)]
BAND = range(15, 23)  # n on both sides of count_auto's threshold of 20
BAND_SHAPES = [(2, 2), (2, 3), (3, 2), (4, 2)]
BAND_COPIES = 4

#: Wrapped functions that must record calls in a traced pass.
EXPECTED_CALLS = {
    "sweep": ("enumeration.enumerate_regular", "verification.check_conjecture",
              "counting.count_auto", "counting.count_brute"),
    "iso": ("cli.main", "enumeration.enumerate_regular", "core.canonical_form",
            "hgio.write_hypergraph", "hgio.read_hypergraph",
            "verification.check_conjecture"),
    "proof": ("cli.main", "hgio.read_hypergraph",
              "verification.verify_proof_steps", "core.quasi_bipartition",
              "verification.joint_distribution", "verification.marginal",
              "verification.entropy"),
    "count": ("cli.main", "hgio.read_hypergraph", "counting.count_auto",
              "counting.count_branch", "counting.count_brute"),
}

#: The layer each workload is built to stress.
PREDICTED_LAYER = {"sweep": "enumeration", "iso": "core",
                   "proof": "verification", "count": "counting"}


# ---------------------------------------------------------------------------
# Items


@dataclass(frozen=True)
class SweepItem:
    """Labeled sweep of one (r, d, n): enumerate, then a verdict per graph."""

    name: str
    r: int
    d: int
    n: int

    def key(self):
        return (self.r, self.d, self.n)

    def run(self) -> tuple[int, int, int]:
        violations = equalities = 0

        def visit(g):
            nonlocal violations, equalities
            v = hi.check_conjecture(g)
            violations += not v.holds
            equalities += v.equality

        emitted = hi.enumerate_regular(hi.EnumSpec(r=self.r, d=self.d, n=self.n),
                                       visit)
        return emitted, violations, equalities


@dataclass(frozen=True)
class CliItem:
    """One ``hyperind`` command, run in-process with stdin from a string."""

    name: str
    argv: tuple[str, ...]
    stdin: str = ""
    graph: hi.Hypergraph | None = None

    def key(self):
        return (self.argv, self.stdin)

    def run(self) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(self.stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(self.argv))
        finally:
            sys.stdin = saved
        if rc != 0 and err.getvalue():
            sys.stderr.write(f"{self.name}: {err.getvalue()}")
        return rc, out.getvalue()


@dataclass(frozen=True)
class CanonItem:
    """One ``canonical_form`` call."""

    name: str
    graph: hi.Hypergraph

    def key(self):
        return (self.graph.n, self.graph.edges)

    def run(self) -> hi.Hypergraph:
        return hi.canonical_form(self.graph)


def _relabel(g: hi.Hypergraph, rng: random.Random) -> hi.Hypergraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return hi.Hypergraph(g.n, [[perm[v] for v in e] for e in g.edges])


def _cycle(n: int) -> hi.Hypergraph:
    return hi.Hypergraph(n, [(i, (i + 1) % n) for i in range(n)])


def _count_item(name: str, g: hi.Hypergraph) -> CliItem:
    return CliItem(name, ("count", "-", "--method", "auto"),
                   hi.write_hypergraph(g), g)


def setup(workload: str, seed: int) -> list:
    """Build the items of a workload.  The same seed gives the same items."""
    rng = random.Random(seed)
    if workload == "sweep":
        items = [SweepItem(f"r{r}d{d}n{n}", r, d, n)
                 for r, d, n_max in SWEEP_RANGES
                 for n in range(r, n_max + 1) if (n * d) % r == 0]
        rng.shuffle(items)  # labeled ranges are fixed; the seed sets the order
        return items
    if workload == "iso":
        items: list = [
            CliItem(f"iso-r{r}d{d}n{n}",
                    ("enumerate", "--r", str(r), "--d", str(d), "--n", str(n),
                     "--up-to-iso", "--check-conjecture", "--workers", "1"))
            for r, d, lo, hi_n in ISO_RANGES for n in range(lo, hi_n + 1)]
        for name, g in [("H(3,4)", hi.build_hrd(3, 4)[0]),
                        ("K5,5", hi.build_complete_r_partite(2, 5)),
                        ("TD3(4)", hi.build_transversal_design_3(4))]:
            items.append(CanonItem(f"canon-{name}", g))
            items.append(CanonItem(f"canon-{name}-relabeled", _relabel(g, rng)))
        return items
    if workload == "proof":
        items = []
        for r, d, num_a in PROOF_SHAPES:
            g = hi.random_quasi_bipartite(r, d, num_a, rng)
            items.append(CliItem(f"proof-r{r}d{d}n{g.n}",
                                 ("verify-proof", "-", "--json"),
                                 hi.write_hypergraph(g), g))
        return items
    if workload == "count":
        items = [_count_item(f"C{n}", _cycle(n)) for n in CYCLES]
        for r, d, num_a, copies in COUNT_SHAPES:
            for i in range(copies):
                g = hi.random_quasi_bipartite(r, d, num_a, rng)
                items.append(_count_item(f"qb-r{r}d{d}n{g.n}-{i}", g))
        for n in BAND:
            for r, d in BAND_SHAPES:
                if n % r == 0 and n // r >= d:
                    for i in range(BAND_COPIES):
                        g = hi.random_quasi_bipartite(r, d, n // r, rng)
                        items.append(_count_item(f"band-r{r}d{d}n{n}-{i}", g))
        return items
    raise ValueError(f"unknown workload {workload!r}")


def digest(items: list) -> str:
    """A hash of the items' inputs, to show that set-up is deterministic."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr((item.name, item.key())).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Expected outputs


@dataclass(frozen=True)
class Expect:
    """How to judge one item's output, and how many items it completes."""

    units: int
    check: Callable[[object, dict], str | None]  # (output, all outputs) -> error


def _equals(want) -> Callable[[object, dict], str | None]:
    return lambda out, _outs: None if out == want else f"got {out!r}, want {want!r}"


def _enumerate_stdout(k: int) -> str:
    return f"emitted: {k}\nchecked: {k}\nviolations: 0\n"


def _canon_check(g: hi.Hypergraph, ind: int, original: str | None):
    degrees = sorted(g.degrees())

    def check(out, outs):
        if (out.n, len(out.edges), sorted(out.degrees())) != (g.n, len(g.edges), degrees):
            return "canonical form changed the vertex count, edge count or degrees"
        if refs.naive_count(out.n, out.edges) != ind:
            return "canonical form changed the independent-set count"
        if original is not None and out != outs.get(original):
            return "canonical form differs from that of the unrelabeled graph"
        return None

    return check


def _proof_check(g: hi.Hypergraph, ind: int):
    r, d = len(g.edges[0]), g.degrees()[0]
    bound = float(format((g.n / (r * d)) * math.log2(refs.hrd_count(r, d)), ".15g"))

    def check(out, _outs):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        rep = json.loads(text)
        want = {"r": r, "d": d, "n": g.n, "ind": str(ind),
                "hrd_bound_bits": bound, "all_passed": True}
        got = {k: rep.get(k) for k in want}
        if got != want:
            return f"report {got}, want {want}"
        if not rep["steps"] or not all(s["pass"] for s in rep["steps"]):
            return "a proof step is missing or failed"
        return None

    return check


def references(workload: str, items: list, seed: int) -> dict[str, Expect]:
    """Expected output of every item, from refs rather than the timed paths."""
    expect: dict[str, Expect] = {}
    if workload == "sweep":
        for it in items:
            want = refs.sweep_expectation(it.r, it.d, it.n)
            expect[it.name] = Expect(want[0], _equals(want))
    elif workload == "iso":
        for it in items:
            if isinstance(it, CliItem):
                r, d, n = (int(it.argv[i]) for i in (2, 4, 6))
                k = refs.iso_class_count(r, d, n)
                expect[it.name] = Expect(k, _equals((0, _enumerate_stdout(k))))
            else:
                g = it.graph
                ind = {"H(3,4)": refs.hrd_count(3, 4),
                       "K5,5": refs.complete_partite_count(2, 5),
                       }.get(it.name.split("-")[1])
                if ind is None:
                    ind = refs.naive_count(g.n, g.edges)
                original = it.name.removesuffix("-relabeled")
                expect[it.name] = Expect(1, _canon_check(
                    g, ind, original if original != it.name else None))
    elif workload == "proof":
        for it in items:
            expect[it.name] = Expect(1, _proof_check(it.graph, hi.count_brute(it.graph)))
    elif workload == "count":
        pinned = (json.loads(EXPECTED_FILE.read_text())["count_seed0"]
                  if seed == COMMITTED_SEED else {})
        relabel_rng = random.Random(f"relabel-{seed}")
        for it in items:
            g = it.graph
            if it.name.startswith("C"):
                value = refs.lucas(g.n)
            elif g.n <= 24:
                value = hi.count_brute(g)
            else:
                h = _relabel(g, relabel_rng)
                value = refs.count_independent(h.n, h.edges)
                if it.name in pinned and str(value) != pinned[it.name]:
                    raise RuntimeError(
                        f"{it.name}: reference {value} differs from the pinned "
                        f"{pinned[it.name]}")
            expect[it.name] = Expect(1, _equals((0, f"{value}\n")))
    return expect


# ---------------------------------------------------------------------------
# Passes


@dataclass
class PassResult:
    start: float  # perf_counter readings
    end: float
    spans: dict[str, tuple[float, float]]  # item name -> (start, end)
    outputs: dict[str, object]

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_pass(items: list, on_item: Callable[[str], None] | None = None) -> PassResult:
    """Run every item once, timing each.  An item that raises records the
    exception as its output, which then fails its check."""
    spans: dict[str, tuple[float, float]] = {}
    outputs: dict[str, object] = {}
    clock = time.perf_counter
    start = clock()
    for item in items:
        if on_item is not None:
            on_item(item.name)
        t0 = clock()
        try:
            outputs[item.name] = item.run()
        except Exception as exc:  # an item's crash is a failed output
            outputs[item.name] = exc
            sys.stderr.write(f"{item.name}: {type(exc).__name__}: {exc}\n")
        spans[item.name] = (t0, clock())
    return PassResult(start, clock(), spans, outputs)


def check_pass(result: PassResult, expect: dict[str, Expect],
               first: PassResult | None = None) -> list[str]:
    """Names of items whose output is wrong, or differs from the first pass."""
    failed = []
    for name, out in result.outputs.items():
        if isinstance(out, Exception):
            err = f"raised {type(out).__name__}: {out}"
        else:
            try:
                err = expect[name].check(out, result.outputs)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                err = f"unreadable output: {exc!r}"
            if err is None and first is not None and out != first.outputs[name]:
                err = "output differs from the first pass"
        if err is not None:
            sys.stderr.write(f"wrong output from {name}: {err}\n")
            failed.append(name)
    return failed


def prefix_share(workload: str) -> tuple[int, int]:
    """(labeled graphs in the largest first-edge chunk, all labeled graphs)
    over the workload's enumeration ranges; (0, 0) if it enumerates nothing.

    Each ``first_edge_choices`` prefix is enumerated on its own, as a
    parallel sweep would hand it to one worker.
    """
    if workload == "sweep":
        specs = [(r, d, n) for r, d, n_max in SWEEP_RANGES for n in range(r, n_max + 1)]
    elif workload == "iso":
        specs = [(r, d, n) for r, d, lo, hi_n in ISO_RANGES for n in range(lo, hi_n + 1)]
    else:
        return 0, 0
    largest = total = 0
    for r, d, n in specs:
        spec = hi.EnumSpec(r=r, d=d, n=n)
        for e in hi.enumeration.first_edge_choices(spec):
            k = hi.enumerate_regular(hi.EnumSpec(r=r, d=d, n=n, prefix=(e,)))
            largest = max(largest, k)
            total += k
    return largest, total

"""Span tracing of hyperind from outside the library.

``installed(tracer)`` replaces each public function listed in ``LAYERS`` with
a wrapper, under every name a hyperind module (or the package) binds it to,
so calls between modules are recorded where the callers make them.  A span is
``[name, start, end, parent, run]``: ``parent`` is the index of the enclosing
span (-1 at the top) and ``run`` names the benchmark item that caused it.
Spans stay in memory until the run writes them out.

Self time is a span's duration minus the time its child spans cover.  The
bit-mask helpers ``mask_of`` and ``vertices_of`` are left unwrapped: they are
called per subset and a span each would cost more than the work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path

LAYERS = {
    "cli": ("main",),
    "enumeration": ("enumerate_regular", "first_edge_choices"),
    "core": ("canonical_form", "quasi_bipartition", "disjoint_union"),
    "hgio": ("read_hypergraph", "write_hypergraph"),
    "counting": ("ind_hrd_formula", "count_auto", "count_brute", "count_branch",
                 "independent_set_masks", "list_independent_sets"),
    "verification": ("infer_uniform_regular", "check_conjecture",
                     "is_union_of_kdd", "compare_constructions",
                     "joint_distribution", "marginal", "entropy",
                     "conditional_entropy", "verify_proof_steps"),
    "constructions": ("build_hrd", "build_complete_r_partite",
                      "build_transversal_design_3", "build_matching",
                      "random_quasi_bipartite"),
}

class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run = ""
        self.graphs = 0  # summed results of enumerate_regular: graphs emitted
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_graphs = name == "enumeration.enumerate_regular"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts_graphs:
                self.graphs += result
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route calls to the functions in LAYERS through the tracer's wrappers
    for the duration of the block."""
    wrappers = {}
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"hyperind.{layer}")
        for fn_name in names:
            fn = getattr(module, fn_name, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{fn_name}", fn))
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "hyperind" and not mod_name.startswith("hyperind."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


def by_function(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per wrapped function: calls, inclusive seconds, self seconds and the
    longest single call."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _parent, _run) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
        dur = end - start
        s["calls"] += 1
        s["s"] += dur
        s["self_s"] += dur - child[i]
        s["max_s"] = max(s["max_s"], dur)
    return stats


def by_layer(stats: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    layers: dict[str, dict[str, float]] = {}
    for name, s in stats.items():
        lay = layers.setdefault(name.split(".")[0], {"calls": 0, "self_s": 0.0})
        lay["calls"] += s["calls"]
        lay["self_s"] += s["self_s"]
    return layers


def _get(stats, name, key):
    return stats.get(name, {}).get(key, 0 if key == "calls" else 0.0)


def unit(metric: str) -> str:
    if metric.endswith((".calls", ".graphs")):
        return "count"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_share"):
        return "ratio"
    return "us" if metric.endswith("us_per_call") else "s"


def layer_metrics(stats: dict, setup_stats: dict, graphs: int,
                  prefix: tuple[int, int], overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from one traced pass and the
    traced set-up before it."""
    layers = by_layer(stats)
    enum_self = layers.get("enumeration", {}).get("self_s", 0.0)
    brute_calls = _get(stats, "counting.count_brute", "calls")
    branch_calls = _get(stats, "counting.count_branch", "calls")
    count_s = _get(stats, "counting.count_brute", "s") + _get(stats, "counting.count_branch", "s")
    largest, total = prefix
    return {
        "enumeration.self_s": enum_self,
        "enumeration.graphs_per_s": graphs / enum_self if enum_self else 0.0,
        "enumeration.graphs": graphs,
        "enumeration.max_prefix_share": largest / total if total else 0.0,
        "core.canonical_form.calls": _get(stats, "core.canonical_form", "calls"),
        "core.canonical_form.s": _get(stats, "core.canonical_form", "s"),
        "core.canonical_form.max_s": _get(stats, "core.canonical_form", "max_s"),
        "core.quasi_bipartition.s": _get(stats, "core.quasi_bipartition", "s"),
        "hgio.s": sum(s["s"] for name, s in stats.items() if name.startswith("hgio.")),
        "counting.brute.calls": brute_calls,
        "counting.brute.s": _get(stats, "counting.count_brute", "s"),
        "counting.branch.calls": branch_calls,
        "counting.branch.s": _get(stats, "counting.count_branch", "s"),
        "counting.branch.max_s": _get(stats, "counting.count_branch", "max_s"),
        "counting.us_per_call": (1e6 * count_s / (brute_calls + branch_calls)
                                 if brute_calls + branch_calls else 0.0),
        "verification.check_conjecture.self_s": _get(stats, "verification.check_conjecture", "self_s"),
        "verification.joint_distribution.s": _get(stats, "verification.joint_distribution", "s"),
        "verification.marginal.calls": _get(stats, "verification.marginal", "calls"),
        "verification.marginal.s": _get(stats, "verification.marginal", "s"),
        "verification.entropy.s": _get(stats, "verification.entropy", "s"),
        "verification.verify_proof_steps.self_s": _get(stats, "verification.verify_proof_steps", "self_s"),
        "cli.self_s": layers.get("cli", {}).get("self_s", 0.0),
        "constructions.s": sum(s["s"] for st in (stats, setup_stats)
                               for name, s in st.items() if name.startswith("constructions.")),
        "trace.overhead_s": overhead_s,
    }


def layer_table(workload: str, stats: dict, wall_s: float) -> list[str]:
    """Lines of a table whose self times add up to the traced pass's wall
    time; the remainder outside every span is the benchmark's own loop."""
    layers = by_layer(stats)
    lines = [f"{'layer':<14}{'calls':>10}{'self_s':>11}{'share':>8}"]
    for name, lay in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<14}{lay['calls']:>10}{lay['self_s']:>11.4f}"
                     f"{lay['self_s'] / wall_s:>8.1%}")
    outside = wall_s - sum(lay["self_s"] for lay in layers.values())
    lines.append(f"{'(benchmark)':<14}{'':>10}{outside:>11.4f}{outside / wall_s:>8.1%}")
    lines.append(f"{'total':<14}{'':>10}{wall_s:>11.4f}{1:>8.1%}  (traced wall_s)")
    lines.append(f"{'function':<44}{'calls':>10}{'s':>11}{'self_s':>11}")
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<44}{s['calls']:>10}{s['s']:>11.4f}{s['self_s']:>11.4f}")
    return [f"[{workload}] {line}" for line in lines]


def write_spans(path: Path, spans: list[list], origin: float, meta: dict) -> None:
    """Write spans as JSON, with names and runs interned and times in
    seconds from the start of the traced pass."""
    names: dict[str, int] = {}
    runs: dict[str, int] = {}
    rows = [[names.setdefault(name, len(names)), round(start - origin, 7),
             round(end - origin, 7), parent, runs.setdefault(run, len(runs))]
            for name, start, end, parent, run in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**meta, "names": list(names), "runs": list(runs),
                                "fields": ["name", "start", "end", "parent", "run"],
                                "spans": rows}))

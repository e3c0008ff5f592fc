"""Tests of the benchmark itself: its reference answers, its tracer, and the
exact counts each workload records.

Run from the root of the repository:

    python3 -m pytest perfbench/selftest.py          # about two minutes
    python3 -m pytest perfbench/selftest.py -k "not repeat"   # seconds

The file is not named test_*.py, so the repository's own suite does not
collect it.
"""

import itertools
import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hyperind as hi  # noqa: E402
import refs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Exact counts a traced pass records; they must not depend on the run or seed.
EXACT_COUNTS = ("enumeration.graphs", "enumeration.max_prefix_share",
                "core.canonical_form.calls", "counting.brute.calls",
                "counting.branch.calls", "verification.marginal.calls")


def naive_classes(r, d, n):
    """Isomorphism classes by the lexicographically least relabeling."""
    keys = set()
    for edges in refs.naive_regular(r, d, n):
        keys.add(min(tuple(sorted(tuple(sorted(p[v] for v in e)) for e in edges))
                     for p in itertools.permutations(range(n))))
    return len(keys)


@pytest.mark.parametrize("r,d,n", [(2, 1, 2), (2, 1, 6), (2, 1, 8), (2, 2, 3),
                                   (2, 2, 5), (2, 2, 7), (2, 3, 4), (2, 3, 6),
                                   (3, 1, 6), (3, 1, 9)])
def test_labeled_counts_match_naive(r, d, n):
    assert refs.labeled_count(r, d, n) == len(refs.naive_regular(r, d, n))


@pytest.mark.parametrize("r,d,n", [(2, 1, 6), (2, 2, 4), (2, 2, 6), (2, 2, 7),
                                   (2, 3, 6), (3, 1, 6)])
def test_equality_counts_match_naive(r, d, n):
    bound = refs.hrd_count(r, d) ** n
    graphs = refs.naive_regular(r, d, n)
    equal = sum(1 for edges in graphs
                if refs.naive_count(n, edges) ** (r * d) == bound)
    assert refs.sweep_expectation(r, d, n) == (len(graphs), 0, equal)


@pytest.mark.parametrize("r,d,n", [(2, 2, 3), (2, 2, 6), (2, 3, 4), (2, 3, 5),
                                   (2, 3, 6), (3, 2, 6), (3, 3, 6)])
def test_class_counts_match_naive(r, d, n):
    assert refs.iso_class_count(r, d, n) == naive_classes(r, d, n)


def test_closed_forms_match_naive():
    for n in range(3, 13):
        assert refs.lucas(n) == refs.naive_count(n, [(i, (i + 1) % n) for i in range(n)])
    for r, d in [(2, 2), (2, 3), (3, 2), (4, 2)]:
        g, _ = hi.build_hrd(r, d)
        assert refs.hrd_count(r, d) == refs.naive_count(g.n, g.edges)
    for r, t in [(2, 3), (2, 5), (3, 2)]:
        g = hi.build_complete_r_partite(r, t)
        assert refs.complete_partite_count(r, t) == refs.naive_count(g.n, g.edges)


def test_count_independent_matches_naive():
    rng = random.Random(7)
    for _ in range(200):
        n, r = rng.randint(1, 12), rng.randint(1, 3)
        pool = list(itertools.combinations(range(n), min(r, n)))
        edges = rng.sample(pool, rng.randint(0, min(len(pool), 2 * n)))
        assert refs.count_independent(n, edges) == refs.naive_count(n, edges)


def test_self_times_partition_the_root_span():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(20000))

    leaf_w = tracer.wrap("x.leaf", leaf)
    mid_w = tracer.wrap("x.mid", lambda: [leaf_w() for _ in range(3)])
    root_w = tracer.wrap("y.root", lambda: (mid_w(), leaf_w()))
    root_w()
    stats = tracing.by_function(tracer.spans)
    assert [stats[k]["calls"] for k in ("y.root", "x.mid", "x.leaf")] == [1, 1, 4]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 1, 0]
    total = sum(s["self_s"] for s in stats.values())
    assert total == pytest.approx(stats["y.root"]["s"], rel=1e-9)
    layers = tracing.by_layer(stats)
    assert layers["x"]["self_s"] + layers["y"]["self_s"] == pytest.approx(total)


def test_installed_wraps_callers_names_and_restores():
    before = (hi.counting.count_brute, hi.verification.count_brute, hi.cli.main)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert hi.verification.count_brute is hi.counting.count_brute
        assert hi.verification.count_brute is not before[0]
        hi.check_conjecture(hi.build_hrd(2, 2)[0])
    assert (hi.counting.count_brute, hi.verification.count_brute, hi.cli.main) == before
    names = [s[0] for s in tracer.spans]
    assert "verification.check_conjecture" in names
    assert "counting.count_brute" in names


def test_speed_scaling_removes_probes_and_rescales():
    sampler = speed.Sampler()
    ref = speed.PROBE_REF_S
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.times = [ref, ref / 2, ref / 2, 2 * ref]
    # Two probes at twice the reference speed lie inside [0.5, 2.5).
    assert sampler.net(0.5, 2.5) == pytest.approx(2.0 - ref)
    assert sampler.scaled(0.5, 2.5) == pytest.approx(2 * (2.0 - ref))
    # No probe inside: the speeds on either side, 2 and 1/2, are averaged.
    assert sampler.scaled(2.2, 2.8) == pytest.approx(0.6 * 1.25)


def test_sampler_probes_while_active():
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            sum(range(1000))
        end = time.perf_counter()
    assert len(sampler.times) >= 3
    assert 0 < sampler.net(start, end) < end - start
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    got = tracing.layer_metrics({}, {}, 0, (0, 0), 0.0)
    assert sorted(got) == sorted(m["name"] for m in spec["per_layer"])
    assert all(tracing.unit(m["name"]) == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def traced_counts(workload, seed):
    items = workloads.setup(workload, seed)
    expect = workloads.references(workload, items, seed)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = workloads.run_pass(items)
    assert workloads.check_pass(result, expect) == []
    metrics = tracing.layer_metrics(
        tracing.by_function(tracer.spans), {},
        tracer.graphs,
        workloads.prefix_share(workload), 0.0)
    return {k: metrics[k] for k in EXACT_COUNTS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat(workload):
    first = traced_counts(workload, workloads.COMMITTED_SEED)
    assert first == traced_counts(workload, workloads.COMMITTED_SEED + 1)
    assert any(first.values())

"""The hyperind benchmark.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload {sweep,iso,proof,count} --seed N \
        --seconds S --trace {0,1}

One process, serial, driving hyperind's public API and ``hyperind.cli.main``
in-process.  Set-up is timed five times, each in a fresh interpreter.  Then
whole passes over the workload's items run while the next one is expected to
end within S seconds (at least one pass), and every output is checked.

With --trace 0 the last line of stdout is a JSON object carrying the
end-to-end metrics: setup_s, wall_s (median pass), items_per_s, max_item_s
(median over passes of the slowest item) and peak_rss_mb.  The times are
seconds at the reference machine speed, because the host's speed drifts: a
probe sampled every 0.1 s while the passes run scales wall_s and max_item_s
(see speed.py), and a fresh interpreter importing numpy after each set-up
scales setup_s.  With --trace 1 one
untraced pass is followed by one traced pass and the line carries the
per-layer metrics instead; a layer table goes to stdout and the spans to
perfbench/out/.  Earlier stdout lines start with '#'.  Exits 1 if any output
is wrong, 2 if the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
# A fresh interpreter importing numpy, hyperind's one dependency: the
# reference for set-up time, which is mostly imports.
IMPORT_REF = ("import time\nstart = time.perf_counter()\nimport numpy\n"
              "print(time.perf_counter() - start)")
#: Typical seconds of IMPORT_REF on the reference machine.
IMPORT_REF_S = 0.1


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit()}


def measure_setup(workload: str, seed: int) -> tuple[float, float, str]:
    """Median set-up seconds over fresh interpreters, scaled to the reference
    machine and as measured, and the inputs' digest.

    Each set-up is followed by a fresh interpreter running IMPORT_REF, and
    is scaled by IMPORT_REF_S over that reference's time.  Set-up time drifts
    with the host by up to half within minutes, and the dict probe of
    speed.py does not track it, but an interpreter importing numpy does.
    """
    scaled, times, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        ref = subprocess.run([sys.executable, "-c", IMPORT_REF], capture_output=True,
                             text=True, timeout=120, cwd=ROOT, check=True)
        scaled.append(rec["setup_s"] * IMPORT_REF_S / float(ref.stdout))
        times.append(rec["setup_s"])
        digests.add(rec["digest"])
    if len(digests) != 1:
        raise RuntimeError("set-up built different inputs from the same seed")
    return statistics.median(scaled), statistics.median(times), digests.pop()


def timed_passes(workloads, items, seconds: float) -> list:
    """Whole passes while the next is expected to end within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workloads.run_pass(items))
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="hyperind benchmark")
    p.add_argument("--workload", required=True,
                   choices=("sweep", "iso", "proof", "count"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hyperind" / "__init__.py").is_file():
        print(f"error: no hyperind sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import speed
    import tracing
    import workloads

    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine()}
    if args.trace:
        return traced_run(args, meta, workloads, tracing)

    setup_s, setup_wall_s, token = measure_setup(args.workload, args.seed)
    items = workloads.setup(args.workload, args.seed)
    if workloads.digest(items) != token:
        raise RuntimeError("set-up in this process built different inputs")
    with speed.Sampler() as sampler:
        passes = timed_passes(workloads, items, args.seconds)
    rss_mb = peak_rss_mb()  # before the references, which hold their own tables
    expect = workloads.references(args.workload, items, args.seed)
    failed = sum(len(workloads.check_pass(r, expect, passes[0])) for r in passes)
    attempted = len(items) * len(passes)
    pass_s = [sampler.scaled(r.start, r.end) for r in passes]
    wall_s = statistics.median(pass_s)
    units = sum(e.units for e in expect.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "items_per_s": (units / wall_s, "1/s"),
        "max_item_s": (statistics.median(
            max(sampler.scaled(*span) for span in r.spans.values()) for r in passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    meta.update(passes=pass_s, pass_wall_s=[sampler.net(r.start, r.end) for r in passes],
                setup_wall_s=setup_wall_s, probes=len(sampler.times),
                probe_median_s=statistics.median(sampler.times), items_per_pass=units)
    return finish(args, meta, attempted, failed, metrics)


def traced_run(args, meta: dict, workloads, tracing) -> int:
    setup_tracer = tracing.Tracer()
    setup_tracer.run = "setup"
    with tracing.installed(setup_tracer):
        items = workloads.setup(args.workload, args.seed)
    expect = workloads.references(args.workload, items, args.seed)

    untraced = workloads.run_pass(items)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        start = time.perf_counter()
        traced = workloads.run_pass(items, on_item=lambda name: setattr(tracer, "run", name))
    failed = len(workloads.check_pass(untraced, expect))
    failed += len(workloads.check_pass(traced, expect, untraced))

    stats = tracing.by_function(tracer.spans)
    missing = [n for n in workloads.EXPECTED_CALLS[args.workload] if n not in stats]
    if missing:
        print(f"error: traced pass recorded no calls to {', '.join(missing)}",
              file=sys.stderr)
        return 1
    metrics = tracing.layer_metrics(
        stats, tracing.by_function(setup_tracer.spans),
        tracer.graphs,
        workloads.prefix_share(args.workload), traced.wall_s - untraced.wall_s)

    for line in tracing.layer_table(args.workload, stats, traced.wall_s):
        print("# " + line)
    layers = tracing.by_layer(stats)
    top = max(layers, key=lambda name: layers[name]["self_s"])
    predicted = workloads.PREDICTED_LAYER[args.workload]
    print(f"# [{args.workload}] dominant layer by self time: {top} "
          f"(predicted {predicted}: {'confirmed' if top == predicted else 'NOT confirmed'})")
    tracing.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.json",
                        tracer.spans, start,
                        {"workload": args.workload, "seed": args.seed,
                         "wall_s": traced.wall_s})
    meta.update(untraced_wall_s=untraced.wall_s, traced_wall_s=traced.wall_s,
                dominant_layer=top)
    return finish(args, meta, 2 * len(items), failed,
                  {name: (value, tracing.unit(name)) for name, value in metrics.items()})


def finish(args, meta: dict, attempted: int, failed: int, metrics: dict) -> int:
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1))
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

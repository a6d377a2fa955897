"""Child process of the benchmark: set-up, measured passes, traced run.

Run by ``run.py`` from the root of a checkout, which imports trigsum from
``src/``.  Prints one JSON object on its last line of stdout.

    worker.py --workload W --seed S --setup-only     time set-up once
    worker.py --workload W --seed S --seconds T      measured passes
    worker.py --workload W --seed S --trace          traced run
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

SRC = os.path.join(os.getcwd(), "src")
#: Calibration samples taken after a timed set-up.
SETUP_SAMPLES = 15
#: Untimed calibration samples before the sampler starts (first calls are slow).
WARMUP_SAMPLES = 3


def import_trigsum() -> float:
    """Import the package from the checkout's ``src/``; returns the seconds taken."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import trigsum
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(trigsum.__file__))) != SRC:
        raise SystemExit(f"trigsum was imported from {trigsum.__file__}, not from {SRC}")
    return elapsed


def environment() -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _pass_summary(result) -> dict:
    return {"ops": result.ops, "ops_failed": result.failed,
            "unexpected_failures": result.unexpected[:20], "digests": result.digests}


def measured_run(workload: str, seed: int, seconds: float) -> dict:
    """Set-up once, then as many passes as fit in ``seconds`` (at least two).

    Every time is divided by the slowdown of the machine that the
    calibration sampler measured while it ran (see ``calibration.py``):
    a pass's wall time by the slowdown over the pass, a query's latency by
    the slowdown around the query.  The first pass warms up and is checked
    but not timed.  ``wall_s`` is the median over the timed passes; each
    query's latency is its median over them, and the percentiles are taken
    over the queries.
    """
    import calibration
    import workloads

    inputs = workloads.build_inputs(workload, seed)
    for _ in range(WARMUP_SAMPLES):
        calibration.sample()
    sampler = calibration.Sampler(calibration.INTERP_WEIGHT[workload])
    passes, spans = [], []
    with sampler:
        start = sampler.clock()
        # stop before a pass that would end past ``seconds``
        while len(passes) < 2 or spans[-1][1] + (spans[-1][1] - spans[-1][0]) - start < seconds:
            t0 = sampler.clock()
            passes.append(workloads.run_pass(inputs, clock=sampler.clock))
            spans.append((t0, sampler.clock()))
    slowdowns = [sampler.slowdown(t0, t1) for t0, t1 in spans]
    walls = [(t1 - t0) / f for (t0, t1), f in zip(spans, slowdowns)][1:]
    latencies = [statistics.median((b - a) * 1e3 / sampler.slowdown(a, b) for a, b in per_pass)
                 for per_pass in zip(*(p.query_spans for p in passes[1:]))]
    first = passes[0]
    return {
        **_pass_summary(first),
        "passes": len(passes),
        "attempted": sum(p.ops for p in passes),
        "failed": sum(p.failed for p in passes),
        "deterministic": all(p.digests == first.digests for p in passes),
        "unexpected": sum(len(p.unexpected) for p in passes),
        "pass_raw_wall_s": [t1 - t0 for t0, t1 in spans],
        "pass_slowdown": slowdowns,
        "speed_samples": len(sampler.samples),
        "sampler_overhead_s": sampler.overhead_s,
        "wall_s": statistics.median(walls),
        "queries": len(latencies),
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timed_setup(workload: str, seed: int) -> dict:
    """``import trigsum`` and the workload inputs, timed in this fresh process.

    The raw time is divided by the slowdown the calibration kernels
    measure right after it.
    """
    t0 = time.perf_counter()
    import_s = import_trigsum()
    import workloads

    workloads.build_inputs(workload, seed)
    raw = time.perf_counter() - t0
    import calibration

    factor = calibration.slowdown([calibration.sample() for _ in range(SETUP_SAMPLES)],
                                  calibration.INTERP_WEIGHT[workload])
    return {"setup_s": raw / factor, "raw_setup_s": raw, "slowdown": factor, "import_s": import_s}


def _layer_metrics(setup, tracer, counter, result, plain_wall, traced_wall) -> dict:
    """Flat per-layer metrics from the traced set-up, traced pass and count pass."""
    import tracing

    m: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for key, st in tracer.stats.items():
        m[f"{key}.s"] = st.busy
        m[f"{key}.self_s"] = st.self_time
        m[f"{key}.calls"] = st.calls
        layer = key.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + st.self_time
    for layer in (*tracing.LAYERS, "harness"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for name, metric in tracing.ABEL_STAGES.items():
        if f"series.{name}.s" in m:
            m[f"series.abel.{metric}"] = m[f"series.{name}.s"]
    if "series.abel_sum_grid.self_s" in m:
        m["series.abel.products_s"] = m["series.abel_sum_grid.self_s"]
    counts = tracer.counts
    for key in ("series.abel.terms", "series.abel.radial_samples",
                "binom.binom_prefix.coeffs", "suites.cases"):
        m[key] = counts.get(key, 0)
    tabulated = counts.get("series.abel.terms_tabulated", 0)
    m["series.abel.table_use_frac"] = counts["series.abel.terms_used"] / tabulated if tabulated else 0.0
    phase_calls = m.get("phase.series_at_phase.calls", 0)
    m["phase.unique_pair_frac"] = tracer.unique_phase_pairs / phase_calls if phase_calls else 0.0
    m["suites.worst_tol_frac"] = result.worst_tol_frac
    for name, elems in counter.elems.items():
        m[f"dd.{name}.elems"] = elems
    # set-up layers are read from the traced set-up, not the pass; a
    # function that no longer exists leaves its metric absent
    for key in ("closed_forms.special_value_catalog", "suites.build_suite"):
        if key in setup.stats:
            m[f"{key}.s"] = setup.stats[key].busy
    m["trace.wall_s"] = traced_wall
    m["trace.plain_wall_s"] = plain_wall
    m["trace.overhead_s"] = traced_wall - plain_wall
    m["trace.wrapper_s"] = tracer.wrapper_s
    self_total = sum(layer_self.values())
    m["trace.accounted_frac"] = (self_total + tracer.wrapper_s) / traced_wall
    return m


def traced_run(build, import_s: float) -> dict:
    """Plain pass, traced set-up and pass, then the count-only ``dd`` pass.

    ``build()`` makes the workload inputs; ``import_s`` is the time
    ``import trigsum`` took.  Returns the per-layer metrics,
    and whether the three passes agreed bit for bit and every patched
    attribute was restored.
    """
    import tracing
    import workloads
    from trigsum import closed_forms

    inputs = build()
    t0 = time.perf_counter()
    plain = workloads.run_pass(inputs)
    plain_wall = time.perf_counter() - t0

    before = tracing.snapshot()
    # time the catalog as a fresh process builds it
    getattr(closed_forms.special_value_catalog, "cache_clear", lambda: None)()
    setup = tracing.Tracer()
    setup.install()
    try:
        inputs = build()
    finally:
        setup.uninstall()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = workloads.run_pass(inputs, tracer.span)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    counter = tracing.DDCounter()
    counter.install()
    try:
        counted = workloads.run_pass(inputs)
    finally:
        counter.uninstall()
    not_restored = tracing.changed_attributes(before)
    metrics = _layer_metrics(setup, tracer, counter, traced, plain_wall, traced_wall)
    metrics["setup.import_s"] = import_s
    return {
        **_pass_summary(plain),
        "attempted": plain.ops + traced.ops + counted.ops,
        "failed": plain.failed + traced.failed + counted.failed,
        "unexpected": len(plain.unexpected) + len(traced.unexpected) + len(counted.unexpected),
        "deterministic": plain.digests == traced.digests == counted.digests,
        "not_restored": not_restored,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    if args.setup_only:
        print(json.dumps(timed_setup(args.workload, args.seed)))
        return 0
    import_s = import_trigsum()
    import workloads

    if args.trace:
        out = traced_run(lambda: workloads.build_inputs(args.workload, args.seed), import_s)
    else:
        out = measured_run(args.workload, args.seed, args.seconds)
    out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

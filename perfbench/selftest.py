"""Self-test of the benchmark harness.  Run from the root of a checkout:

    python3 perfbench/selftest.py

On a thinned copy of each workload (every case kind and query kind kept)
it checks that tracing changes nothing: the plain, traced and count-only
passes give identical report digests and query output, and every patched
module attribute is restored afterwards.  It also checks that the tracer
reaches every reference to a traced function, that the layer self times
plus harness time account for the traced wall time within 10%, and that
every metric named in BENCHMARK.json is produced.  Passes interrupted by
the calibration sampler must give the same digests too, and the sampler
must leave no ``SIGALRM`` handler or timer behind.  Exits 1 on a failure.
"""

from __future__ import annotations

import json
import signal
import sys

import worker

STRIDE = {"finite_integer": 97, "phase_equivalence": 97, "negative_integer": 21}


def _thin(inputs):
    """Every STRIDE-th case of the swept suites (negative_integer keeps a
    shared angle grid across exponents, so the grid engine still runs) and
    one query per method and side of n = -2."""
    inputs.suites = [(name, cases[::STRIDE.get(name, 1)]) for name, cases in inputs.suites]
    seen, queries = set(), []
    for q in inputs.queries:
        if (q.method, q.n <= -2) not in seen:
            seen.add((q.method, q.n <= -2))
            queries.append(q)
    inputs.queries = queries
    return inputs


def _check_patching(problems: list[str]) -> None:
    import tracing

    originals = tracing.traced_functions()
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, name), value in before.items():
            if any(value is fn for fn in originals.values()):
                if getattr(sys.modules[module], name) is value:
                    problems.append(f"{module}.{name} not patched")
    finally:
        tracer.uninstall()
    problems.extend(f"{name} not restored" for name in tracing.changed_attributes(before))


def _check_sampler(name: str, inputs, digests: dict, problems: list[str]) -> None:
    """Passes under the calibration sampler, until it has taken samples."""
    import calibration
    import workloads

    before = signal.getsignal(signal.SIGALRM)
    with calibration.Sampler(calibration.INTERP_WEIGHT[name]) as sampler:
        while len(sampler.samples) < 2:
            sampled = workloads.run_pass(inputs, clock=sampler.clock)
            if sampled.digests != digests:
                problems.append(f"{name}: a pass under the sampler gives other digests")
                break
    if signal.getsignal(signal.SIGALRM) is not before or signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        problems.append(f"{name}: the sampler left its SIGALRM handler or timer behind")


def main() -> int:
    import_s = worker.import_trigsum()
    import workloads

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems: list[str] = []
    _check_patching(problems)
    for w in bench["workloads"]:
        name = w["name"]
        out = worker.traced_run(lambda: _thin(workloads.build_inputs(name, 1)), import_s)
        m = out["metrics"]
        if not out["deterministic"]:
            problems.append(f"{name}: traced and plain passes differ")
        if out["not_restored"]:
            problems.append(f"{name}: not restored: {out['not_restored']}")
        if out["unexpected"]:
            problems.append(f"{name}: unexpected failures {out['unexpected_failures']}")
        if not 0.9 <= m["trace.accounted_frac"] <= 1.1:
            problems.append(f"{name}: layers account for {m['trace.accounted_frac']:.3f} of traced wall time")
        _check_sampler(name, _thin(workloads.build_inputs(name, 1)), out["digests"], problems)
        missing = [s["name"] for s in bench["per_layer"] if s["name"] not in m]
        if missing:
            problems.append(f"{name}: per-layer metrics not produced: {missing}")
        print(f"{name}: ops={out['ops']} failed={out['ops_failed']} "
              f"accounted={m['trace.accounted_frac']:.4f} digests={len(out['digests'])}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""trigsum benchmark: one command for the end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload abel_grid --seed 1 --seconds 30 --trace 0

Workloads, metrics and units are read from BENCHMARK.json.  Every
measurement runs in a fresh single-threaded child process
(``worker.py``): set-up is timed in SETUP_REPEATS children and reported as
their median, and the measured passes run in one more child so that its
peak resident memory is the workload's own.  Times are normalized by the
machine's speed measured alongside them (``calibration.py``).  With
``--trace 1`` one child makes a plain pass, a traced pass and a count-only
pass and the per-layer metrics are printed instead.

The second-to-last line of stdout is the full record (environment, ops,
report digests, all layer figures); the last line is the result.
A wrong result is reported as ``"correct": false``.  Exits with code 1,
printing no result, when the checkout has no trigsum sources or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0

#: Every child runs single-threaded and with a fixed hash seed.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(spec: dict, value: float) -> dict:
    return {"value": value, "unit": spec["unit"]}


def run(bench: dict, workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "traced": trace}
    if trace:
        out = _child([*common, "--trace"], deadline)
        figures = out.pop("metrics")
        record.update(out, layers=figures)
        metrics = {m["name"]: _metric(m, figures[m["name"]])
                   for m in bench["per_layer"] if m["name"] in figures}
        correct = out["unexpected"] == 0 and out["deterministic"] and not out["not_restored"]
    else:
        setups = [_child([*common, "--setup-only"], deadline) for _ in range(SETUP_REPEATS)]
        out = _child([*common, "--seconds", str(seconds)], deadline)
        figures = {**out, "setup_s": statistics.median(s["setup_s"] for s in setups)}
        record.update(out, setup_s_each=[s["setup_s"] for s in setups],
                      raw_setup_s_each=[s["raw_setup_s"] for s in setups])
        metrics = {m["name"]: _metric(m, figures[m["name"]]) for m in bench["end_to_end"]}
        correct = out["unexpected"] == 0 and out["deterministic"]
    result = {"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="trigsum benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "trigsum", "__init__.py")):
        print("error: run from the root of a trigsum checkout (no src/trigsum here)", file=sys.stderr)
        return 1
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 1
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    try:
        record, result = run(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fixed-work benchmark of stagedml.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` sets the workload up several times, then runs whole
fixed-work rounds of its search for about S seconds (at least two), each
round on inputs made from its own seed, checks every output (rounds with
different seeds must give different journals), and prints the end-to-end
metrics of BENCHMARK.json: median set-up time, median round time and
peak resident memory.

``--trace 1`` runs one traced round between two untraced ones, all three
on the same seed, checks them (the three journals must be identical),
times the fixed-size layer blocks (RNG draws, one MCCV evaluation per
candidate kind) and prints the per-layer metrics of BENCHMARK.json. The
spans are written to ``benchmark/traces/``.

``--workload all`` runs every workload, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy is imported, here and in child processes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_one(args, spec: dict) -> int:
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            metrics, rounds, attempted, failed, lines = measure.traced_run(workload, args.seed)
        else:
            metrics, rounds, attempted, failed, lines = measure.timed_run(workload, args.seed, args.seconds)
    except workloads.CheckFailed as exc:
        print(f"error: {args.workload}: output check failed: {exc}", file=sys.stderr)
        print(_result(False, 1, 0, {}))
        return 0
    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    evals = sorted(len(r.journal) for r in rounds)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds, "
          f"{evals[0]}-{evals[-1]} evaluations per round, attempted={attempted} failed={failed}")
    for line in lines:
        print(line)
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    print(_result(True, attempted, failed, out))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; prints each one's report and a
    combined result whose metric names are prefixed by the workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w['name']}.{k}": v for k, v in result["metrics"].items()})
    print(_result(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "stagedml" / "__init__.py").is_file():
        print(f"error: no stagedml sources at {SRC}", file=sys.stderr)
        return 2
    spec = harness.load_benchmark(ROOT / "BENCHMARK.json")
    sys.path.insert(0, str(SRC))  # before anything imports stagedml
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""One end-to-end search on a synthetic dataset, with the stage trace printed.

Usage: python scripts/demo_run.py [--kind scale_sensitive] [--n 200] [--d 8] [--seed 7] [--global-timeout 120]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stagedml.evaluation import EvalConfig
from stagedml.orchestrator import run, scheme_presets
from stagedml.synth import SYNTH_KINDS, make_dataset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", default="scale_sensitive", choices=list(SYNTH_KINDS))
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--d", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--global-timeout", type=float, default=120.0)
    args = parser.parse_args()

    data = make_dataset(args.kind, args.n, args.d, args.seed)
    cfg = scheme_presets(
        seed=args.seed,
        global_timeout=args.global_timeout,
        eval_config=EvalConfig(seed=args.seed),
    )["full"]
    # keep the demo snappy: small tuning budget, short stage windows
    cfg = replace(
        cfg,
        stages=[
            replace(s, max_evals=8, time_limit=20.0) if s.stage_id == "tuning"
            else replace(s, time_limit=20.0) if s.stage_id == "meta"
            else s
            for s in cfg.stages
        ],
    )
    report = run(data, cfg)

    print(f"dataset: {args.kind} n={args.n} d={args.d} seed={args.seed}")
    for trace in report.stage_traces:
        flags = " (deadline hit)" if trace["deadline_hit"] else ""
        print(f"  {trace['stage_id']:<11} evaluations={trace['evaluations']:<4} added={trace['added']}{flags}")
    if not report.ok:
        print("no model found")
        return 2
    print(f"selection basis: {report.selection_basis}")
    print(f"best candidate:  {report.best_key}")
    print(f"best score:      {report.best_score:.4f}")
    print(f"internal best:   {report.internal_best_key} ({report.internal_best_score:.4f})")
    print(f"wall time:       {report.total_wall_s:.1f}s over {len(report.journal)} evaluations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

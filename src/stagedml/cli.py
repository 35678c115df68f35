"""Command-line surface: run, bench, synth, report.

Commands are thin shells over the library. Exit codes: 0 on success,
2 when a run produced no model at all, 1 on usage or I/O errors.
Flags win over values from an optional JSON config file (a flat object
whose keys are the long flag names with dashes replaced by
underscores, e.g. {"global_timeout": 60, "seed": 7}).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from stagedml import orchestrator, stats, synth, tables
from stagedml.components.registry import registry_default
from stagedml.data import DataFormatError, SplitSpec, load_dataset, save_csv, split
from stagedml.evaluation import EvalConfig, fit_pipeline, error_rate
from stagedml.rng import derive_seed
from stagedml.stages import ValidationConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_MODEL = 2

RESULTS_SCHEMA = ["dataset_id", "approach_id", "split_index", "error"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we map usage errors to 1
        raise UsageError(message)


@dataclass
class RunSpec:
    """Everything one `run` invocation needs, type-checked up front."""

    data: str
    label: str | int = "label"
    format: str | None = None
    preset: str = "full"
    out: str = "out"
    seed: int = 0
    global_timeout: float = 3600.0
    repeats: int = 5
    train_fraction: float = 0.7
    per_eval_timeout: float = 60.0
    n_bar: int = 10000
    m: int = 10
    holdout_fraction: float = 0.10
    tuning_max_evals: int | None = None
    tuning_candidate_seconds: float | None = None
    stage_time_limits: dict = field(default_factory=dict)

    def scheme(self) -> orchestrator.SchemeConfig:
        presets = orchestrator.scheme_presets(
            seed=self.seed,
            global_timeout=self.global_timeout,
            eval_config=EvalConfig(
                repeats=self.repeats,
                train_fraction=self.train_fraction,
                seed=self.seed,
                per_eval_timeout=self.per_eval_timeout,
            ),
            validation_config=ValidationConfig(
                n_bar=self.n_bar, m=self.m, holdout_fraction=self.holdout_fraction
            ),
        )
        if self.preset not in presets:
            raise UsageError(
                f"unknown preset {self.preset!r}; valid presets: {', '.join(presets)}"
            )
        cfg = presets[self.preset]
        stages = []
        for stage in cfg.stages:
            if stage.stage_id == "tuning":
                if self.tuning_max_evals is not None:
                    stage = replace(stage, max_evals=self.tuning_max_evals)
                if self.tuning_candidate_seconds is not None:
                    stage = replace(stage, per_candidate_seconds=self.tuning_candidate_seconds)
            if stage.stage_id in self.stage_time_limits:
                stage = replace(stage, time_limit=self.stage_time_limits[stage.stage_id])
            stages.append(stage)
        return replace(cfg, stages=stages)

    def to_config_echo(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}
        doc["stage_time_limits"] = dict(self.stage_time_limits)
        return doc

    @classmethod
    def from_config_echo(cls, doc: dict) -> "RunSpec":
        return cls(out="out", **{k: v for k, v in doc.items() if k in cls.__dataclass_fields__})


def run_from_spec(spec: RunSpec) -> orchestrator.RunReport:
    dataset = load_dataset(spec.data, format=spec.format, label_column=spec.label)
    return orchestrator.run(dataset, spec.scheme())


def write_run_outputs(report: orchestrator.RunReport, spec: RunSpec, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    doc = report.to_json_dict()
    doc["config_echo"] = spec.to_config_echo()
    with open(outdir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    with open(outdir / "journal.jsonl", "w", encoding="utf-8") as fh:
        for record in report.journal:
            fh.write(json.dumps(record) + "\n")
    with open(outdir / "stages.json", "w", encoding="utf-8") as fh:
        json.dump(report.stage_traces, fh, indent=2)
        fh.write("\n")
    with open(outdir / "registry.json", "w", encoding="utf-8") as fh:
        json.dump(registry_default().to_json_dict(), fh, indent=2)
        fh.write("\n")
    curves = [
        {"filter": c["filter"], "points": c["points"]}
        for trace in report.stage_traces
        for c in trace.get("detail", {}).get("curves", [])
    ]
    if curves:
        with open(outdir / "curves.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("filter,prefix_length,error\n")
            for c in curves:
                for l, s in c["points"]:
                    fh.write(f"{c['filter']},{l},{s!r}\n")


# ---------------------------------------------------------------------------
# subcommands


def _spec_from_args(args, require_data: bool = True) -> RunSpec:
    file_values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
    merged = dict(file_values)
    for f in fields(RunSpec):  # --stage-time-limit is merged below
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            merged[f.name] = flag_value
    limits = dict(merged.get("stage_time_limits") or {})
    for item in args.stage_time_limit or []:
        name, _, seconds = item.partition("=")
        if not seconds:
            raise UsageError("--stage-time-limit expects STAGE=SECONDS")
        limits[name] = float(seconds)
    # full runs every stage; bench shares one spec across presets, so any stage may be named
    stage_ids = [stage.stage_id for stage in orchestrator.scheme_presets()["full"].stages]
    misspelled = sorted(set(limits) - set(stage_ids))
    if misspelled:
        raise UsageError(f"unknown stage ids in stage time limits: {misspelled}; valid ids: {', '.join(stage_ids)}")
    for name, seconds in limits.items():
        # NaN fails every comparison, so "not >= 0" rejects it with the negatives
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)) or not seconds >= 0:
            raise UsageError(f"stage time limit {name}={seconds!r} is not a number of seconds >= 0")
    merged["stage_time_limits"] = limits
    if "data" not in merged:
        if require_data:
            raise UsageError("--data is required")
        merged["data"] = ""
    known = set(RunSpec.__dataclass_fields__)
    unknown = set(merged) - known
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return RunSpec(**merged)


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    spec.scheme()  # type-check preset and overrides before any work
    report = run_from_spec(spec)
    write_run_outputs(report, spec, Path(spec.out))
    if not report.ok:
        print("no model found", file=sys.stderr)
        return EXIT_NO_MODEL
    print(f"{report.best_key}\t{report.best_score:.6f}\t({report.selection_basis})")
    return EXIT_OK


def cmd_bench(args) -> int:
    spec = _spec_from_args(args, require_data=False)
    presets = args.preset_list or ["primitive", "full"]
    datasets = args.data_list
    if not datasets:
        raise UsageError("bench needs at least one --data")
    if args.splits < 1:
        raise UsageError("--splits must be at least 1")
    for preset in presets:
        replace(spec, preset=preset).scheme()  # type-check every preset before any work
    outdir = Path(spec.out)
    outdir.mkdir(parents=True, exist_ok=True)
    registry = registry_default()
    matrix = stats.ResultMatrix()
    journal_path = outdir / "journal.jsonl"
    with open(journal_path, "w", encoding="utf-8") as journal_fh:
        for data_path in datasets:
            dataset = load_dataset(data_path, format=spec.format, label_column=spec.label)
            dataset_id = Path(data_path).stem
            # paired outer splits: their seeds never see the preset name
            split_seeds = [derive_seed(spec.seed, dataset_id, s) for s in range(args.splits)]
            for s, split_seed in enumerate(split_seeds):
                train, test = split(
                    dataset,
                    SplitSpec(train_fraction=args.outer_train_fraction, seed=split_seed),
                    stratified=True,
                )
                for preset in presets:
                    cell_spec = replace(
                        spec, preset=preset, seed=derive_seed(spec.seed, dataset_id, s, preset)
                    )
                    report = orchestrator.run(train, cell_spec.scheme())
                    for record in report.journal:
                        journal_fh.write(json.dumps(record) + "\n")
                    cell_dir = outdir / "runs" / f"{dataset_id}__{preset}__s{s}"
                    cell_dir.mkdir(parents=True, exist_ok=True)
                    doc = report.to_json_dict()
                    test_error = None
                    if report.ok:
                        try:
                            fitted = fit_pipeline(
                                report.best_candidate,
                                train,
                                registry,
                                seed=derive_seed(cell_spec.seed, "refit"),
                            )
                            test_error = error_rate(test.labels, fitted.predict(test.instances))
                        except Exception as exc:
                            print(
                                f"warning: refit failed for {dataset_id}/{preset}/split{s}: {exc}",
                                file=sys.stderr,
                            )
                    if test_error is not None:
                        matrix.add(dataset_id, preset, s, test_error)
                        doc["bench_cell"] = {
                            "dataset_id": dataset_id,
                            "approach_id": preset,
                            "split_index": s,
                            "test_error": test_error,
                        }
                    elif not report.ok:
                        print(
                            f"warning: no model for {dataset_id}/{preset}/split{s}; cell left missing",
                            file=sys.stderr,
                        )
                    with open(cell_dir / "report.json", "w", encoding="utf-8") as fh:
                        json.dump(doc, fh, indent=2)
                        fh.write("\n")
    matrix.to_csv(outdir / "results.csv")
    print(f"results written to {outdir / 'results.csv'}")
    return EXIT_OK


def cmd_synth(args) -> int:
    dataset = synth.make_dataset(args.kind, args.n, args.d, args.seed, informative=args.informative)
    out = Path(args.out)
    if out.parent != Path():
        out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, out)
    print(f"{args.kind} dataset with {dataset.n_rows} rows, {dataset.n_columns} columns -> {out}")
    return EXIT_OK


def _load_matrix(path: Path) -> stats.ResultMatrix:
    if path.is_dir():
        csv_path = path / "results.csv"
        if csv_path.exists():
            return stats.ResultMatrix.from_csv(csv_path)
        matrix = stats.ResultMatrix.from_reports(path)
        if not matrix.datasets():
            raise UsageError(f"{path}: no results.csv and no bench reports found")
        return matrix
    return stats.ResultMatrix.from_csv(path)


def cmd_report(args) -> int:
    matrix = _load_matrix(Path(args.results))
    approaches = matrix.approaches()
    if not approaches:
        raise UsageError("result matrix is empty")
    baseline = args.baseline
    if baseline not in approaches:
        raise UsageError(f"baseline {baseline!r} absent; approaches: {', '.join(approaches)}")
    # the tests are paired; unpaired split lists are a hard error
    for ds in matrix.datasets():
        lengths = {
            len(matrix.get(ds, a)) for a in approaches if matrix.get(ds, a) is not None
        }
        if len(lengths) > 1:
            raise UsageError(f"dataset {ds!r} has unpaired split counts {sorted(lengths)}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    mean_rows = tables.mean_table(matrix, args.alpha, args.delta, args.trim)
    mean_cols = ["dataset_id", "approach_id", "trimmed_mean", "std", "n_splits", "mark"]
    tables.write_csv(outdir / "mean_table.csv", mean_rows, mean_cols)
    (outdir / "mean_table.txt").write_text(tables.render_text(mean_rows, mean_cols), encoding="utf-8")

    variants = [a for a in approaches if a != baseline]
    tour = stats.tournament(matrix, baseline, variants, args.alpha, args.delta, args.trim)
    tour_rows = tables.tournament_rows(tour)
    tour_cols = ["approach_id", "wins", "unique_wins", "losses", "draws"]
    tables.write_csv(outdir / "tournament.csv", tour_rows, tour_cols)
    (outdir / "tournament.txt").write_text(tables.render_text(tour_rows, tour_cols), encoding="utf-8")

    ranges = {}
    for item in args.range or []:
        range_id, _, singles = item.partition("=")
        if not singles:
            raise UsageError("--range expects RANGE_ID=SINGLE1,SINGLE2,...")
        ranges[range_id] = [s for s in singles.split(",") if s]
    if ranges:
        syn = stats.synergy(matrix, ranges, baseline, args.alpha, args.delta, args.trim)
        syn_rows = tables.synergy_rows(syn)
        syn_cols = ["range_id", "wins", "losses", "draws"]
        tables.write_csv(outdir / "synergy.csv", syn_rows, syn_cols)
        (outdir / "synergy.txt").write_text(tables.render_text(syn_rows, syn_cols), encoding="utf-8")
    print(f"tables written to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _add_run_spec_flags(p: _Parser, include_data: bool = True) -> None:
    if include_data:
        p.add_argument("--data", dest="data")
    p.add_argument("--label", dest="label")
    p.add_argument("--format", choices=["csv", "arff"])
    p.add_argument("--out", dest="out")
    p.add_argument("--seed", type=int)
    p.add_argument("--global-timeout", dest="global_timeout", type=float)
    p.add_argument("--repeats", type=int)
    p.add_argument("--train-fraction", dest="train_fraction", type=float)
    p.add_argument("--per-eval-timeout", dest="per_eval_timeout", type=float)
    p.add_argument("--n-bar", dest="n_bar", type=int)
    p.add_argument("--m", dest="m", type=int)
    p.add_argument("--holdout-fraction", dest="holdout_fraction", type=float)
    p.add_argument("--tuning-max-evals", dest="tuning_max_evals", type=int)
    p.add_argument("--tuning-candidate-seconds", dest="tuning_candidate_seconds", type=float)
    p.add_argument("--stage-time-limit", dest="stage_time_limit", action="append", metavar="STAGE=SECONDS")
    p.add_argument("--config", help="JSON config file; flags win over file values")


def build_parser() -> _Parser:
    parser = _Parser(prog="stagedml", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one search run on one dataset")
    _add_run_spec_flags(p_run)
    p_run.add_argument("--preset", dest="preset")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="paired multi-split benchmark")
    _add_run_spec_flags(p_bench, include_data=False)
    p_bench.add_argument("--data", dest="data_list", action="append", default=None)
    p_bench.add_argument("--preset", dest="preset_list", action="append", default=None)
    p_bench.add_argument("--splits", type=int, default=10)
    p_bench.add_argument("--outer-train-fraction", dest="outer_train_fraction", type=float, default=0.7)
    p_bench.set_defaults(func=cmd_bench)

    p_synth = sub.add_parser("synth", help="generate a synthetic CSV dataset")
    p_synth.add_argument("--kind", required=True, choices=list(synth.SYNTH_KINDS))
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--d", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--informative", type=int, default=5)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_report = sub.add_parser("report", help="comparison tables from a result matrix")
    p_report.add_argument("--results", required=True, help="results.csv or a bench output directory")
    p_report.add_argument("--baseline", default="primitive")
    p_report.add_argument("--alpha", type=float, default=stats.DEFAULT_ALPHA)
    p_report.add_argument("--delta", type=float, default=stats.DEFAULT_DELTA)
    p_report.add_argument("--trim", type=float, default=stats.DEFAULT_TRIM)
    p_report.add_argument("--range", action="append", metavar="RANGE_ID=SINGLE1,SINGLE2,...")
    p_report.add_argument("--out", default="tables")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

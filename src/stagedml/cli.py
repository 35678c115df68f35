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
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from stagedml import orchestrator, stats, synth, tables
from stagedml.components.registry import registry_default
from stagedml.data import FORMATS, DataFormatError, SplitSpec, load_dataset, save_csv, split
from stagedml.evaluation import EvalConfig, holdout_error
from stagedml.rng import derive_seed
from stagedml.stages import ValidationConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_MODEL = 2


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
    global_timeout: float = orchestrator.SchemeConfig.global_timeout
    repeats: int = EvalConfig.repeats
    train_fraction: float = EvalConfig.train_fraction
    per_eval_timeout: float = EvalConfig.per_eval_timeout
    n_bar: int = ValidationConfig.n_bar
    m: int = ValidationConfig.m
    holdout_fraction: float = ValidationConfig.holdout_fraction
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


def run_from_spec(spec: RunSpec) -> orchestrator.RunReport:
    dataset = load_dataset(spec.data, format=spec.format, label_column=spec.label)
    return orchestrator.run(dataset, spec.scheme())


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _journal_lines(journal: list[dict]) -> str:
    """The records of ``journal`` as ``journal.jsonl`` lines, one JSON object a line."""
    return "".join(json.dumps(record) + "\n" for record in journal)


def write_run_outputs(report: orchestrator.RunReport, spec: RunSpec, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "report.json", {**report.to_json_dict(), "config_echo": spec.to_config_echo()})
    (outdir / "journal.jsonl").write_text(_journal_lines(report.journal), encoding="utf-8")
    _write_json(outdir / "stages.json", report.stage_traces)
    _write_json(outdir / "registry.json", registry_default().to_json_dict())
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


def _check_seconds(name: str, seconds) -> None:
    # NaN fails every comparison, so "not >= 0" rejects it with the negatives
    if isinstance(seconds, bool) or not isinstance(seconds, (int, float)) or not seconds >= 0:
        raise UsageError(f"{name}={seconds!r} is not a number of seconds >= 0")


def _check_types(values: dict) -> None:
    """Each value has the type of its ``RunSpec`` field; a float field
    takes an integer too, and no field takes a boolean."""
    hints = typing.get_type_hints(RunSpec)
    for name, value in values.items():
        allowed = typing.get_args(hints[name]) or (hints[name],)
        if isinstance(value, bool) or not isinstance(value, (*allowed, int) if float in allowed else allowed):
            raise UsageError(f"{name}={value!r} is not of type {RunSpec.__annotations__[name]}")


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
    unknown = set(merged) - set(RunSpec.__dataclass_fields__)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    _check_types(merged)
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
        _check_seconds(f"stage time limit {name}", seconds)
    merged["stage_time_limits"] = limits
    for name in ("global_timeout", "per_eval_timeout", "tuning_candidate_seconds"):
        if merged.get(name) is not None:
            _check_seconds(name, merged[name])
    if merged.get("format") not in (None, *FORMATS):
        raise UsageError(f"format={merged['format']!r} is not one of {', '.join(FORMATS)}")
    max_evals = merged.get("tuning_max_evals")
    if max_evals is not None and max_evals < 0:
        raise UsageError(f"tuning_max_evals={max_evals!r} is not an integer >= 0")
    if "data" not in merged:
        if require_data:
            raise UsageError("--data is required")
        merged["data"] = ""
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
    dataset_ids = [Path(data_path).stem for data_path in datasets]  # names of cells and results rows
    for i, dataset_id in enumerate(dataset_ids):
        if dataset_id in dataset_ids[:i]:
            first = datasets[dataset_ids.index(dataset_id)]
            raise UsageError(f"--data {first} and {datasets[i]} share the dataset id {dataset_id!r}")
    # type-check every preset and the outer split before any work
    for preset in presets:
        replace(spec, preset=preset).scheme()
    try:
        outer = SplitSpec(train_fraction=args.outer_train_fraction, seed=spec.seed)
    except ValueError as exc:
        raise UsageError(f"--outer-train-fraction {args.outer_train_fraction!r}: {exc}") from None
    outdir = Path(spec.out)
    outdir.mkdir(parents=True, exist_ok=True)
    registry = registry_default()
    matrix = stats.ResultMatrix()
    journal_path = outdir / "journal.jsonl"
    with open(journal_path, "w", encoding="utf-8") as journal_fh:
        for data_path, dataset_id in zip(datasets, dataset_ids):
            dataset = load_dataset(data_path, format=spec.format, label_column=spec.label)
            # paired outer splits: their seeds never see the preset name
            split_seeds = [derive_seed(spec.seed, dataset_id, s) for s in range(args.splits)]
            for s, split_seed in enumerate(split_seeds):
                train, test = split(dataset, replace(outer, seed=split_seed))
                for preset in presets:
                    cell_spec = replace(
                        spec, preset=preset, seed=derive_seed(spec.seed, dataset_id, s, preset)
                    )
                    report = orchestrator.run(train, cell_spec.scheme())
                    journal_fh.write(_journal_lines(report.journal))
                    cell_dir = outdir / "runs" / f"{dataset_id}__{preset}__s{s}"
                    cell_dir.mkdir(parents=True, exist_ok=True)
                    doc = report.to_json_dict()
                    test_error = None
                    if report.ok:
                        try:
                            refit_seed = derive_seed(cell_spec.seed, "refit")
                            test_error = holdout_error(report.best_candidate, train, test, registry, refit_seed)
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
                    _write_json(cell_dir / "report.json", doc)
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
    ranges = {}
    for item in args.range or []:
        range_id, _, singles = item.partition("=")
        if range_id in ranges:
            raise UsageError(f"--range {range_id} given twice; each range id takes one --range")
        ranges[range_id] = [s for s in singles.split(",") if s]
        if not ranges[range_id]:
            raise UsageError("--range expects RANGE_ID=SINGLE1,SINGLE2,...")
        absent = [a for a in (range_id, *ranges[range_id]) if a not in approaches]
        if absent:
            raise UsageError(f"--range {item}: {', '.join(absent)} absent; approaches: {', '.join(approaches)}")
    # the tests are paired; unpaired split lists are a hard error
    for ds in matrix.datasets():
        lengths = {
            len(matrix.get(ds, a)) for a in approaches if matrix.get(ds, a) is not None
        }
        if len(lengths) > 1:
            raise UsageError(f"dataset {ds!r} has unpaired split counts {sorted(lengths)}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    mean_cols = ["dataset_id", "approach_id", "trimmed_mean", "std", "n_splits", "mark"]
    tables.write(outdir / "mean_table", tables.mean_table(matrix, args.alpha, args.delta, args.trim), mean_cols)
    variants = [a for a in approaches if a != baseline]
    tour = stats.tournament(matrix, baseline, variants, args.alpha, args.delta, args.trim)
    tables.write(outdir / "tournament", tables.rows(tour), ["approach_id", "wins", "unique_wins", "losses", "draws"])
    if ranges:
        syn = stats.synergy(matrix, ranges, baseline, args.alpha, args.delta, args.trim)
        tables.write(outdir / "synergy", tables.rows(syn), ["range_id", "wins", "losses", "draws"])
    print(f"tables written to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _add_run_spec_flags(p: _Parser, include_data: bool = True) -> None:
    """One flag per ``RunSpec`` field, of the first type its hint names;
    ``--preset`` and ``--stage-time-limit`` collect their values apart."""
    hints = typing.get_type_hints(RunSpec)
    for f in fields(RunSpec):
        if f.name in ("preset", "stage_time_limits") or (f.name == "data" and not include_data):
            continue
        kind = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=kind)
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

"""End-to-end runs: stage scheduling, budgets, best-seen tracking.

A run carves off the holdout portion first (when validation is
configured), builds one shared evaluator over the optimization data,
then executes the stage list sequentially. Per-stage deadlines are
clipped to the remaining global budget so late stages degrade
gracefully, and the whole run is a deterministic function of
(dataset bytes, config): stage seeds derive from (run seed, stage id)
and evaluation seeds from (run seed, candidate key, repeat index).
A deadline breaks that: which work finishes before it depends on the
machine, so ``RunReport.reproducible`` is false when a stage deadline
lapsed, a tuning budget left a candidate unscored or an evaluation
timed out.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Sequence

from stagedml.data import Dataset, SplitSpec, split
from stagedml.evaluation import STATUS_TIMEOUT, Candidate, EvalConfig, Evaluator, candidate_to_dict
from stagedml.rng import derive_seed
from stagedml.stages import (
    CandidatePool,
    FilteringStage,
    MetaStage,
    ProbingStage,
    ScalingStage,
    Stage,
    StageContext,
    TuningStage,
    ValidationConfig,
    ValidationStage,
)
from stagedml.timing import Deadline

SELECTION_ANY_STAGE_BEST = "any-stage-best"
SELECTION_VALIDATION_FINAL = "validation-final"

REPORT_SCHEMA_VERSION = "run-report/1"


@dataclass
class SchemeConfig:
    stages: Sequence[Stage]
    global_timeout: float = 3600.0
    eval: EvalConfig = field(default_factory=EvalConfig)
    validation: ValidationConfig | None = None
    seed: int = 0
    name: str = "custom"

    def __post_init__(self) -> None:
        ids = [s.stage_id for s in self.stages]
        if ids.count("validation") > 1:
            raise ValueError("the validation stage may appear at most once")
        if "validation" in ids and ids[-1] != "validation":
            raise ValueError("the validation stage must come last")
        if "validation" in ids and self.validation is None:
            raise ValueError("a validation stage requires a ValidationConfig")

    def describe(self) -> dict:
        """The config as JSON values: each stage's fields, the evaluation
        fields but the seed (the run's own ``seed`` is given once)."""
        eval_doc = asdict(self.eval)
        del eval_doc["seed"]
        return {
            "name": self.name,
            "stages": [{"stage_id": s.stage_id, **asdict(s)} for s in self.stages],
            "global_timeout": self.global_timeout,
            "eval": eval_doc,
            "validation": asdict(self.validation) if self.validation else None,
            "seed": self.seed,
        }


@dataclass
class RunReport:
    best_key: str | None
    best_candidate: Candidate | None
    best_score: float | None
    selection_basis: str | None
    internal_best_key: str | None
    internal_best_score: float | None
    failure: str | None
    stage_traces: list[dict]
    pool_snapshots: list[dict]
    journal: list[dict]
    config: dict
    total_wall_s: float
    holdout_rows: int
    # false when a deadline cut some work short: a stage deadline lapsed,
    # a candidate's own budget lapsed before it was scored, or an
    # evaluation ran out of time, so the same (data, config) may give
    # another result
    reproducible: bool

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_json_dict(self) -> dict:
        """The schema version, then the fields in order as JSON values;
        ``journal_file``, the name of the journal's file, stands where
        the journal sits."""
        doc = {"schema_version": REPORT_SCHEMA_VERSION}
        for f in fields(self):
            if f.name == "journal":
                doc["journal_file"] = "journal.jsonl"
            else:
                doc[f.name] = getattr(self, f.name)
        if self.best_candidate is not None:
            doc["best_candidate"] = candidate_to_dict(self.best_candidate)
        return doc


def holdout_split(dataset: Dataset, cfg: SchemeConfig) -> tuple[Dataset, Dataset | None]:
    """Carve the holdout off first whenever validation is configured,
    regardless of whether the validation stage is in the stage list."""
    if cfg.validation is None:
        return dataset, None
    spec = SplitSpec(
        train_fraction=1.0 - cfg.validation.holdout_fraction,
        seed=derive_seed(cfg.seed, "holdout"),
    )
    return split(dataset, spec)


def run(dataset: Dataset, cfg: SchemeConfig) -> RunReport:
    """Search ``dataset`` under ``cfg`` and report the best pipeline.

    Any stage's batch whose training cells reach ``POOL_CELLS`` is scored
    on worker processes forked from this one (see
    ``Evaluator.evaluate_many``); they are stopped when the run returns or
    raises. The journal is the same for any number of workers.
    """
    started = time.monotonic()
    global_deadline = Deadline(cfg.global_timeout)

    optimization, holdout = holdout_split(dataset, cfg)
    evaluator = Evaluator(
        registry=_registry(),
        dataset=optimization,
        cfg=replace(cfg.eval, seed=cfg.seed),
    )

    try:
        pool = CandidatePool()
        stage_traces: list[dict] = []
        pool_snapshots: list[dict] = []
        validation_ran = cut_short = False
        for stage in cfg.stages:
            if global_deadline.expired():
                stage_traces.append(
                    {"stage_id": stage.stage_id, "started": None, "ended": None,
                     "evaluations": 0, "added": 0, "removed": 0, "deadline_hit": True,
                     "skipped": "global budget exhausted"}
                )
                continue
            stage_deadline = global_deadline.clipped(stage.time_limit)
            ctx = StageContext(
                evaluator=evaluator,
                registry=evaluator.registry,
                data=optimization,
                holdout=holdout if stage.stage_id == "validation" else None,
                seed=derive_seed(cfg.seed, stage.stage_id),
                deadline=stage_deadline,
                validation=cfg.validation,
            )
            evals_before = evaluator.evaluation_count
            keys_before = set(pool.keys())
            t0 = time.time()
            pool = stage.run(pool, ctx)
            t1 = time.time()
            cut_short |= ctx.cut_short
            keys_after = set(pool.keys())
            if stage.stage_id == "validation" and "skipped" not in ctx.trace:
                validation_ran = True
            stage_traces.append(
                {
                    "stage_id": stage.stage_id,
                    "started": t0,
                    "ended": t1,
                    "evaluations": evaluator.evaluation_count - evals_before,
                    "added": len(keys_after - keys_before),
                    "removed": len(keys_before - keys_after),
                    "deadline_hit": bool(ctx.trace.get("deadline_hit", False)),
                    "detail": ctx.trace,
                }
            )
            pool_snapshots.append(
                {
                    "stage_id": stage.stage_id,
                    "pool": [
                        {
                            "key": e.key,
                            "mean": e.score.mean,
                            "origin": e.stage_id,
                            "phi_validate": e.phi_validate,
                            "final_score": e.final_score,
                        }
                        for e in pool
                    ],
                }
            )
    finally:
        evaluator.close()  # no worker outlives its run

    internal_best = evaluator.best_ok()
    journal = [rec.to_dict() for rec in evaluator.journal_records()]
    total_wall = time.monotonic() - started

    best_key = best_score = basis = None
    best_candidate = None
    failure = None
    if validation_ran and len(pool) > 0 and all(e.final_score is not None for e in pool):
        entry = pool.entries()[0]
        best_key, best_candidate, best_score = entry.key, entry.candidate, entry.final_score
        basis = SELECTION_VALIDATION_FINAL
    elif internal_best is not None:
        if validation_ran:
            warnings.warn(
                "validation produced no usable finalist; falling back to any-stage-best",
                stacklevel=2,
            )
        best_key, best_score = internal_best
        best_candidate = evaluator.candidate_for_key(best_key)
        basis = SELECTION_ANY_STAGE_BEST
    else:
        failure = "no_model_found"

    return RunReport(
        best_key=best_key,
        best_candidate=best_candidate,
        best_score=best_score,
        selection_basis=basis,
        internal_best_key=internal_best[0] if internal_best else None,
        internal_best_score=internal_best[1] if internal_best else None,
        failure=failure,
        stage_traces=stage_traces,
        pool_snapshots=pool_snapshots,
        journal=journal,
        config=cfg.describe(),
        total_wall_s=total_wall,
        holdout_rows=holdout.n_rows if holdout is not None else 0,
        reproducible=not cut_short
        and not any(t["deadline_hit"] for t in stage_traces)
        and all(r["status"] != STATUS_TIMEOUT for r in journal),
    )


def _registry():
    from stagedml.components.registry import registry_default

    return registry_default()


# ---------------------------------------------------------------------------
# presets


META_TUNING_STAGE_SECONDS = 300.0  # dedicated stage budget for meta and tuning


# the optional stages before validation, in chain order
_STAGE_MAKERS: dict[str, Callable[[], Stage]] = {
    "scaling": ScalingStage,
    "filtering": FilteringStage,
    "meta": lambda: MetaStage(time_limit=META_TUNING_STAGE_SECONDS),
    "tuning": lambda: TuningStage(time_limit=META_TUNING_STAGE_SECONDS),
}


def _stage_chain(upto: str) -> list[Stage]:
    names = list(_STAGE_MAKERS)
    return [ProbingStage()] + [_STAGE_MAKERS[name]() for name in names[: names.index(upto) + 1]]


def scheme_presets(
    seed: int = 0,
    global_timeout: float = SchemeConfig.global_timeout,
    eval_config: EvalConfig | None = None,
    validation_config: ValidationConfig | None = None,
) -> dict[str, SchemeConfig]:
    """The named stage schemes of the comparison protocol.

    ``primitive`` is probing alone; ``full`` is all six stages with the
    validation defaults (n_bar=10000, m=10). ``monotone-<stage>`` takes
    every stage up to and including <stage>; ``single-<stage>`` pairs
    probing with exactly one optional stage (the per-stage merit
    protocol). ``monotone-validation`` is ``full`` under another name.
    ``single-validation``, ``full`` and ``monotone-validation`` are the
    presets that carve off a holdout.
    """
    ev = eval_config if eval_config is not None else EvalConfig()
    vc = validation_config if validation_config is not None else ValidationConfig()

    def cfg(name: str, stages: list[Stage], validation: ValidationConfig | None) -> SchemeConfig:
        return SchemeConfig(
            stages=stages,
            global_timeout=global_timeout,
            eval=ev,
            validation=validation,
            seed=seed,
            name=name,
        )

    presets = {
        "primitive": cfg("primitive", [ProbingStage()], None),
        "full": cfg("full", _stage_chain("tuning") + [ValidationStage()], vc),
    }
    for name in _STAGE_MAKERS:
        presets[f"monotone-{name}"] = cfg(f"monotone-{name}", _stage_chain(name), None)
    for name, maker in _STAGE_MAKERS.items():
        presets[f"single-{name}"] = cfg(f"single-{name}", [ProbingStage(), maker()], None)
    presets["single-validation"] = cfg("single-validation", [ProbingStage(), ValidationStage()], vc)
    presets["monotone-validation"] = replace(presets["full"], name="monotone-validation")
    return presets

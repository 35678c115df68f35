"""Statistical machinery for the benchmark harness.

Paired per-split error rates are compared with a Wilcoxon signed-rank
test (exact enumeration for small samples, tie-corrected normal
approximation above) and summarized with per-tail trimmed means. A
difference counts as substantial only when it is both significant at
``alpha`` and at least ``delta`` in trimmed-mean magnitude; tournament
and synergy tables aggregate those verdicts across datasets.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

DEFAULT_ALPHA = 0.05
DEFAULT_DELTA = 0.01
DEFAULT_TRIM = 0.10
EXACT_WILCOXON_MAX_N = 12

BETTER = "better"
WORSE = "worse"
DRAW = "draw"


def trimmed_mean(values: Sequence[float], trim: float = DEFAULT_TRIM) -> float:
    """Mean after dropping floor(trim * n) values from each tail."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("trimmed_mean of an empty sequence")
    if not 0.0 <= trim < 0.5:
        raise ValueError("trim must lie in [0, 0.5)")
    k = int(math.floor(trim * len(vals)))
    kept = vals[k : len(vals) - k] if k else vals
    return float(sum(kept) / len(kept))


def _average_ranks(abs_diffs: Sequence[float]) -> list[float]:
    order = sorted(range(len(abs_diffs)), key=lambda i: abs_diffs[i])
    ranks = [0.0] * len(abs_diffs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs_diffs[order[j + 1]] == abs_diffs[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0  # 1-based average rank of the tie block
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped before ranking (Wilcoxon's original
    procedure); when everything is zero the p-value is 1 by convention.
    For n <= 12 remaining pairs, the p-value is exact, computed by
    enumerating all 2^n sign assignments of the observed ranks; larger
    samples use the normal approximation with tie-corrected variance
    and a continuity correction. Returns (W, p) with W = min(W+, W-).
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) != len(b) or not a:
        raise ValueError("paired vectors of equal nonzero length required")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    if n == 0:
        return 0.0, 1.0
    abs_diffs = [abs(d) for d in diffs]
    ranks = _average_ranks(abs_diffs)
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    statistic = min(w_plus, w_minus)

    if n <= EXACT_WILCOXON_MAX_N:
        le = 0
        ge = 0
        total = 1 << n
        for mask in range(total):
            w = 0.0
            for i in range(n):
                if mask & (1 << i):
                    w += ranks[i]
            if w <= w_plus:
                le += 1
            if w >= w_plus:
                ge += 1
        p = min(1.0, 2.0 * min(le, ge) / total)
        return statistic, p

    mean = n * (n + 1) / 4.0
    tie_correction = 0.0
    seen: dict[float, int] = {}
    for d in abs_diffs:
        seen[d] = seen.get(d, 0) + 1
    for t in seen.values():
        tie_correction += t**3 - t
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_correction / 48.0
    if var <= 0:
        return statistic, 1.0
    delta = w_plus - mean
    shift = min(abs(delta), 0.5)  # continuity correction toward the mean
    z = (abs(delta) - shift) / math.sqrt(var)
    return statistic, min(1.0, 2.0 * _normal_sf(z))


@dataclass(frozen=True)
class Verdict:
    outcome: str  # better | worse | draw
    p_value: float
    mean_diff: float  # trimmed_mean(b) - trimmed_mean(a); positive favors a


def verdict(
    a: Sequence[float],
    b: Sequence[float],
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    trim: float = DEFAULT_TRIM,
) -> Verdict:
    """Substantial-difference verdict for approach a against approach b.

    Scores are losses (lower is better). ``better`` needs both a
    significant Wilcoxon test on the raw paired splits and a trimmed
    mean advantage of at least ``delta``; anything else is a draw.
    """
    _, p = wilcoxon_signed_rank(a, b)
    diff = trimmed_mean(b, trim) - trimmed_mean(a, trim)
    if p < alpha and diff >= delta:
        return Verdict(BETTER, p, diff)
    if p < alpha and -diff >= delta:
        return Verdict(WORSE, p, diff)
    return Verdict(DRAW, p, diff)


# ---------------------------------------------------------------------------
# result matrices


class ResultMatrix:
    """Per (dataset, approach) lists of per-split error rates.

    The split lists are index-paired: cell [i] of every approach on a
    dataset came from the same outer train/test split.
    """

    def __init__(self) -> None:
        self._cells: dict[tuple[str, str], list[float]] = {}

    def add(self, dataset_id: str, approach_id: str, split_index: int, error: float) -> None:
        """Fill one cell; ``ValueError`` for a split index below 0, a cell
        filled already or an error that is not a rate in [0, 1]."""
        where = f"cell ({dataset_id}, {approach_id}, split {split_index})"
        if split_index < 0:
            raise ValueError(f"{where}: split index below 0")
        if not 0.0 <= error <= 1.0:  # NaN fails it too
            raise ValueError(f"{where}: error {error!r} is not a rate in [0, 1]")
        cell = self._cells.setdefault((dataset_id, approach_id), [])
        if split_index < len(cell) and not math.isnan(cell[split_index]):
            raise ValueError(f"{where}: filled twice")
        while len(cell) <= split_index:
            cell.append(float("nan"))
        cell[split_index] = float(error)

    def get(self, dataset_id: str, approach_id: str) -> list[float] | None:
        cell = self._cells.get((dataset_id, approach_id))
        if cell is None or any(math.isnan(v) for v in cell):
            return None
        return list(cell)

    def datasets(self) -> list[str]:
        return sorted({d for d, _ in self._cells})

    def approaches(self) -> list[str]:
        return sorted({a for _, a in self._cells})

    def complete_datasets(self, approach_ids: Sequence[str]) -> list[str]:
        """Datasets where every listed approach has a complete, equally
        long split list (the paired design)."""
        out = []
        for ds in self.datasets():
            cells = [self.get(ds, a) for a in approach_ids]
            if any(c is None for c in cells):
                continue
            if len({len(c) for c in cells}) != 1:
                continue
            out.append(ds)
        return out

    @classmethod
    def from_csv(cls, path: str | Path) -> "ResultMatrix":
        m = cls()
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"dataset_id", "approach_id", "split_index", "error"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(f"{path}: expected columns {sorted(required)}")
            for row in reader:
                if row["error"] in ("", None):
                    continue
                try:
                    m.add(row["dataset_id"], row["approach_id"], int(row["split_index"]), float(row["error"]))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        return m

    @classmethod
    def from_reports(cls, directory: str | Path) -> "ResultMatrix":
        """Collect bench cells from report.json files under a directory."""
        m = cls()
        for path in sorted(Path(directory).rglob("report.json")):
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            cell = doc.get("bench_cell")
            if not cell:
                continue
            m.add(cell["dataset_id"], cell["approach_id"], int(cell["split_index"]), float(cell["test_error"]))
        return m

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset_id", "approach_id", "split_index", "error"])
            for (ds, ap) in sorted(self._cells):
                for i, v in enumerate(self._cells[(ds, ap)]):
                    writer.writerow([ds, ap, i, "" if math.isnan(v) else repr(v)])


# ---------------------------------------------------------------------------
# tournament and synergy tables


@dataclass
class TournamentRow:
    approach_id: str
    wins: int
    unique_wins: int
    losses: int
    draws: int


def tournament(
    results: ResultMatrix,
    baseline_id: str,
    variant_ids: Sequence[str],
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    trim: float = DEFAULT_TRIM,
) -> dict[str, TournamentRow]:
    """Per-variant substantial win/unique-win/loss/draw counts against a
    baseline. Datasets missing any cell are skipped for all variants."""
    rows = {v: TournamentRow(v, 0, 0, 0, 0) for v in variant_ids}
    usable = results.complete_datasets([baseline_id, *variant_ids])
    for ds in usable:
        base = results.get(ds, baseline_id)
        winners = []
        for v in variant_ids:
            cell = results.get(ds, v)
            verd = verdict(cell, base, alpha, delta, trim)
            if verd.outcome == BETTER:
                rows[v].wins += 1
                winners.append(v)
            elif verd.outcome == WORSE:
                rows[v].losses += 1
            else:
                rows[v].draws += 1
        if len(winners) == 1:
            rows[winners[0]].unique_wins += 1
    return rows


@dataclass
class SynergyRow:
    range_id: str
    wins: int
    losses: int
    draws: int


def synergy(
    results: ResultMatrix,
    ranges: Mapping[str, Sequence[str]],
    baseline_id: str,
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    trim: float = DEFAULT_TRIM,
) -> dict[str, SynergyRow]:
    """Strict-excess wins of stage ranges over their best single stage.

    A range wins on a dataset iff it substantially beats the baseline
    AND its trimmed-mean improvement exceeds every constituent single
    stage's improvement by at least ``delta``; it loses iff it is
    substantially worse than the baseline.
    """
    rows = {r: SynergyRow(r, 0, 0, 0) for r in ranges}
    for range_id, singles in ranges.items():
        usable = results.complete_datasets([baseline_id, range_id, *singles])
        for ds in usable:
            base = results.get(ds, baseline_id)
            cell = results.get(ds, range_id)
            verd = verdict(cell, base, alpha, delta, trim)
            if verd.outcome == WORSE:
                rows[range_id].losses += 1
                continue
            if verd.outcome != BETTER:
                rows[range_id].draws += 1
                continue
            base_tm = trimmed_mean(base, trim)
            range_improvement = base_tm - trimmed_mean(cell, trim)
            exceeds_all = True
            for single in singles:
                single_improvement = base_tm - trimmed_mean(results.get(ds, single), trim)
                if range_improvement - single_improvement < delta:
                    exceeds_all = False
                    break
            if exceeds_all:
                rows[range_id].wins += 1
            else:
                rows[range_id].draws += 1
    return rows

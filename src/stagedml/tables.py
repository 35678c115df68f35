"""Report tables: trimmed-mean summaries, tournaments, synergies.

``write`` writes every table both as CSV (machine-readable) and as
aligned plain text. In the mean table the per-dataset best approach is
marked ``*`` and approaches not substantially different from it are
marked ``~``.
"""

from __future__ import annotations

import csv
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from stagedml.stats import DEFAULT_ALPHA, DEFAULT_DELTA, DEFAULT_TRIM, ResultMatrix, trimmed_mean, verdict

BEST_MARK = "*"
INDISTINGUISHABLE_MARK = "~"


def mean_table(
    results: ResultMatrix,
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    trim: float = DEFAULT_TRIM,
) -> list[dict]:
    """One row per (dataset, approach): trimmed mean, std, and marks."""
    rows: list[dict] = []
    approaches = results.approaches()
    for ds in results.complete_datasets(approaches):
        cells = {a: results.get(ds, a) for a in approaches}
        tms = {a: trimmed_mean(c, trim) for a, c in cells.items()}
        best = min(approaches, key=lambda a: (tms[a], a))
        for a in approaches:
            if a == best:
                mark = BEST_MARK
            else:
                verd = verdict(cells[a], cells[best], alpha, delta, trim)
                mark = INDISTINGUISHABLE_MARK if verd.outcome == "draw" else ""
            rows.append(
                {
                    "dataset_id": ds,
                    "approach_id": a,
                    "trimmed_mean": tms[a],
                    "std": float(np.std(cells[a])),
                    "n_splits": len(cells[a]),
                    "mark": mark,
                }
            )
    return rows


def write(stem: Path, rows: Sequence[Mapping], columns: Sequence[str]) -> None:
    """The ``columns`` of ``rows`` as ``<stem>.csv`` and as aligned text in ``<stem>.txt``."""
    with open(stem.with_suffix(".csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows({c: row[c] for c in columns} for row in rows)
    stem.with_suffix(".txt").write_text(render_text(rows, columns), encoding="utf-8")


def render_text(rows: Sequence[Mapping], columns: Sequence[str]) -> str:
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.4f}"
        return str(v)

    cells = [[fmt(r[c]) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) if cells else len(c) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def rows(table: Mapping) -> list[dict]:
    """The dataclass rows of a tournament or synergy table as dicts."""
    return [asdict(r) for r in table.values()]

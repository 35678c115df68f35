"""Dataset representation, file ingestion, splitting and projection.

Datasets are dense float64 matrices of encoded features plus integer
class labels. Ingestion handles CSV (RFC-4180 style, header required)
and a numeric/nominal subset of ARFF. Categorical feature columns are
one-hot encoded up to cardinality 32 and ordinal-coded above that;
missing numerics are imputed with the column mean, missing categoricals
with the column mode. Labels map to 0..K-1 in first-appearance order.

Splitting is deterministic across runs and platforms: it is driven by
the splitmix64 generator in :mod:`stagedml.rng` and integer-only
arithmetic, so identical (dataset, spec) pairs always yield identical
row partitions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from stagedml.rng import Rng

MISSING_MARKERS = ("", "?")
FORMATS = ("csv", "arff")
ONE_HOT_MAX_CARDINALITY = 32


class DataFormatError(ValueError):
    """File could not be parsed under the declared format."""


@dataclass(frozen=True)
class ColumnOrigin:
    """Provenance of one encoded column: source column and encoding kind."""

    source: str
    kind: str  # "numeric" | "onehot" | "ordinal"
    level: str | None = None


@dataclass(frozen=True)
class FeatureSet:
    """A set of encoded-column indices, stored sorted and deduplicated."""

    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int]) -> None:
        normalized = tuple(sorted({int(i) for i in indices}))
        if not normalized:
            raise ValueError("a FeatureSet must contain at least one column index")
        if normalized[0] < 0:
            raise ValueError("feature indices must be non-negative")
        object.__setattr__(self, "indices", normalized)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of one deterministic train/test split."""

    train_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")


@dataclass
class Dataset:
    """Encoded instance matrix plus labels and column metadata.

    Instances and labels are frozen (numpy write flag cleared) after
    construction, so folds and candidates can share a Dataset without
    copying; worker processes receive it pickled, by value.
    """

    instances: np.ndarray
    labels: np.ndarray
    feature_names: list[str]
    source_columns: list[ColumnOrigin]
    class_names: list[str]
    label_name: str = field(default="label")

    def __post_init__(self) -> None:
        inst = np.ascontiguousarray(np.asarray(self.instances, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        if inst.ndim != 2:
            raise ValueError("instances must be a 2-d matrix")
        if labels.ndim != 1 or labels.shape[0] != inst.shape[0]:
            raise ValueError("labels must be a vector with one entry per row")
        if inst.shape[1] != len(self.feature_names) or inst.shape[1] != len(self.source_columns):
            raise ValueError("column metadata must match the instance matrix width")
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.class_names)):
            raise ValueError("label index outside class_names")
        if inst.size and not np.all(np.isfinite(inst)):
            raise ValueError("instances contain NaN/Inf after ingestion")
        inst.setflags(write=False)
        labels.setflags(write=False)
        self.instances = inst
        self.labels = labels

    @property
    def n_rows(self) -> int:
        return self.instances.shape[0]

    @property
    def n_columns(self) -> int:
        return self.instances.shape[1]

    def subset_rows(self, rows: Sequence[int] | np.ndarray) -> "Dataset":
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            instances=self.instances[rows],
            labels=self.labels[rows],
            feature_names=list(self.feature_names),
            source_columns=list(self.source_columns),
            class_names=list(self.class_names),
            label_name=self.label_name,
        )

    def equals(self, other: "Dataset") -> bool:
        """Value equality on the data fields (provenance metadata ignored)."""
        return (
            self.instances.shape == other.instances.shape
            and np.array_equal(self.instances, other.instances)
            and np.array_equal(self.labels, other.labels)
            and self.feature_names == other.feature_names
            and self.class_names == other.class_names
        )


# ---------------------------------------------------------------------------
# ingestion


def _is_missing(cell: str) -> bool:
    return cell.strip() in MISSING_MARKERS


def _try_float(cell: str) -> float | None:
    try:
        return float(cell.strip())
    except ValueError:
        return None


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, header row required") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} cells, found {len(row)}"
                )
            rows.append(row)
    return header, rows


def _read_arff(path: Path) -> tuple[list[str], list[list[str]], dict[str, list[str] | None]]:
    """Parse the numeric/nominal subset of ARFF.

    Date, string and relational attributes are rejected; sparse data
    rows are rejected.
    """
    header: list[str] = []
    levels: dict[str, list[str] | None] = {}
    rows: list[list[str]] = []
    in_data = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if not in_data:
                lowered = line.lower()
                if lowered.startswith("@relation"):
                    continue
                if lowered.startswith("@attribute"):
                    body = line[len("@attribute"):].strip()
                    if body.startswith("'"):
                        end = body.index("'", 1)
                        name = body[1:end]
                        decl = body[end + 1:].strip()
                    elif body.startswith('"'):
                        end = body.index('"', 1)
                        name = body[1:end]
                        decl = body[end + 1:].strip()
                    else:
                        parts = body.split(None, 1)
                        if len(parts) != 2:
                            raise DataFormatError(f"{path}:{lineno}: malformed @attribute")
                        name, decl = parts
                    decl_l = decl.lower()
                    if decl.startswith("{"):
                        if not decl.endswith("}"):
                            raise DataFormatError(f"{path}:{lineno}: unterminated nominal spec")
                        values = [v.strip().strip("'\"") for v in decl[1:-1].split(",")]
                        levels[name] = values
                    elif decl_l in ("numeric", "real", "integer"):
                        levels[name] = None
                    else:
                        raise DataFormatError(
                            f"{path}:{lineno}: unsupported attribute type {decl!r} "
                            "(only numeric and nominal are accepted)"
                        )
                    header.append(name)
                    continue
                if lowered.startswith("@data"):
                    if not header:
                        raise DataFormatError(f"{path}: @data before any @attribute")
                    in_data = True
                    continue
                raise DataFormatError(f"{path}:{lineno}: unexpected line {line!r}")
            else:
                if line.startswith("{"):
                    raise DataFormatError(f"{path}:{lineno}: sparse ARFF rows are not supported")
                cells = next(csv.reader([line], quotechar="'"))
                if len(cells) != len(header):
                    raise DataFormatError(
                        f"{path}:{lineno}: expected {len(header)} cells, found {len(cells)}"
                    )
                rows.append([c.strip().strip("'\"") for c in cells])
    if not in_data:
        raise DataFormatError(f"{path}: missing @data section")
    return header, rows, levels


def _resolve_label_index(header: list[str], label_column: str | int) -> int:
    if isinstance(label_column, int):
        if not 0 <= label_column < len(header):
            raise DataFormatError(f"label column index {label_column} out of range")
        return label_column
    try:
        return header.index(label_column)
    except ValueError:
        raise DataFormatError(
            f"label column {label_column!r} not found; columns are {header}"
        ) from None


def _encode_columns(
    header: list[str],
    rows: list[list[str]],
    label_idx: int,
    declared_levels: dict[str, list[str] | None] | None,
) -> Dataset:
    if not rows:
        raise DataFormatError("dataset has zero data rows")

    label_name = header[label_idx]
    class_names: list[str] = []
    class_index: dict[str, int] = {}
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        cell = row[label_idx].strip()
        if _is_missing(cell):
            raise DataFormatError(f"row {i}: missing label value")
        if cell not in class_index:
            class_index[cell] = len(class_names)
            class_names.append(cell)
        labels[i] = class_index[cell]

    columns: list[np.ndarray] = []
    names: list[str] = []
    origins: list[ColumnOrigin] = []
    for j, col_name in enumerate(header):
        if j == label_idx:
            continue
        cells = [row[j] for row in rows]
        missing = np.array([_is_missing(c) for c in cells])
        declared = declared_levels.get(col_name) if declared_levels else None
        forced_numeric = declared_levels is not None and declared is None

        parsed = [None if m else _try_float(c) for c, m in zip(cells, missing)]
        numeric = forced_numeric or all(p is not None for p, m in zip(parsed, missing) if not m)
        if declared is not None:
            numeric = False

        if numeric:
            if forced_numeric and any(p is None for p, m in zip(parsed, missing) if not m):
                raise DataFormatError(f"column {col_name!r}: non-numeric cell in numeric attribute")
            values = np.array([np.nan if p is None else p for p in parsed], dtype=np.float64)
            observed = values[~np.isnan(values)]
            if observed.size == 0:
                raise DataFormatError(f"column {col_name!r}: no observed values to impute from")
            values[np.isnan(values)] = float(observed.mean())
            columns.append(values)
            names.append(col_name)
            origins.append(ColumnOrigin(source=col_name, kind="numeric"))
        else:
            stripped = [c.strip() for c in cells]
            observed_vals = [c for c, m in zip(stripped, missing) if not m]
            if not observed_vals:
                raise DataFormatError(f"column {col_name!r}: no observed values to impute from")
            if declared is not None:
                levels = list(declared)
                unknown = set(observed_vals) - set(levels)
                if unknown:
                    raise DataFormatError(
                        f"column {col_name!r}: values {sorted(unknown)} outside declared levels"
                    )
            else:
                levels = []
                for v in observed_vals:
                    if v not in levels:
                        levels.append(v)
            # mode imputation; ties break toward the earlier level
            counts = {lv: 0 for lv in levels}
            for v in observed_vals:
                counts[v] += 1
            mode = max(levels, key=lambda lv: (counts[lv], -levels.index(lv)))
            filled = [mode if m else v for v, m in zip(stripped, missing)]
            if len(levels) <= ONE_HOT_MAX_CARDINALITY:
                for level in levels:
                    col = np.array([1.0 if v == level else 0.0 for v in filled])
                    columns.append(col)
                    names.append(f"{col_name}={level}")
                    origins.append(ColumnOrigin(source=col_name, kind="onehot", level=level))
            else:
                index = {lv: k for k, lv in enumerate(levels)}
                col = np.array([float(index[v]) for v in filled])
                columns.append(col)
                names.append(col_name)
                origins.append(ColumnOrigin(source=col_name, kind="ordinal"))

    if not columns:
        raise DataFormatError("dataset has no feature columns besides the label")
    instances = np.column_stack(columns)
    return Dataset(
        instances=instances,
        labels=labels,
        feature_names=names,
        source_columns=origins,
        class_names=class_names,
        label_name=label_name,
    )


def load_dataset(path: str | Path, format: str | None = None, label_column: str | int = "label") -> Dataset:
    """Load and encode a CSV or ARFF file.

    ``format`` defaults to the file suffix (``.arff`` -> arff, else csv).
    ``label_column`` may be a header name or a 0-based column index.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such file")
    if format is None:
        format = "arff" if path.suffix.lower() == ".arff" else "csv"
    if format == "csv":
        header, rows = _read_csv(path)
        declared = None
    elif format == "arff":
        header, rows, declared = _read_arff(path)
    else:
        raise DataFormatError(f"unknown format {format!r} (expected one of {', '.join(FORMATS)})")
    label_idx = _resolve_label_index(header, label_column)
    return _encode_columns(header, rows, label_idx, declared)


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write the encoded matrix back out as an RFC-4180 CSV.

    Reloading the file with ``label_column=dataset.label_name`` yields a
    Dataset equal to the original (source_columns become plain numeric
    provenance, which equality deliberately ignores).
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [dataset.label_name])
        for i in range(dataset.n_rows):
            row = [repr(float(v)) for v in dataset.instances[i]]
            row.append(dataset.class_names[dataset.labels[i]])
            writer.writerow(row)


# ---------------------------------------------------------------------------
# splitting and projection


def _train_size(fraction: float, n: int) -> int:
    # round half up, documented for cross-language ports
    return min(n, max(0, int(math.floor(fraction * n + 0.5))))


def split_indices(labels: np.ndarray, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic stratified row partition; returns (train_rows, test_rows)
    ascending. Each class present is one stratum, the one class of
    single-class data too; a class of a single row goes wholly to train."""
    n = int(labels.shape[0])
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    target = _train_size(spec.train_fraction, n)
    rng = Rng(spec.seed)
    groups = [np.flatnonzero(labels == c) for c in range(int(labels.max()) + 1)]
    groups = [g for g in groups if g.size > 0]
    # a class of one row cannot be split: it goes wholly to train
    quotas = [spec.train_fraction * g.size if g.size > 1 else 1.0 for g in groups]
    base = [int(math.floor(q)) for q in quotas]
    extra = target - sum(base)
    order = sorted(range(len(groups)), key=lambda i: (-(quotas[i] - base[i]), i))
    take = list(base)
    for i in order[: max(0, extra)]:
        take[i] += 1
    picked: list[int] = []
    for g, k in zip(groups, take):
        idx = list(map(int, g))
        rng.shuffle(idx)
        picked.extend(idx[:k])
    train = np.array(sorted(picked), dtype=np.int64)
    mask = np.ones(n, dtype=bool)
    mask[train] = False
    test = np.flatnonzero(mask).astype(np.int64)
    return train, test


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Split into disjoint (train, test) parts with round(f*N) train rows.

    The split is stratified: it keeps per-class train proportions within
    one example of the global proportions (floor quotas plus largest
    remainders); a class of one row goes wholly to train.
    """
    train_rows, test_rows = split_indices(dataset.labels, spec)
    return dataset.subset_rows(train_rows), dataset.subset_rows(test_rows)


def project(dataset: Dataset, features: FeatureSet) -> Dataset:
    """Keep only the columns in ``features`` (rows and labels unchanged)."""
    if features.indices[-1] >= dataset.n_columns:
        raise ValueError(
            f"feature index {features.indices[-1]} out of range for {dataset.n_columns} columns"
        )
    cols = list(features.indices)
    return Dataset(
        instances=dataset.instances[:, cols],
        labels=dataset.labels,
        feature_names=[dataset.feature_names[j] for j in cols],
        source_columns=[dataset.source_columns[j] for j in cols],
        class_names=list(dataset.class_names),
        label_name=dataset.label_name,
    )

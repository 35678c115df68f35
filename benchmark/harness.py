"""Benchmark-side helpers: sample summaries, span self times, peak
memory, and validation of ``BENCHMARK.json``.

Nothing here imports ``stagedml``; the helpers are tested on their own
(``python -m pytest benchmark``).
"""

from __future__ import annotations

import json
import math
import re
import resource
import statistics
from pathlib import Path
from typing import Iterable, Sequence

# ---------------------------------------------------------------------------
# sample summaries

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
MIN_TAIL_SAMPLES = 10


def summarize(samples: Sequence[float]) -> dict:
    """Median of ``samples``, plus the highest percentile in
    ``TAIL_PERCENTILES`` that has at least ``MIN_TAIL_SAMPLES`` samples
    strictly beyond it. Without such a percentile the median stands
    alone: a percentile with fewer samples beyond it is no tail."""
    if not samples:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(float(v) for v in samples)
    out = {"n": len(ordered), "median": statistics.median(ordered)}
    for pct in TAIL_PERCENTILES:
        # nearest-rank percentile: the smallest value with pct % at or below it
        rank = max(1, math.ceil(round(pct * len(ordered) / 100.0, 9)))
        value = ordered[rank - 1]
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= MIN_TAIL_SAMPLES:
            out[f"p{pct:g}"] = value
            break
    return out


# ---------------------------------------------------------------------------
# spans


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover (children clipped to the parent,
    overlapping children counted once)."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {s["id"]: [] for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent is not None and parent in by_id:
            p = by_id[parent]
            children[parent].append((max(s["start"], p["start"]), min(s["end"], p["end"])))
    return {
        sid: (s["end"] - s["start"]) - union_length(children[sid]) for sid, s in by_id.items()
    }


def subtree(spans: Sequence[dict], root_id: int) -> list[dict]:
    """The root span and every span descending from it."""
    kids: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    by_id = {s["id"]: s for s in spans}
    out, todo = [], [by_id[root_id]]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids.get(s["id"], ()))
    return out


# ---------------------------------------------------------------------------
# process memory


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB of this process, or of the largest
    child process waited for, from ``getrusage`` (Linux reports KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# BENCHMARK.json

MAX_FILE_BYTES = 64 * 1024
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")
MAX_BOUND = 0.25


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _escapes(path: str) -> bool:
    return path.startswith("/") or ".." in path.split("/")


def _check_list(doc: dict, key: str, lo: int, hi: int, errors: list[str]) -> list:
    items = doc.get(key)
    if not isinstance(items, list) or not lo <= len(items) <= hi:
        errors.append(f"{key}: expected a list of {lo} to {hi} entries")
        return []
    return items


def _check_named(items: list, key: str, keys: set, names: set, errors: list[str]) -> list[dict]:
    good = []
    for i, item in enumerate(items):
        where = f"{key}[{i}]"
        if not isinstance(item, dict) or set(item) != keys:
            errors.append(f"{where}: expected exactly the keys {sorted(keys)}")
            continue
        name = item["name"]
        if not isinstance(name, str) or not NAME_RE.fullmatch(name):
            errors.append(f"{where}: bad name {name!r}")
        elif name in names:
            errors.append(f"{where}: name {name!r} used twice")
        else:
            names.add(name)
        good.append(item)
    return good


def _check_metrics(items: list[dict], key: str, errors: list[str]) -> None:
    for i, m in enumerate(items):
        where = f"{key}[{i}]"
        if not isinstance(m["unit"], str) or not UNIT_RE.fullmatch(m["unit"]):
            errors.append(f"{where}: bad unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            errors.append(f"{where}: better must be 'lower' or 'higher'")
        if "bound" in m and not (_is_number(m["bound"]) and 0 < m["bound"] <= MAX_BOUND):
            errors.append(f"{where}: bound must be a number in (0, {MAX_BOUND}]")


def validate_benchmark(doc) -> list[str]:
    """Every way ``doc`` departs from the fixed form of BENCHMARK.json;
    an empty list means it is valid."""
    if not isinstance(doc, dict):
        return ["BENCHMARK.json must hold a JSON object"]
    errors: list[str] = []
    if set(doc) != TOP_KEYS:
        errors.append(f"expected exactly the keys {sorted(TOP_KEYS)}, got {sorted(doc)}")

    command = _check_list(doc, "command", 1, 32, errors)
    for part in command:
        if not isinstance(part, str) or not 0 < len(part) <= 200:
            errors.append(f"command: bad argument {part!r}")
        elif _escapes(part):
            errors.append(f"command: {part!r} leaves the repository")

    for path in _check_list(doc, "paths", 1, 16, errors):
        if not isinstance(path, str) or not PATH_RE.fullmatch(path) or _escapes(path):
            errors.append(f"paths: bad directory {path!r}")

    seconds = doc.get("run_seconds")
    if not _is_int(seconds) or not 1 <= seconds <= 60:
        errors.append("run_seconds: expected a whole number from 1 to 60")

    workloads = _check_named(
        _check_list(doc, "workloads", 2, 8, errors), "workloads", {"name", "why"}, set(), errors
    )
    for i, w in enumerate(workloads):
        why = w["why"]
        if not isinstance(why, str) or not 0 < len(why) <= 200 or "\n" in why:
            errors.append(f"workloads[{i}]: why must be one line of 1 to 200 characters")

    metric_names: set[str] = set()
    e2e = _check_named(
        _check_list(doc, "end_to_end", 1, 16, errors),
        "end_to_end",
        {"name", "unit", "better", "bound"},
        metric_names,
        errors,
    )
    _check_metrics(e2e, "end_to_end", errors)
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end: needs setup_s with unit 's' and better 'lower'")
    per_layer = _check_named(
        _check_list(doc, "per_layer", 1, 128, errors),
        "per_layer",
        {"name", "unit", "better"},
        metric_names,
        errors,
    )
    _check_metrics(per_layer, "per_layer", errors)
    return errors


def load_benchmark(path: Path) -> dict:
    """Read and validate BENCHMARK.json; raises ValueError listing every
    problem found."""
    raw = path.read_bytes()
    if len(raw) > MAX_FILE_BYTES:
        raise ValueError(f"{path}: larger than {MAX_FILE_BYTES} bytes")
    doc = json.loads(raw)
    errors = validate_benchmark(doc)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return doc

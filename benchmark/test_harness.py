"""Tests of the benchmark's own helpers. They sit outside the Tier-1
``testpaths``; run them with ``python -m pytest benchmark``."""

import copy
import json
from pathlib import Path

import pytest

import harness

ROOT = Path(__file__).resolve().parents[1]


# -- summaries --------------------------------------------------------------


def test_median_of_odd_and_even_samples():
    assert harness.summarize([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}
    assert harness.summarize([4.0, 1.0, 3.0, 2.0])["median"] == 2.5


def test_small_samples_report_the_median_alone():
    # 39 samples: p75 would leave only 9 beyond it, so it is no tail
    s = harness.summarize([float(i) for i in range(39)])
    assert set(s) == {"n", "median"}


def test_percentile_reported_once_ten_samples_lie_beyond_it():
    s = harness.summarize([float(i) for i in range(40)])
    assert s["p75"] == 29.0  # nearest rank 30 of 40; values 30..39 lie beyond
    assert "p90" not in s


def test_highest_percentile_with_a_tail_wins():
    s = harness.summarize([float(i) for i in range(1, 1001)])
    assert "p99" in s and s["p99"] == 990.0
    assert not any(k in s for k in ("p90", "p75", "p99.9"))


def test_percentile_rank_is_not_pushed_up_by_float_error():
    # 99.9 % of 10,000 is rank 9990 exactly; 10 values lie beyond it
    s = harness.summarize([float(i) for i in range(1, 10001)])
    assert s["p99.9"] == 9990.0


def test_ties_at_the_percentile_do_not_count_as_beyond():
    # 30 equal values then 10 larger: p75 sits on the tie block, 10 beyond
    assert "p75" in harness.summarize([1.0] * 30 + [2.0] * 10)
    # 31 equal values then 9 larger: only 9 lie beyond
    assert "p75" not in harness.summarize([1.0] * 31 + [2.0] * 9)


def test_summary_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        harness.summarize([])


# -- self times -------------------------------------------------------------


def span(sid, start, end, parent=None, name="x"):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_of_nested_spans():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),
        span(3, 5.0, 9.0, parent=0),
    ]
    selfs = harness.self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(selfs.values()) == 10.0  # self times add up to the root


def test_overlapping_children_are_counted_once():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 6.0, parent=0), span(2, 4.0, 8.0, parent=0)]
    assert harness.self_times(spans)[0] == pytest.approx(3.0)


def test_children_are_clipped_to_their_parent():
    spans = [span(0, 2.0, 6.0), span(1, 0.0, 3.0, parent=0), span(2, 5.0, 9.0, parent=0)]
    assert harness.self_times(spans)[0] == pytest.approx(2.0)


def test_union_length():
    assert harness.union_length([]) == 0.0
    assert harness.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.5, 3.6)]) == 3.0


def test_subtree_keeps_only_descendants():
    spans = [span(0, 0, 9), span(1, 1, 2, parent=0), span(2, 5, 6), span(3, 1, 1.5, parent=1)]
    assert sorted(s["id"] for s in harness.subtree(spans, 0)) == [0, 1, 3]


# -- BENCHMARK.json ---------------------------------------------------------


VALID = {
    "command": ["python3", "benchmark/run.py"],
    "paths": ["benchmark"],
    "run_seconds": 10,
    "workloads": [
        {"name": "a", "why": "one reason"},
        {"name": "b", "why": "another reason"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "layer.calls", "unit": "count", "better": "higher"}],
}


def broken(edit):
    doc = copy.deepcopy(VALID)
    edit(doc)
    return harness.validate_benchmark(doc)


def test_valid_document_passes():
    assert harness.validate_benchmark(VALID) == []


def test_repository_benchmark_json_is_valid():
    doc = harness.load_benchmark(ROOT / "BENCHMARK.json")
    for part in doc["command"][1:]:
        assert any(part == p or part.startswith(p + "/") for p in doc["paths"])


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("per_layer"),
        lambda d: d.update(extra=1),
        lambda d: d.update(command=[]),
        lambda d: d.update(command=["python3", "/abs/run.py"]),
        lambda d: d.update(command=["python3", "../elsewhere/run.py"]),
        lambda d: d.update(paths=["bench mark"]),
        lambda d: d.update(paths=["a/../b"]),
        lambda d: d.update(paths=[]),
        lambda d: d.update(run_seconds=0),
        lambda d: d.update(run_seconds=61),
        lambda d: d.update(run_seconds=10.0),
        lambda d: d.update(run_seconds=True),
        lambda d: d.update(workloads=d["workloads"][:1]),
        lambda d: d["workloads"][0].update(why="two\nlines"),
        lambda d: d["workloads"][0].update(why=""),
        lambda d: d["workloads"][0].pop("why"),
        lambda d: d["workloads"][1].update(name="a"),
        lambda d: d["workloads"][0].update(name="-starts-with-dash"),
        lambda d: d["end_to_end"][1].update(bound=0.3),
        lambda d: d["end_to_end"][1].update(bound=0),
        lambda d: d["end_to_end"][1].pop("bound"),
        lambda d: d["end_to_end"][1].update(better="faster"),
        lambda d: d["end_to_end"][1].update(unit="seconds per run"),
        lambda d: d["end_to_end"].pop(0),
        lambda d: d["end_to_end"][0].update(unit="ms"),
        lambda d: d["per_layer"][0].update(bound=0.1),
        lambda d: d["per_layer"][0].update(name="run_s"),
        lambda d: d.update(per_layer=[]),
    ],
)
def test_each_departure_from_the_form_is_reported(edit):
    assert broken(edit)


def test_oversized_file_is_refused(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    doc = copy.deepcopy(VALID)
    doc["workloads"][0]["why"] = "x" * 200
    doc["per_layer"] = [{"name": f"m{i}", "unit": "s", "better": "lower"} for i in range(128)]
    text = json.dumps(doc, indent=2)
    path.write_text(text + " " * (harness.MAX_FILE_BYTES - len(text) + 1), encoding="utf-8")
    with pytest.raises(ValueError, match="larger than"):
        harness.load_benchmark(path)

import csv
import json

import pytest

from stagedml.cli import EXIT_NO_MODEL, EXIT_OK, EXIT_USAGE, RunSpec, main
from stagedml.orchestrator import scheme_presets
from stagedml.stats import ResultMatrix


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    path = root / "sep.csv"
    assert main(["synth", "--kind", "separable", "--n", "60", "--d", "3", "--seed", "1",
                 "--out", str(path)]) == EXIT_OK
    return path


def run_args(synth_csv, outdir, *extra):
    return [
        "run", "--data", str(synth_csv), "--label", "label", "--preset", "primitive",
        "--seed", "3", "--out", str(outdir), *extra,
    ]


class TestSynth:
    def test_writes_csv_with_header(self, synth_csv):
        header = synth_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == "x0,x1,x2,label"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert main(["synth", "--kind", "noise_only", "--n", "30", "--d", "2",
                         "--seed", "9", "--out", str(p)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_kind_is_usage_error(self, tmp_path):
        assert main(["synth", "--kind", "blobs", "--n", "30", "--d", "2",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE


class TestRun:
    def test_writes_artifacts_and_prints_best(self, synth_csv, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(run_args(synth_csv, outdir)) == EXIT_OK
        printed = capsys.readouterr().out
        assert "|" in printed  # candidate key on stdout
        for name in ("report.json", "journal.jsonl", "stages.json", "registry.json"):
            assert (outdir / name).exists(), name
        report = json.loads((outdir / "report.json").read_text())
        assert report["schema_version"] == "run-report/1"
        assert report["selection_basis"] == "any-stage-best"
        assert report["reproducible"] is True
        journal_lines = (outdir / "journal.jsonl").read_text().strip().splitlines()
        assert len(journal_lines) == 5
        assert {json.loads(l)["stage"] for l in journal_lines} == {"probing"}

    def test_invalid_preset_names_valid_ones(self, synth_csv, tmp_path, capsys):
        code = main(run_args(synth_csv, tmp_path / "o", "--preset", "bogus")[:-2] + ["--preset", "bogus"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "primitive" in err and "full" in err

    def test_zero_timeout_exits_two(self, synth_csv, tmp_path):
        assert main(run_args(synth_csv, tmp_path / "o", "--global-timeout", "0")) == EXIT_NO_MODEL

    def test_missing_data_flag_is_usage_error(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_unreadable_data_is_usage_error(self, tmp_path):
        assert main(["run", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_config_file_flags_win(self, synth_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "bogus", "seed": 1}), encoding="utf-8")
        outdir = tmp_path / "o"
        code = main([
            "run", "--data", str(synth_csv), "--config", str(cfg),
            "--preset", "primitive", "--out", str(outdir),
        ])
        assert code == EXIT_OK  # the flag overrode the file's bogus preset
        echo = json.loads((outdir / "report.json").read_text())["config_echo"]
        assert echo["preset"] == "primitive"
        assert echo["seed"] == 1  # file value survived where no flag given

    def test_misspelled_stage_time_limit_is_usage_error(self, synth_csv, tmp_path, capsys):
        assert main(run_args(synth_csv, tmp_path / "o", "--stage-time-limit", "probng=0")) == EXIT_USAGE
        assert "probng" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stage_time_limits": {"tunning": 5}}), encoding="utf-8")
        assert main(run_args(synth_csv, tmp_path / "o", "--config", str(cfg))) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "tunning" in err and all(s in err for s in ("probing", "meta", "tuning", "validation"))
        assert not (tmp_path / "o").exists()
        # a stage id the preset does not run stays allowed
        assert main(run_args(synth_csv, tmp_path / "o", "--stage-time-limit", "tuning=5")) == EXIT_OK

    @pytest.mark.parametrize("seconds", ["nan", "-1"])
    def test_nan_or_negative_stage_time_limit_is_usage_error(self, synth_csv, tmp_path, capsys, seconds):
        out = tmp_path / "o"
        assert main(run_args(synth_csv, out, "--stage-time-limit", f"probing={seconds}")) == EXIT_USAGE
        assert "probing" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        # json writes NaN for float("nan"), and json.load reads it back
        cfg.write_text(json.dumps({"stage_time_limits": {"probing": float(seconds)}}), encoding="utf-8")
        assert main(run_args(synth_csv, out, "--config", str(cfg))) == EXIT_USAGE
        assert "probing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, field",
        [
            ("--global-timeout", "global_timeout"),
            ("--per-eval-timeout", "per_eval_timeout"),
            ("--tuning-max-evals", "tuning_max_evals"),
            ("--tuning-candidate-seconds", "tuning_candidate_seconds"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_nan_or_negative_budget_is_usage_error(self, synth_csv, tmp_path, capsys, flag, field, value):
        out = tmp_path / "o"
        assert main(run_args(synth_csv, out, flag, value)) == EXIT_USAGE
        err = capsys.readouterr().err
        # argparse names the flag when "nan" is not an integer; the spec check names the field
        assert (field in err or flag in err) and value in err
        cfg = tmp_path / "cfg.json"
        number = int(value) if field == "tuning_max_evals" and value == "-1" else float(value)
        cfg.write_text(json.dumps({field: number}), encoding="utf-8")
        assert main(run_args(synth_csv, out, "--config", str(cfg))) == EXIT_USAGE
        err = capsys.readouterr().err
        assert field in err and value in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "x"),
            ("repeats", "5"),
            ("m", 3.0),
            ("train_fraction", "0.7"),
            ("global_timeout", True),
            ("tuning_max_evals", 2.5),
            ("label", 1.5),
            ("format", 3),
            ("stage_time_limits", [["probing", 1]]),
        ],
    )
    def test_config_value_of_another_type_is_usage_error(self, synth_csv, tmp_path, capsys, command, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}), encoding="utf-8")
        out = tmp_path / "o"
        args = [command, "--data", str(synth_csv), "--preset", "primitive", "--out", str(out), "--config", str(cfg)]
        assert main(args) == EXIT_USAGE
        assert f"{field}=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_format_is_usage_error(self, synth_csv, tmp_path, capsys, command, source):
        out = tmp_path / "o"
        args = [command, "--data", str(synth_csv), "--preset", "primitive", "--out", str(out)]
        if source == "flag":
            args += ["--format", "xyz"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"format": "xyz"}), encoding="utf-8")
            args += ["--config", str(cfg)]
        assert main(args) == EXIT_USAGE
        assert "format='xyz'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_echo_reruns_identically(self, synth_csv, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(run_args(synth_csv, out1)) == EXIT_OK
        echo = json.loads((out1 / "report.json").read_text())["config_echo"]
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(echo), encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert json.loads((out2 / "report.json").read_text())["config_echo"] == echo
        journals = [[json.loads(l) for l in (o / "journal.jsonl").read_text().splitlines()] for o in (out1, out2)]
        strip = lambda recs: [{k: v for k, v in r.items() if k != "wall_ms"} for r in recs]
        assert strip(journals[0]) == strip(journals[1])

    def test_default_spec_is_the_full_preset(self):
        spec = RunSpec(data="x")
        assert spec.scheme().describe() == scheme_presets()["full"].describe()
        assert spec.to_config_echo() == {
            "data": "x", "label": "label", "format": None, "preset": "full", "seed": 0,
            "global_timeout": 3600.0, "repeats": 5, "train_fraction": 0.7, "per_eval_timeout": 60.0,
            "n_bar": 10000, "m": 10, "holdout_fraction": 0.10, "tuning_max_evals": None,
            "tuning_candidate_seconds": None, "stage_time_limits": {},
        }


class TestBench:
    def test_counts_and_pairing(self, synth_csv, tmp_path):
        outdir = tmp_path / "bench"
        code = main([
            "bench", "--data", str(synth_csv), "--label", "label",
            "--preset", "primitive", "--preset", "monotone-scaling",
            "--splits", "2", "--seed", "5", "--out", str(outdir),
        ])
        assert code == EXIT_OK
        rows = list(csv.DictReader(open(outdir / "results.csv", encoding="utf-8")))
        assert len(rows) == 4  # 1 dataset x 2 presets x 2 splits
        assert {r["approach_id"] for r in rows} == {"primitive", "monotone-scaling"}
        m = ResultMatrix.from_csv(outdir / "results.csv")
        assert m.complete_datasets(["primitive", "monotone-scaling"]) == ["sep"]

    def test_reports_carry_bench_cells(self, synth_csv, tmp_path):
        outdir = tmp_path / "bench2"
        main([
            "bench", "--data", str(synth_csv), "--label", "label",
            "--preset", "primitive", "--splits", "1", "--seed", "5", "--out", str(outdir),
        ])
        m = ResultMatrix.from_reports(outdir)
        assert m.get("sep", "primitive") is not None

    @pytest.mark.parametrize("splits", ["0", "-1"])
    def test_no_splits_is_usage_error(self, synth_csv, tmp_path, splits):
        outdir = tmp_path / "bench"
        code = main([
            "bench", "--data", str(synth_csv), "--label", "label", "--preset", "primitive",
            "--splits", splits, "--seed", "5", "--out", str(outdir),
        ])
        assert code == EXIT_USAGE and not (outdir / "results.csv").exists()

    def test_misspelled_stage_time_limit_is_usage_error(self, synth_csv, tmp_path):
        code = main([
            "bench", "--data", str(synth_csv), "--label", "label", "--preset", "primitive",
            "--splits", "1", "--stage-time-limit", "tunning=5", "--out", str(tmp_path / "bench"),
        ])
        assert code == EXIT_USAGE

    def test_unknown_preset_writes_nothing(self, synth_csv, tmp_path, capsys):
        outdir = tmp_path / "bench"
        code = main([
            "bench", "--data", str(tmp_path / "missing.csv"), "--data", str(synth_csv), "--label", "label",
            "--preset", "primitive", "--preset", "bogus", "--splits", "1", "--out", str(outdir),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bogus" in err and "primitive" in err  # the preset is named, not the missing file
        assert not outdir.exists()

    @pytest.mark.parametrize("fraction", ["1.5", "0", "1", "-0.2", "nan"])
    def test_outer_fraction_outside_unit_interval_writes_nothing(self, synth_csv, tmp_path, capsys, fraction):
        outdir = tmp_path / "bench"
        code = main([
            "bench", "--data", str(tmp_path / "missing.csv"), "--data", str(synth_csv), "--preset", "primitive",
            "--splits", "1", "--outer-train-fraction", fraction, "--out", str(outdir),
        ])
        assert code == EXIT_USAGE
        assert "--outer-train-fraction" in capsys.readouterr().err  # the fraction is named, not the missing file
        assert not outdir.exists()

    def test_repeated_dataset_id_is_usage_error(self, synth_csv, tmp_path, capsys):
        other = tmp_path / "y" / synth_csv.name  # another file with the same stem
        other.parent.mkdir()
        other.write_bytes(synth_csv.read_bytes())
        outdir = tmp_path / "bench"
        code = main([
            "bench", "--data", str(synth_csv), "--data", str(other), "--preset", "primitive",
            "--splits", "2", "--out", str(outdir),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(synth_csv) in err and str(other) in err
        assert not outdir.exists()

    def test_singleton_class_outer_split(self, tmp_path):
        # 20/20/1 rows over three classes: the lone row goes to the train side
        rows = [f"{i % 7}.5,{i % 3},{'abc'[min(i // 20, 2)]}" for i in range(41)]
        path = tmp_path / "lone.csv"
        path.write_text("x0,x1,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main([
            "bench", "--data", str(path), "--label", "label", "--preset", "primitive",
            "--splits", "1", "--seed", "5", "--out", str(tmp_path / "bench"),
        ])
        assert code == EXIT_OK

    def test_single_class_data_benches_every_cell(self, tmp_path):
        # the outer split, the holdout and the folds each take one class as one stratum
        rows = [f"{i % 7}.5,{i % 3}.25,only" for i in range(30)]
        path = tmp_path / "one.csv"
        path.write_text("x0,x1,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
        outdir = tmp_path / "bench"
        code = main([
            "bench", "--data", str(path), "--label", "label", "--preset", "primitive",
            "--preset", "single-validation", "--splits", "2", "--seed", "3", "--out", str(outdir),
        ])
        assert code == EXIT_OK
        rows = list(csv.DictReader(open(outdir / "results.csv", encoding="utf-8")))
        cells = {(r["dataset_id"], r["approach_id"], r["split_index"]) for r in rows}
        assert len(rows) == len(cells) == 4
        assert {c[1] for c in cells} == {"primitive", "single-validation"}
        assert all(float(r["error"]) == 0.0 for r in rows)

    def test_full_preset_solves_separable(self, synth_csv, tmp_path):
        outdir = tmp_path / "bench3"
        code = main([
            "bench", "--data", str(synth_csv), "--label", "label",
            "--preset", "full", "--splits", "1", "--seed", "7",
            "--tuning-max-evals", "2", "--stage-time-limit", "meta=10",
            "--stage-time-limit", "tuning=10", "--out", str(outdir),
        ])
        assert code == EXIT_OK
        rows = list(csv.DictReader(open(outdir / "results.csv", encoding="utf-8")))
        assert all(float(r["error"]) <= 0.05 for r in rows)


class TestReport:
    def _results_csv(self, tmp_path):
        m = ResultMatrix()
        base = [0.50 + 0.001 * i for i in range(10)]
        for i, ds in enumerate(["d0", "d1"]):
            for name, shift in (("primitive", 0.0), ("single-filtering", 0.2 if i == 0 else 0.0),
                                ("monotone-filtering", 0.25 if i == 0 else 0.0)):
                for s, v in enumerate(base):
                    m.add(ds, name, s, v - shift)
        path = tmp_path / "results.csv"
        m.to_csv(path)
        return path

    def test_tables_written(self, tmp_path):
        path = self._results_csv(tmp_path)
        outdir = tmp_path / "tables"
        code = main([
            "report", "--results", str(path), "--baseline", "primitive",
            "--range", "monotone-filtering=single-filtering", "--out", str(outdir),
        ])
        assert code == EXIT_OK
        for name in ("mean_table.csv", "mean_table.txt", "tournament.csv",
                     "tournament.txt", "synergy.csv", "synergy.txt"):
            assert (outdir / name).exists(), name
        tour = {r["approach_id"]: r for r in csv.DictReader(open(outdir / "tournament.csv"))}
        assert tour["single-filtering"]["wins"] == "1"

    def test_identical_approaches_all_indistinguishable(self, tmp_path):
        m = ResultMatrix()
        base = [0.4 + 0.01 * i for i in range(8)]
        for s, v in enumerate(base):
            m.add("d0", "a", s, v)
            m.add("d0", "b", s, v)
        path = tmp_path / "r.csv"
        m.to_csv(path)
        outdir = tmp_path / "t"
        assert main(["report", "--results", str(path), "--baseline", "a", "--out", str(outdir)]) == EXIT_OK
        rows = list(csv.DictReader(open(outdir / "mean_table.csv")))
        assert all(r["mark"] in ("*", "~") for r in rows)

    def test_unpaired_splits_hard_error(self, tmp_path):
        m = ResultMatrix()
        for s in range(4):
            m.add("d0", "a", s, 0.1)
        for s in range(3):
            m.add("d0", "b", s, 0.2)
        path = tmp_path / "r.csv"
        m.to_csv(path)
        assert main(["report", "--results", str(path), "--baseline", "a",
                     "--out", str(tmp_path / "t")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "rows, line, problem",
        [
            (["d0,a,-1,0.1"], 3, "split index below 0"),
            (["d0,a,0,0.1", "d0,a,0,0.3"], 4, "filled twice"),
            (["d0,a,0,nan"], 3, "error nan is not a rate"),
            (["d0,a,0,1.5"], 3, "error 1.5 is not a rate"),
        ],
    )
    def test_malformed_row_is_usage_error(self, tmp_path, capsys, rows, line, problem):
        path = tmp_path / "r.csv"
        lines = ["dataset_id,approach_id,split_index,error", "d0,b,0,0.2", *rows, "d1,a,0,0.1", "d1,b,0,0.2"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["report", "--results", str(path), "--baseline", "a", "--out", str(tmp_path / "t")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{path}, line {line}: cell (d0, a, split " in err and problem in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--alpha", "nan"), ("--alpha", "-1"), ("--alpha", "0"), ("--alpha", "1"),
            ("--delta", "-5"), ("--delta", "nan"), ("--delta", "inf"),
            ("--trim", "0.6"), ("--trim", "0.5"), ("--trim", "-0.1"),
        ],
    )
    def test_statistics_flag_out_of_range_writes_nothing(self, tmp_path, capsys, flag, value):
        path = self._results_csv(tmp_path)
        outdir = tmp_path / "t"
        code = main(["report", "--results", str(path), flag, value, "--out", str(outdir)])
        assert code == EXIT_USAGE and f"{flag} " in capsys.readouterr().err
        assert not outdir.exists()

    def test_empty_directory_is_usage_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--results", str(empty), "--out", str(tmp_path / "t")]) == EXIT_USAGE

    def test_missing_baseline_is_usage_error(self, tmp_path):
        path = self._results_csv(tmp_path)
        assert main(["report", "--results", str(path), "--baseline", "nope",
                     "--out", str(tmp_path / "t")]) == EXIT_USAGE

    @pytest.mark.parametrize("item", ["monotone-filtering", "monotone-filtering=", "monotone-filtering=,"])
    def test_range_without_singles_is_usage_error(self, tmp_path, capsys, item):
        path = self._results_csv(tmp_path)
        code = main(["report", "--results", str(path), "--range", item, "--out", str(tmp_path / "t")])
        assert code == EXIT_USAGE and "--range expects RANGE_ID=SINGLE1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "item, absent",
        [
            ("nosuch=single-filtering", ["nosuch"]),
            ("monotone-filtering=single-filtering,typo", ["typo"]),
            ("nosuch=single-scaling,typo", ["nosuch", "single-scaling", "typo"]),
        ],
    )
    def test_range_of_absent_approach_is_usage_error(self, tmp_path, capsys, item, absent):
        path = self._results_csv(tmp_path)
        outdir = tmp_path / "t"
        code = main(["report", "--results", str(path), "--baseline", "primitive", "--range", item,
                     "--out", str(outdir)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{', '.join(absent)} absent; approaches: monotone-filtering, primitive, single-filtering" in err
        assert not outdir.exists()

    def test_repeated_range_id_is_usage_error(self, tmp_path, capsys):
        path = self._results_csv(tmp_path)
        outdir = tmp_path / "t"
        code = main(["report", "--results", str(path), "--baseline", "primitive",
                     "--range", "monotone-filtering=single-filtering", "--range", "monotone-filtering=primitive",
                     "--out", str(outdir)])
        assert code == EXIT_USAGE
        assert "--range monotone-filtering given twice" in capsys.readouterr().err
        assert not outdir.exists()

import csv
import json

import pytest

from stagedml.cli import EXIT_NO_MODEL, EXIT_OK, EXIT_USAGE, main
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

    def test_config_echo_reruns_identically(self, synth_csv, tmp_path):
        from stagedml.cli import RunSpec, run_from_spec

        out1 = tmp_path / "o1"
        assert main(run_args(synth_csv, out1)) == EXIT_OK
        echo = json.loads((out1 / "report.json").read_text())["config_echo"]
        report2 = run_from_spec(RunSpec.from_config_echo(echo))
        journal1 = [json.loads(l) for l in (out1 / "journal.jsonl").read_text().splitlines()]
        strip = lambda recs: [{k: v for k, v in r.items() if k != "wall_ms"} for r in recs]
        assert strip(journal1) == strip(report2.journal)


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

    def test_empty_directory_is_usage_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--results", str(empty), "--out", str(tmp_path / "t")]) == EXIT_USAGE

    def test_missing_baseline_is_usage_error(self, tmp_path):
        path = self._results_csv(tmp_path)
        assert main(["report", "--results", str(path), "--baseline", "nope",
                     "--out", str(tmp_path / "t")]) == EXIT_USAGE

import json

import pytest

from qsgames import cli, experiments


class TestCatalog:
    def test_contains_key_experiments(self):
        names = {e["name"] for e in experiments.list_experiments()}
        assert "hadamard-impossibility" in names
        assert "bm-oram-separation" in names
        assert "fair-coin-calibration" in names

    def test_every_entry_is_runnable(self):
        # tiny trial counts: existence and wiring, not statistics
        for entry in experiments.list_experiments():
            result, _ = experiments.get(entry["name"]).run(trials=2)
            assert result.trials == 2

    def test_every_entry_documents_defaults(self):
        for entry in experiments.list_experiments():
            assert "trials" in entry["defaults"] and "seed" in entry["defaults"]
            assert entry["description"] and entry["claim"] and entry["pass_rule"]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            experiments.get("no-such-experiment")


class TestRunCli:
    def test_json_report_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main([
            "--experiment", "otp-reuse-break", "--trials", "50", "--seed", "3",
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["game"] == "otp-reuse-break"
        assert obj["successes"] == 50 and obj["pass"] is True
        assert "claim" in obj

    def test_csv_report(self, tmp_path):
        out = tmp_path / "report.csv"
        code = cli.main([
            "--experiment", "fair-coin-calibration", "--trials", "400", "--seed", "5",
            "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "experiment,trials,successes,advantage,ci95,pass,seed"
        assert lines[1].startswith("fair-coin-calibration,400,")

    def test_reports_are_deterministic_modulo_runtime(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            cli.main(["--experiment", "fair-coin-calibration", "--trials", "300",
                      "--seed", "9", "--out", str(out)])
            obj = json.loads(out.read_text())
            obj.pop("runtime_ms")
            outs.append(json.dumps(obj, sort_keys=True))
        assert outs[0] == outs[1]

    def test_param_override(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["--experiment", "hadamard-impossibility", "--trials", "20",
                         "--param", "m=2", "--param", "scheme=goldreich", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["params"]["m"] == 2

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("# overrides\nm = 2\nscheme = otp\n")
        code = cli.main(["--experiment", "hadamard-impossibility", "--trials", "10",
                         "--config", str(cfg)])
        assert code == 0

    def test_unknown_experiment_fails(self):
        assert cli.main(["--experiment", "missing"]) == 2

    def test_invalid_param_fails(self):
        assert cli.main(["--experiment", "hadamard-impossibility", "--param", "oops"]) == 2
        assert cli.main(["--experiment", "hadamard-impossibility", "--trials", "5",
                         "--param", "scheme=unknown"]) == 2

    def test_unknown_param_key_rejected(self, capsys):
        code = cli.main(["--experiment", "hadamard-impossibility", "--trials", "5",
                         "--param", "msg_bitz=3"])
        assert code == 2
        assert "msg_bitz" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("m = 2\nschem = otp\n")
        assert cli.main(["--experiment", "hadamard-impossibility", "--trials", "5",
                         "--config", str(cfg)]) == 2

    def test_identical_arms_needs_two_trials(self, capsys):
        assert cli.main(["--experiment", "qind-identical-arms", "--trials", "1"]) == 2
        assert "at least 2 trials" in capsys.readouterr().err
        assert cli.main(["--experiment", "qind-identical-arms", "--trials", "2"]) == 0

    def test_list(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "hadamard-impossibility" in out and "bm-oram-separation" in out


class TestReportSuite:
    def test_empty_directory(self, tmp_path, capsys):
        assert cli.report_suite(str(tmp_path)) == 0
        assert "0/0" in capsys.readouterr().out

    def test_mixed_pass_fail(self, tmp_path, capsys):
        cli.main(["--experiment", "otp-reuse-break", "--trials", "20",
                  "--out", str(tmp_path / "ok.json")])
        (tmp_path / "bad.json").write_text(json.dumps({
            "game": "synthetic-fail", "advantage": 0.4, "ci95": 0.01, "pass": False,
        }))
        code = cli.report_suite(str(tmp_path))
        out = capsys.readouterr().out
        assert code == 1 and "1/2" in out

    def test_both_formats_parsed(self, tmp_path, capsys):
        cli.main(["--experiment", "otp-reuse-break", "--trials", "10",
                  "--out", str(tmp_path / "a.json"), "--format", "json"])
        cli.main(["--experiment", "fair-coin-calibration", "--trials", "400",
                  "--out", str(tmp_path / "b.csv"), "--format", "csv"])
        assert cli.report_suite(str(tmp_path)) == 0
        assert "2/2" in capsys.readouterr().out

    def test_unreadable_file_is_error_row(self, tmp_path, capsys):
        (tmp_path / "junk.json").write_text("{not json")
        code = cli.report_suite(str(tmp_path))
        out = capsys.readouterr().out
        assert code == 1 and "ERROR" in out

    def test_summary_csv_export(self, tmp_path):
        cli.main(["--experiment", "otp-reuse-break", "--trials", "10",
                  "--out", str(tmp_path / "a.json")])
        dest = tmp_path / "summary.csv"
        cli.report_suite(str(tmp_path), str(dest))
        assert dest.read_text().startswith("experiment,advantage,ci95,pass")

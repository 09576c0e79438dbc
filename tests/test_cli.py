import json
import sys
from collections import Counter

import pytest

from qsgames import cli, experiments, games, quantum
from qsgames.qoram import QuantumCodec
from skes_blocks import misseal


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

    def test_every_trial_enters_through_the_games_module(self, monkeypatch):
        # The benchmark's tracer times trials by replacing
        # games.estimate_advantage and games.game_* for a run, so every
        # call of those functions must go through the module attribute: a
        # row holding a function bound at import would run a game unseen.
        originals = {name: fn for name, fn in vars(games).items()
                     if name == "estimate_advantage" or (name.startswith("game_") and callable(fn))}
        names = {fn.__code__: name for name, fn in originals.items()}
        entered, ran = Counter(), Counter()

        def through(name, fn):
            def wrapper(*args, **kwargs):
                entered[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                ran[names[frame.f_code]] += 1

        for name, fn in originals.items():
            monkeypatch.setattr(games, name, through(name, fn))
        for name in sorted(experiments.REGISTRY):
            entered.clear()
            ran.clear()
            sys.setprofile(profile)
            try:
                experiments.get(name).run(trials=2)
            finally:
                sys.setprofile(None)
            assert ran == entered, (name, ran, entered)
            if name == "qind-identical-arms":  # one trial loop per challenge bit
                assert entered == Counter({"estimate_advantage": 2, "game_qind": 2})
            elif name == "fs-roundtrip":  # a sign/verify cycle, no game
                assert entered == Counter({"estimate_advantage": 1})
            else:
                assert entered["estimate_advantage"] == 1 and len(entered) > 1, (name, entered)

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

    def test_config_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("# overrides\nscheme = otp\nm 2\n")
        assert cli.main(["--experiment", "hadamard-impossibility", "--trials", "5",
                         "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3:" in err and "key=value" in err and "'m 2'" in err
        assert "unpack" not in err

    def test_identical_arms_needs_two_trials(self, capsys):
        assert cli.main(["--experiment", "qind-identical-arms", "--trials", "1"]) == 2
        assert "at least 2 trials" in capsys.readouterr().err
        assert cli.main(["--experiment", "qind-identical-arms", "--trials", "2"]) == 0

    def test_internal_error_is_not_a_fail(self, capsys, monkeypatch):
        # a game that aborts must read neither as a predicate FAIL (1)
        # nor as bad input (2)
        def aborting_game(*args, **kwargs):
            raise games.GameProtocolError("challenge request uses an invalid id")

        monkeypatch.setattr(games, "game_ap_ind_cqa", aborting_game)
        for name in ("leaf-frequency-null", "bm-oram-separation"):
            assert cli.main(["--experiment", name, "--trials", "2"]) == 3
            err = capsys.readouterr().err
            assert err.startswith("internal error: GameProtocolError: ")
            assert err.count("\n") == 1

    def test_a_codec_fault_found_by_the_debug_checks_is_an_internal_error(self, capsys, monkeypatch):
        # debug mode decrypts every block the quantum codec decodes from
        # the plaintext it holds; a block sealed under the wrong tag is the
        # codec's fault, not a FAIL, and only debug mode sees it here
        seal = QuantumCodec.seal

        def misseal(codec, tag, data, r):
            masked_tag, masked = seal(codec, tag, data, r)
            return masked_tag ^ 1, masked

        monkeypatch.setattr(QuantumCodec, "seal", misseal)
        monkeypatch.setattr(quantum, "DEBUG_CHECKS", False)
        assert cli.main(["--experiment", "qap-tag-null", "--trials", "2"]) in (0, 1)
        capsys.readouterr()
        monkeypatch.setattr(quantum, "DEBUG_CHECKS", True)
        assert cli.main(["--experiment", "qap-tag-null", "--trials", "2"]) == 3
        assert capsys.readouterr().err.startswith("internal error: DecryptionMismatch: ")

    def test_a_classical_codec_fault_found_by_the_debug_checks_is_an_internal_error(self, capsys, monkeypatch):
        # debug mode decrypts the body of every block the classical codec
        # decodes; a block sealed under the wrong pad is the codec's
        # fault, and only debug mode sees it, since decoding trusts the pad
        misseal(monkeypatch)
        monkeypatch.setattr(quantum, "DEBUG_CHECKS", False)
        assert cli.main(["--experiment", "leaf-frequency-null", "--trials", "2"]) in (0, 1)
        capsys.readouterr()
        monkeypatch.setattr(quantum, "DEBUG_CHECKS", True)
        assert cli.main(["--experiment", "leaf-frequency-null", "--trials", "2"]) == 3
        assert capsys.readouterr().err.startswith("internal error: DecryptionMismatch: ")

    def test_challenge_ids_need_two_blocks(self, capsys):
        # these adversaries challenge with ids 1 and 2
        for name in ("leaf-frequency-null", "bm-oram-separation", "bm-oram-null", "qap-tag-null"):
            assert cli.main(["--experiment", name, "--trials", "2", "--param", "n_db=1"]) == 2
            assert "n_db" in capsys.readouterr().err
        # one id is all the payload adversary touches: it runs to a verdict
        assert cli.main(["--experiment", "qap-payload-null", "--trials", "2", "--param", "n_db=1"]) in (0, 1)

    def test_payload_adversary_needs_one_block(self, capsys):
        assert cli.main(["--experiment", "qap-payload-null", "--trials", "2", "--param", "n_db=0"]) == 2
        assert "n_db must be at least 1, got 0" in capsys.readouterr().err

    def test_negative_query_count_is_a_parameter_error(self, capsys):
        for name, k in (("leaf-frequency-null", -1), ("qap-tag-null", -3), ("bm-oram-null", -1)):
            assert cli.main(["--experiment", name, "--trials", "2", "--param", f"k={k}"]) == 2
            err = capsys.readouterr().err
            assert "k (the number of learning queries)" in err and f"got {k}" in err
        # no learning queries at all is the adversary that can only guess
        assert cli.main(["--experiment", "bm-oram-null", "--trials", "2", "--param", "k=0"]) in (0, 1)

    def test_learning_budget_follows_k(self, capsys):
        # every learning-query row grants k + 2 phase-1 requests, so a k
        # above a game's default budget runs to a verdict
        assert cli.main(["--experiment", "qap-tag-null", "--trials", "2", "--param", "k=40"]) in (0, 1)
        assert "internal error" not in capsys.readouterr().err

    def test_generator_group_is_checked_against_the_hardened_oram_too(self, capsys):
        # bm-oram-null never builds the generator, only its adversary does
        for param in ("p=4", "g=1"):
            assert cli.main(["--experiment", "bm-oram-null", "--trials", "2", "--param", param]) == 2
            assert param in capsys.readouterr().err

    def test_override_of_another_type_is_a_parameter_error(self, capsys):
        assert cli.main(["--experiment", "otp-reuse-null", "--param", "msg_bits=2.5", "--trials", "3"]) == 2
        err = capsys.readouterr().err
        assert "msg_bits=2.5" in err and "default 8" in err
        # a bool is not an int, although Python counts it as one
        with pytest.raises(ValueError, match="msg_bits=True has type bool, but its default 8 has type int"):
            experiments.get("otp-reuse-null").run(trials=3, overrides={"msg_bits": True})

    def test_prp_without_randomness_is_a_parameter_error(self, capsys):
        for name in ("hadamard-prp-bound", "cca2-flip-null"):
            assert cli.main(["--experiment", name, "--trials", "2", "--param", "r_bits=0"]) == 2
            assert "r_bits" in capsys.readouterr().err

    def test_unusable_paths_are_argument_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "file")
        assert cli.main(["--experiment", "fair-coin-calibration", "--trials", "2",
                         "--config", missing]) == 2
        assert cli.main(["--experiment", "fair-coin-calibration", "--trials", "2",
                         "--out", missing]) == 2
        assert capsys.readouterr().err.count("No such file") == 2
        # --report-suite: a missing directory, a file in place of one,
        # and an unwritable summary, each one line on stderr
        a_file = tmp_path / "a.json"
        a_file.write_text("{}")
        for argv in (["--report-suite", missing], ["--report-suite", str(a_file)],
                     ["--report-suite", str(tmp_path), "--out", missing]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_unknown_lift_target_names_the_choices(self, capsys):
        assert cli.main(["--experiment", "hadamard-impossibility", "--trials", "5",
                         "--param", "scheme=foo"]) == 2
        err = capsys.readouterr().err
        assert "'foo'" in err and "otp" in err and "goldreich" in err

    def test_no_arguments_print_the_help(self, capsys):
        assert cli.main([]) == 2
        assert "usage: qsgames" in capsys.readouterr().out

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

    def test_other_suffixes_are_left_out(self, tmp_path, capsys):
        cli.main(["--experiment", "otp-reuse-break", "--trials", "10",
                  "--out", str(tmp_path / "a.json")])
        (tmp_path / "notes.txt").write_text("not a report")
        assert cli.report_suite(str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "1/1" in out and "notes" not in out

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

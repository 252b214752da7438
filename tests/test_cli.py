"""Command-line behavior: exit codes, formats, determinism, diagnostics."""

import json
import subprocess
import sys

import pytest

from bellgame.cli import (
    EXIT_CONFIG,
    EXIT_DEFECT,
    EXIT_OK,
    EXIT_UNKNOWN_STRATEGY,
    EXIT_VIOLATION,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListStrategies:
    def test_lists_everything(self, capsys):
        code, out, err = run_cli(capsys, "list-strategies")
        assert code == EXIT_OK
        assert "negotiation" in out
        assert "cheat  (requires censor off)" in out
        assert "quantum-oracle" in out
        assert err == ""


class TestProveBound:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "prove-bound")
        assert code == EXIT_OK
        assert "minimum: 5/9" in out
        assert out.count("5/9") >= 7  # six sets plus the minimum line

    def test_jsonl(self, capsys):
        code, out, _ = run_cli(capsys, "prove-bound", "--format", "jsonl")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["minimum"] == "5/9"

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "prove-bound", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "instruction_set,same_color_fraction"
        assert "RRR,1" in lines and "RRG,5/9" in lines

    def test_enumeration_defect_exits_one(self, capsys, monkeypatch):
        def broken():
            raise RuntimeError("floor enumeration produced 1/2, not 5/9")

        monkeypatch.setattr("bellgame.cli.prove_bound", broken)
        code, out, err = run_cli(capsys, "prove-bound")
        assert code == EXIT_DEFECT == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "bound-defect",
            "detail": "floor enumeration produced 1/2, not 5/9",
        }


class TestRunCommand:
    def test_unknown_strategy(self, capsys):
        code, out, err = run_cli(capsys, "run", "--strategy", "nope", "--n", "5")
        assert code == EXIT_UNKNOWN_STRATEGY
        diag = json.loads(err)
        assert diag["error"] == "unknown-strategy"
        assert "negotiation" in diag["available"]
        assert err.count("\n") == 1  # single line

    def test_cheat_with_censor_on(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--strategy", "cheat", "--censor", "on", "--n", "10", "--seed", "3"
        )
        assert code == EXIT_VIOLATION
        diag = json.loads(err)
        assert diag["error"] == "censor-violation"
        assert diag["violation"]["round"] == 1
        assert diag["violation"]["payload_a"] != diag["violation"]["payload_b"]

    def test_cheat_with_censor_off_succeeds(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--strategy", "cheat", "--censor", "off", "--n", "3000", "--seed", "3"
        )
        assert code == EXIT_OK
        assert "feature (i)" in out

    def test_text_report_narrative_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--strategy", "negotiation", "--n", "500", "--seed", "1"
        )
        assert code == EXIT_OK
        i1 = out.index("feature (i)")
        i2 = out.index("feature (ii)")
        i3 = out.index("classical floor")
        i4 = out.index("verdict")
        assert i1 < i2 < i3 < i4

    def test_quantum_oracle_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--strategy", "quantum-oracle", "--n", "3000", "--seed", "2"
        )
        assert code == EXIT_OK
        assert "below the classical floor" in out

    def test_jsonl_output_shape(self, capsys, tmp_path):
        target = tmp_path / "records.jsonl"
        code, _, _ = run_cli(
            capsys,
            "run", "--strategy", "fixed-RRG", "--n", "4", "--seed", "9",
            "--format", "jsonl", "--output", str(target),
        )
        assert code == EXIT_OK
        lines = target.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "header"
        assert len(lines) == 6  # header + 4 records + stats
        assert json.loads(lines[-1])["type"] == "stats"

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--strategy", "fixed-GGG", "--n", "50", "--seed", "4",
            "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "left,right,n,same_fraction,confidence_radius"

    def test_rejects_bad_n(self, capsys):
        code, _, err = run_cli(capsys, "run", "--strategy", "negotiation", "--n", "0")
        assert code == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"

    @pytest.mark.parametrize("strategy_id", ["fixed-RRR", "quantum-oracle"])
    def test_two_byte_frames_accepted(self, capsys, strategy_id):
        code, out, err = run_cli(
            capsys, "run", "--strategy", strategy_id, "--payload-bytes", "2", "--n", "10"
        )
        assert code == EXIT_OK
        assert err == ""
        assert "runs: 10" in out

    def test_negotiation_rejects_two_byte_frames(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--strategy", "negotiation", "--payload-bytes", "2", "--n", "10"
        )
        assert code == EXIT_CONFIG
        assert json.loads(err) == {
            "error": "config",
            "detail": "negotiation needs payload frames of at least 3 bytes",
        }

    @pytest.mark.parametrize(
        "option, detail",
        [
            ("--payload-bytes", "negotiation needs payload frames of at least 3 bytes"),
            ("--tape-bytes", "negotiation needs at least 3 shared tape bytes"),
        ],
    )
    def test_config_error_writes_no_stream(self, capsys, option, detail):
        # the JSONL header waits for run 0, so a rejected config leaves no
        # partial stream behind
        code, out, err = run_cli(
            capsys, "run", "--strategy", "negotiation", option, "2", "--n", "10",
            "--format", "jsonl",
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert json.loads(err) == {"error": "config", "detail": detail}

    def test_byte_identical_reruns(self, capsys, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for target in (out_a, out_b):
            code, _, _ = run_cli(
                capsys,
                "run", "--strategy", "negotiation", "--n", "100", "--seed", "77",
                "--format", "jsonl", "--output", str(target),
            )
            assert code == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()


class TestGapCommand:
    def test_small_n_warns_but_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "gap", "--n", "10", "--seed", "5")
        assert code == EXIT_OK
        assert json.loads(err)["error"] == "power-warning"

    def test_quantum_vs_quantum_no_gap(self, capsys):
        code, out, _ = run_cli(
            capsys, "gap", "--strategy", "quantum-oracle", "--n", "4000", "--seed", "5"
        )
        assert code == EXIT_OK
        assert "overlap" in out

    def test_jsonl_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "gap", "--n", "2000", "--seed", "5", "--format", "jsonl"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["floor"] == "5/9"

    def test_rejects_bad_n(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--n", "-1")
        assert code == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"

    def test_cheat_classical_side_violates(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--strategy", "cheat", "--n", "10")
        assert code == EXIT_VIOLATION
        assert json.loads(err)["error"] == "censor-violation"


class TestVerifyCensor:
    def test_single_strategy(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-censor", "--strategy", "negotiation", "--n", "10", "--seed", "1"
        )
        assert code == EXIT_OK
        assert "negotiation: ok" in out

    def test_all_strategies_skips_cheat(self, capsys):
        code, out, _ = run_cli(capsys, "verify-censor", "--n", "3", "--seed", "1")
        assert code == EXIT_OK
        assert "cheat: declared censor-off; skipped" in out

    def test_quantum_oracle_skipped(self, capsys):
        code, out, err = run_cli(capsys, "verify-censor", "--strategy", "quantum-oracle", "--n", "3")
        assert code == EXIT_OK
        assert out == "quantum-oracle: color source, no wings; skipped\n"
        assert err == ""

    def test_all_goes_on_past_a_rejected_frame_size(self, capsys):
        code, out, err = run_cli(capsys, "verify-censor", "--payload-bytes", "2", "--n", "2")
        assert code == EXIT_OK
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "negotiation: negotiation needs payload frames of at least 3 bytes; skipped"
        assert lines[-1] == "cheat: declared censor-off; skipped"
        checked = lines[1:-1]
        assert len(checked) == 12
        assert all(line.endswith(": ok (2 runs, transcripts setting-invariant)") for line in checked)

    def test_named_strategy_rejecting_the_frame_size_is_a_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-censor", "--strategy", "negotiation", "--payload-bytes", "2", "--n", "2"
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert json.loads(err) == {
            "error": "config",
            "detail": "negotiation needs payload frames of at least 3 bytes",
        }

    def test_rejects_bad_n(self, capsys):
        code, _, err = run_cli(capsys, "verify-censor", "--n", "0")
        assert code == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"


class TestEnvironmentOverrides:
    def test_seed_env_used_when_flag_absent(self, capsys, tmp_path, monkeypatch):
        out_env = tmp_path / "env.jsonl"
        out_flag = tmp_path / "flag.jsonl"
        monkeypatch.setenv("BELLGAME_SEED", "123")
        run_cli(
            capsys, "run", "--strategy", "fixed-RRG", "--n", "10",
            "--format", "jsonl", "--output", str(out_env),
        )
        monkeypatch.delenv("BELLGAME_SEED")
        run_cli(
            capsys, "run", "--strategy", "fixed-RRG", "--n", "10", "--seed", "123",
            "--format", "jsonl", "--output", str(out_flag),
        )
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        monkeypatch.setenv("BELLGAME_SEED", "99999")
        run_cli(
            capsys, "run", "--strategy", "fixed-RRG", "--n", "10", "--seed", "1",
            "--format", "jsonl", "--output", str(out_a),
        )
        monkeypatch.delenv("BELLGAME_SEED")
        run_cli(
            capsys, "run", "--strategy", "fixed-RRG", "--n", "10", "--seed", "1",
            "--format", "jsonl", "--output", str(out_b),
        )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_output_env(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "from_env.txt"
        monkeypatch.setenv("BELLGAME_OUTPUT", str(target))
        code, out, _ = run_cli(capsys, "prove-bound")
        assert code == EXIT_OK
        assert out == ""
        assert "minimum: 5/9" in target.read_text()


@pytest.mark.parametrize(
    "command", ["run", "prove-bound", "gap", "verify-censor", "list-strategies"]
)
def test_every_command_documents_output(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == EXIT_OK
    line = next(l for l in out.splitlines() if l.strip().startswith("--output"))
    assert line.endswith("output path, '-' for stdout (env BELLGAME_OUTPUT)")


class TestUsageErrors:
    def test_unknown_flag_single_line_diagnostic(self, capsys):
        code, _, err = run_cli(capsys, "run", "--strategy", "negotiation", "--frobnicate")
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "config"

    def test_missing_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bellgame", "list-strategies"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "negotiation" in proc.stdout

"""Command-line behavior: exit codes, formats, determinism, diagnostics."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellgame import cli
from bellgame.analysis import ExperimentStats, hoeffding_radius
from bellgame.cli import (
    EXIT_CONFIG,
    EXIT_DEFECT,
    EXIT_OK,
    EXIT_UNKNOWN_STRATEGY,
    EXIT_VIOLATION,
    _RunReport,
    main,
)
from bellgame.core import ALL_SETTING_PAIRS, Color, Setting, SettingPair
from bellgame.strategies import _FACTORIES


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
        "option, value, detail",
        [
            ("--payload-bytes", "2", "negotiation needs payload frames of at least 3 bytes"),
            ("--tape-bytes", "2", "negotiation needs at least 3 shared tape bytes"),
            ("--tape-bytes", "2", "max-random needs at least 3 shared tape bytes"),
            ("--tape-bytes", "3", "tape-mixing needs at least 4 shared tape bytes"),
            ("--tape-bytes", "1", "cheat needs at least 2 shared tape bytes"),
        ],
    )
    def test_config_error_writes_no_stream(self, capsys, option, value, detail):
        # the JSONL header waits for run 0, so a rejected config leaves no
        # partial stream behind; every detail starts with its strategy's id
        code, out, err = run_cli(
            capsys, "run", "--strategy", detail.split()[0], option, value, "--n", "10",
            "--format", "jsonl",
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert json.loads(err) == {"error": "config", "detail": detail}

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_output_is_a_config_error(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "x.txt" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(
            capsys, "run", "--strategy", "fixed-RRR", "--n", "5", "--output", str(target)
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1
        diag = json.loads(err)
        assert diag["error"] == "config"
        assert str(target) in diag["detail"]

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


def _stats(per_pair):
    """Tallies from {(left, right): (same, different)}; other pairs have none."""
    stats = ExperimentStats()
    for (l, r), (same, diff) in per_pair.items():
        stats.counts[SettingPair(Setting(l), Setting(r))] = [same, diff]
    return stats


def _uniform_stats(n_per_pair):
    """Every pair run ``n_per_pair`` times; equal settings always agree, the
    others half the time."""
    return _stats({
        (l, r): (n_per_pair, 0) if l == r else (n_per_pair // 2, n_per_pair - n_per_pair // 2)
        for l in (1, 2, 3)
        for r in (1, 2, 3)
    })


class TestRunReport:
    def test_csv_shape(self):
        lines = _RunReport("x", _uniform_stats(10)).to_csv().splitlines()
        assert lines[0] == "left,right,n,same_fraction,confidence_radius"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1" and first[2] == "10"

    def test_csv_empty_pairs_blank(self):
        csv = _RunReport("x", _stats({(1, 2): (3, 1)})).to_csv()
        rows = {tuple(l.split(",")[:2]): l for l in csv.splitlines()[1:]}
        assert rows[("1", "2")].endswith(f",{3/4:.6f},{hoeffding_radius(4):.6f}")
        assert rows[("3", "3")] == "3,3,0,,"

    def test_text_contains_overall(self):
        text = _RunReport("x", _uniform_stats(4)).to_text()
        assert "overall:" in text

    def test_rows_in_canonical_order_whatever_the_tally_order(self):
        backwards = ExperimentStats({pair: [1, 0] for pair in reversed(ALL_SETTING_PAIRS)})
        canonical = [f"{int(p.left)},{int(p.right)}" for p in ALL_SETTING_PAIRS]
        report = _RunReport("x", backwards)
        assert [row[:3] for row in report.to_csv().splitlines()[1:]] == canonical
        assert [row[:3] for row in report.to_text().splitlines()[7:16]] == canonical


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

    def test_unwritable_output_fails_before_any_run(self, capsys, tmp_path, monkeypatch):
        def no_experiment(*args, **kwargs):
            pytest.fail("gap ran an experiment before opening --output")

        monkeypatch.setattr(cli, "run_experiment", no_experiment)
        monkeypatch.setattr(cli, "quantum_experiment", no_experiment)
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run_cli(capsys, "gap", "--output", str(target))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1
        diag = json.loads(err)
        assert diag["error"] == "config"
        assert str(target) in diag["detail"]

    def test_cheat_classical_side_violates(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--strategy", "cheat", "--n", "10")
        assert code == EXIT_VIOLATION
        assert json.loads(err)["error"] == "censor-violation"


class TestOracleBuildsNoRegistry:
    """The quantum oracle has no wings, so ``run`` and ``gap`` with it neither
    build nor validate the strategy registry."""

    # sha256 of the stdout of run and gap --strategy quantum-oracle --n 2000 --seed 2024
    RUN_SHA256 = "3d6de237f8cb8087f8125f826846988e2d18cbbcd382a134570f4b5a8c0a34f2"
    GAP_SHA256 = "9e399c6698e91727067da0e572a104718b8a3f4215a4096afbf6dc82fafdea2b"

    @pytest.fixture(autouse=True)
    def no_registry(self, monkeypatch):
        _refuse_every_build(monkeypatch, "the quantum oracle built a strategy")
        monkeypatch.delenv("BELLGAME_OUTPUT", raising=False)

    def test_run(self, capsys):
        code, out, err = run_cli(capsys, "run", "--strategy", "quantum-oracle", "--n", "2000", "--seed", "2024")
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.RUN_SHA256

    def test_gap(self, capsys):
        code, out, err = run_cli(capsys, "gap", "--strategy", "quantum-oracle", "--n", "2000", "--seed", "2024")
        assert code == EXIT_OK
        assert json.loads(err)["error"] == "power-warning"
        assert hashlib.sha256(out.encode()).hexdigest() == self.GAP_SHA256


def _patch_fixed_rrg(monkeypatch, **slots):
    """Make the CLI build ``fixed-RRG`` with ``slots`` changed, by name and
    in the registry alike: both build from the strategy factory table."""
    make = _FACTORIES["fixed-RRG"]
    monkeypatch.setitem(_FACTORIES, "fixed-RRG", lambda payload_bytes: make(payload_bytes).replace(**slots))


def _leak_settings(monkeypatch):
    """A ``fixed-RRG`` whose frames spell the emitting wing's setting."""
    _patch_fixed_rrg(monkeypatch, emit=lambda state, round, inbox, rand, setting: bytes([setting]) * 32)


def _flash_a_string(monkeypatch):
    """A ``fixed-RRG`` that flashes the string ``"R"``, not a Color."""
    _patch_fixed_rrg(monkeypatch, flash=lambda state, full_inbox, setting: "R")


BAD_FLASH = "wing L, setting 1: flash must return Color.R or Color.G, got 'R'"


def _add_run_counter(monkeypatch):
    """A ``run-counter`` last in the table, whose frames spell how many wings
    it has set up in this process: its three emits agree, so vetting passes
    it, but no rerun repeats a transcript."""
    inits = [0]

    def init(wing_id, shared_tape, private_tape, run_index):
        inits[0] += 1
        return inits[0]

    def factory(payload_bytes):
        return _FACTORIES["fixed-RRG"](payload_bytes).replace(
            strategy_id="run-counter",
            init=init,
            emit=lambda state, round, inbox, rand, setting: state.to_bytes(32, "big"),
            flash=lambda state, full_inbox, setting: Color.R,
        )

    monkeypatch.setitem(_FACTORIES, "run-counter", factory)


def _refuse_every_build(monkeypatch, message):
    """Make building any strategy, alone or in the registry, fail the test."""

    def refuse(*args):
        raise AssertionError(message)

    for sid in _FACTORIES:
        monkeypatch.setitem(_FACTORIES, sid, refuse)


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

    def test_quantum_oracle_builds_no_registry(self, capsys, monkeypatch):
        _refuse_every_build(monkeypatch, "the oracle needs no strategy")
        code, out, err = run_cli(capsys, "verify-censor", "--strategy", "quantum-oracle", "--n", "3")
        assert (code, out, err) == (EXIT_OK, "quantum-oracle: color source, no wings; skipped\n", "")

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

    def test_a_named_strategy_is_checked_on_its_sweep_seeds(self, capsys, monkeypatch):
        seen = {}

        def record(config, strategy, settings, seed, run_index=0):
            seen.setdefault(strategy.strategy_id, []).append(seed)
            return True

        monkeypatch.setattr(cli, "verify_transcript_invariance", record)
        assert run_cli(capsys, "verify-censor", "--strategy", "near-leak", "--n", "3", "--seed", "7")[0] == EXIT_OK
        by_name = seen.pop("near-leak")
        assert seen == {}
        assert run_cli(capsys, "verify-censor", "--n", "3", "--seed", "7")[0] == EXIT_OK
        assert len(by_name) == 3
        assert seen["near-leak"] == by_name

    @staticmethod
    def _sweep_names_fixed_rrg_and_goes_on(capsys, monkeypatch, patch, line):
        patch(monkeypatch)
        monkeypatch.delenv("BELLGAME_OUTPUT", raising=False)
        code, out, err = run_cli(capsys, "verify-censor", "--n", "2")
        assert code == EXIT_VIOLATION
        assert err == '{"error":"noninterference-failure","strategies":1}\n'
        lines = out.splitlines()
        assert lines[0] == "negotiation: ok (2 runs, transcripts setting-invariant)"
        assert lines[1] == f"fixed-RRG: {line}"
        assert lines[-1] == "cheat: declared censor-off; skipped"
        checked = lines[2:-1]
        assert len(checked) == 11
        assert all(line.endswith(": ok (2 runs, transcripts setting-invariant)") for line in checked)

    def test_all_names_a_leaking_strategy_and_goes_on(self, capsys, monkeypatch):
        line = "censor violation: wing L, round 1: payload differs between settings 1 and 2"
        self._sweep_names_fixed_rrg_and_goes_on(capsys, monkeypatch, _leak_settings, line)

    def test_all_names_a_strategy_with_a_bad_flash_and_goes_on(self, capsys, monkeypatch):
        line = f"protocol error: {BAD_FLASH}"
        self._sweep_names_fixed_rrg_and_goes_on(capsys, monkeypatch, _flash_a_string, line)

    @pytest.mark.parametrize("wanted", ["run-counter", "all"])
    def test_a_strategy_that_counts_its_runs_fails(self, capsys, monkeypatch, wanted):
        _add_run_counter(monkeypatch)
        monkeypatch.delenv("BELLGAME_OUTPUT", raising=False)
        code, out, err = run_cli(capsys, "verify-censor", "--strategy", wanted, "--n", "3")
        assert code == EXIT_VIOLATION
        assert err == '{"error":"noninterference-failure","strategies":1}\n'
        lines = out.splitlines()
        assert lines[-1] == "run-counter: FAILED 3/3 counterfactual replays"
        if wanted == "all":
            assert lines[-2] == "cheat: declared censor-off; skipped"
            assert len(lines) == 15
            assert all(line.endswith(": ok (3 runs, transcripts setting-invariant)") for line in lines[:-2])
        else:
            assert lines == ["run-counter: FAILED 3/3 counterfactual replays"]


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

    def test_empty_output_env_means_stdout(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLGAME_OUTPUT", "")
        code, out, err = run_cli(capsys, "prove-bound")
        assert code == EXIT_OK
        assert "minimum: 5/9" in out
        assert err == ""


@pytest.mark.parametrize(
    "command", ["run", "prove-bound", "gap", "verify-censor", "list-strategies"]
)
def test_every_command_documents_output(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == EXIT_OK
    line = next(l for l in out.splitlines() if l.strip().startswith("--output"))
    assert line.endswith("output path, '-' for stdout (env BELLGAME_OUTPUT)")


def _broken_floor():
    raise RuntimeError("floor enumeration produced 1/2, not 5/9")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--strategy", "nope"],
        ["gap", "--strategy", "nope"],
        ["verify-censor", "--strategy", "nope"],
        ["prove-bound"],
    ],
    ids=["run", "gap", "verify-censor", "prove-bound"],
)
def test_every_command_opens_its_output_before_its_own_checks(capsys, tmp_path, monkeypatch, argv):
    # an unknown strategy (exit 3) or a broken floor (exit 1) is found only
    # after the output path fails to open (exit 2)
    monkeypatch.setattr(cli, "prove_bound", _broken_floor)
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert (code, out) == (EXIT_CONFIG, "")
    diag = json.loads(err)
    assert diag["error"] == "config"
    assert str(target) in diag["detail"]


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

    @pytest.mark.parametrize(
        "argv, env_seed, seed",
        [
            (["run", "--strategy", "fixed-RRG", "--n", "2", "--seed", "-1"], None, "-1"),
            (["verify-censor", "--n", "2", "--seed", "18446744073709551616"], None, "18446744073709551616"),
            (["gap", "--n", "2"], "-1", "-1"),
        ],
        ids=["run-flag", "verify-censor-flag", "gap-env"],
    )
    def test_master_seed_outside_64_bits(self, capsys, monkeypatch, argv, env_seed, seed):
        # derive_run_seed reduces mod 2**64, so such a seed would alias another;
        # a seed from the environment names its variable
        monkeypatch.delenv("BELLGAME_OUTPUT", raising=False)
        if env_seed is None:
            monkeypatch.delenv("BELLGAME_SEED", raising=False)
        else:
            monkeypatch.setenv("BELLGAME_SEED", env_seed)
        code, out, err = run_cli(capsys, *argv)
        source = "" if env_seed is None else "BELLGAME_SEED: "
        assert code == EXIT_CONFIG
        assert out == ""
        assert json.loads(err) == {"error": "config", "detail": f"{source}master seed must be in [0, 2**64), got {seed}"}

    @pytest.mark.parametrize(
        "argv, env_seed, detail",
        [
            (["run", "--strategy", "fixed-RRG", "--n", "2"], "abc", "BELLGAME_SEED: invalid int value: 'abc'"),
            (["gap", "--n", "2"], "1.5", "BELLGAME_SEED: invalid int value: '1.5'"),
            (["run", "--strategy", "fixed-RRG", "--n", "2", "--seed", "abc"], "7", "argument --seed: invalid int value: 'abc'"),
        ],
        ids=["run-env", "gap-env", "run-flag"],
    )
    def test_seed_that_is_not_an_integer_names_its_source(self, capsys, monkeypatch, argv, env_seed, detail):
        monkeypatch.delenv("BELLGAME_OUTPUT", raising=False)
        monkeypatch.setenv("BELLGAME_SEED", env_seed)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert json.loads(err) == {"error": "config", "detail": detail}


def _child_env() -> dict:
    # the child interpreter does not see pytest's pythonpath setting
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bellgame", "list-strategies"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "negotiation" in proc.stdout


def _peak_mb(argv) -> float:
    """The peak memory of ``bellgame *argv``, run as the only child of a
    fresh interpreter, so RUSAGE_CHILDREN is the command's peak."""
    wrapper = (
        "import resource, subprocess, sys\n"
        f"subprocess.run([sys.executable, '-m', 'bellgame', *{argv!r}], check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    env = _child_env()
    env.pop("BELLGAME_OUTPUT", None)
    proc = subprocess.run([sys.executable, "-c", wrapper], capture_output=True, text=True, env=env, check=True)
    # ru_maxrss counts bytes on macOS and KiB elsewhere
    return int(proc.stdout) / (2**20 if sys.platform == "darwin" else 2**10)


@pytest.mark.skipif(sys.platform == "win32", reason="the resource module is POSIX-only")
@pytest.mark.parametrize("command", ["run", "verify-censor"])
def test_a_named_strategy_is_built_alone(command):
    # building all 14 strategies at this frame size took about 200 MB, the
    # one named about 15 MB
    assert _peak_mb([command, "--strategy", "fixed-RRG", "--n", "1", "--payload-bytes", "10000000"]) < 60


@pytest.mark.skipif(sys.platform == "win32", reason="the resource module is POSIX-only")
def test_the_sweep_builds_one_strategy_at_a_time():
    # at this frame size the sweep peaked at about 90 MB with all 14
    # strategies built before the first check, and at about 52 MB building
    # each in its turn
    assert _peak_mb(["verify-censor", "--strategy", "all", "--n", "1", "--payload-bytes", "2000000"]) < 70


class TestOneErrorPath:
    """``main`` turns every failure into its exit code and one stderr line:
    a failed write is a configuration error, never a traceback."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["jsonl", "text"])
    def test_full_disk(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "run", "--strategy", "fixed-RRG", "--n", "3", "--format", fmt, "--output", "/dev/full"
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == '{"detail":"[Errno 28] No space left on device","error":"config"}\n'

    def test_censor_violation_outside_an_experiment(self, capsys, monkeypatch):
        # verify-censor replays bare runs, so its abort counts no runs
        _leak_settings(monkeypatch)
        monkeypatch.delenv("BELLGAME_OUTPUT", raising=False)
        code, out, err = run_cli(capsys, "verify-censor", "--strategy", "fixed-RRG", "--n", "3")
        assert code == EXIT_VIOLATION
        assert out == ""
        assert err.count("\n") == 1
        diag = json.loads(err)
        assert diag["error"] == "censor-violation"
        assert diag["strategy"] == "fixed-RRG"
        assert diag["completed_runs"] is None
        assert diag["violation"] == {
            "wing": "L", "round": 1, "setting_a": 1, "setting_b": 2,
            "payload_a": "01" * 32, "payload_b": "02" * 32,
        }

    @pytest.mark.parametrize(
        "argv, completed_runs",
        [
            (["run", "--strategy", "fixed-RRG"], 0),
            (["run", "--strategy", "fixed-RRG", "--format", "jsonl"], 0),
            (["run", "--strategy", "fixed-RRG", "--format", "csv"], 0),
            (["gap", "--strategy", "fixed-RRG"], 0),
            # verify-censor replays bare runs, so its abort counts no runs
            (["verify-censor", "--strategy", "fixed-RRG"], None),
        ],
        ids=["run-text", "run-jsonl", "run-csv", "gap", "verify-censor"],
    )
    def test_protocol_error(self, capsys, monkeypatch, argv, completed_runs):
        _flash_a_string(monkeypatch)
        monkeypatch.delenv("BELLGAME_OUTPUT", raising=False)
        code, out, err = run_cli(capsys, *argv, "--n", "3")
        assert (code, out) == (EXIT_VIOLATION, "")
        assert err == cli.canonical_json({
            "completed_runs": completed_runs, "detail": BAD_FLASH, "error": "protocol-error", "strategy": "fixed-RRG",
        }) + "\n"

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--strategy", "negotiation", "--format", "jsonl", "--n", "20000"],
            ["run", "--strategy", "negotiation", "--n", "10"],
            ["gap", "--n", "50"],
            ["prove-bound"],
            ["list-strategies"],
            ["verify-censor", "--n", "2"],
            ["run", "--help"],
            ["--version"],
        ],
        ids=["run-jsonl", "run-text", "gap", "prove-bound", "list-strategies", "verify-censor", "run-help", "version"],
    )
    def test_closed_pipe(self, argv, buffered):
        # the real entry point on a real descriptor: a pipe whose reader is gone
        env = _child_env()
        env.pop("BELLGAME_OUTPUT", None)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bellgame", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == '{"detail":"[Errno 32] Broken pipe","error":"config"}\n'

    REFUSED_STDERR_CASES = pytest.mark.parametrize(
        "argv, code",
        [
            (["run", "--strategy", "nope"], EXIT_UNKNOWN_STRATEGY),
            (["run", "--strategy", "negotiation", "--rounds", "0"], EXIT_CONFIG),
            (["run", "--n", "0"], EXIT_CONFIG),
            (["run", "--strategy", "cheat", "--n", "3"], EXIT_VIOLATION),
            (["gap", "--n", "50"], EXIT_OK),  # with a power-warning line
            (["prove-bound"], EXIT_OK),
        ],
        ids=["unknown-strategy", "config", "usage", "censor-violation", "power-warning", "prove-bound"],
    )

    @REFUSED_STDERR_CASES
    @pytest.mark.parametrize("refusal", ["closed-pipe", "full-disk"])
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_refused_stderr_keeps_the_exit_code(self, argv, code, refusal, buffered):
        # the diagnostic line is lost, but the code is still the command's:
        # not the 1 of a traceback, nor the 120 of a buffered stderr whose
        # refused bytes fail again at interpreter exit
        if refusal == "full-disk" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        env = _child_env()
        env.pop("BELLGAME_OUTPUT", None)
        env.pop("BELLGAME_SEED", None)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        if refusal == "closed-pipe":
            read_end, stderr = os.pipe()
            os.close(read_end)
        else:
            stderr = os.open("/dev/full", os.O_WRONLY)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bellgame", *argv], stdout=subprocess.DEVNULL, stderr=stderr, env=env
            )
        finally:
            os.close(stderr)
        assert proc.returncode == code

    @REFUSED_STDERR_CASES
    def test_main_returns_when_stderr_refuses(self, capsys, monkeypatch, argv, code):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.delenv("BELLGAME_OUTPUT", raising=False)
        monkeypatch.delenv("BELLGAME_SEED", raising=False)
        monkeypatch.setattr(sys, "stderr", ClosedPipe())
        assert main(argv) == code


class TestExistingOutputFile:
    """The file named by ``--output`` keeps its bytes unless the command
    writes to it, and then holds exactly what it wrote; a failed command
    that wrote nothing leaves no file where there was none."""

    OLD = b"old bytes" * 100

    FAILED_COMMANDS = pytest.mark.parametrize(
        "argv, code",
        [
            (["run", "--strategy", "nope"], EXIT_UNKNOWN_STRATEGY),
            (["gap", "--strategy", "nope"], EXIT_UNKNOWN_STRATEGY),
            (["run", "--strategy", "cheat"], EXIT_VIOLATION),
            (["run", "--strategy", "cheat", "--format", "jsonl"], EXIT_VIOLATION),
            (["gap", "--strategy", "cheat"], EXIT_VIOLATION),
            (["gap", "--strategy", "negotiation", "--tape-bytes", "1"], EXIT_CONFIG),
            (["run", "--strategy", "negotiation", "--tape-bytes", "1", "--format", "jsonl"], EXIT_CONFIG),
            (["verify-censor", "--strategy", "fixed-RRG"], EXIT_VIOLATION),
        ],
        ids=["run-unknown", "gap-unknown", "run-cheat", "run-jsonl-cheat", "gap-cheat", "gap-config", "run-jsonl-config", "verify-leak"],
    )

    @FAILED_COMMANDS
    def test_a_failed_command_leaves_the_file_as_it_was(self, capsys, tmp_path, monkeypatch, argv, code):
        _leak_settings(monkeypatch)
        target = tmp_path / "out"
        target.write_bytes(self.OLD)
        assert run_cli(capsys, *argv, "--n", "10", "--output", str(target))[0] == code
        assert target.read_bytes() == self.OLD

    @FAILED_COMMANDS
    def test_a_failed_command_leaves_no_file_where_there_was_none(self, capsys, tmp_path, monkeypatch, argv, code):
        _leak_settings(monkeypatch)
        target = tmp_path / "out"
        assert run_cli(capsys, *argv, "--n", "10", "--output", str(target))[0] == code
        assert not target.exists()

    @pytest.mark.parametrize("argv, code", [(["list-strategies"], EXIT_OK)], ids=["list-strategies"])
    def test_a_short_output_replaces_a_longer_file(self, capsys, tmp_path, monkeypatch, argv, code):
        monkeypatch.delenv("BELLGAME_OUTPUT", raising=False)
        target = tmp_path / "out"
        target.write_bytes(self.OLD)
        assert run_cli(capsys, *argv, "--output", str(target))[0] == code
        written = target.read_text()
        assert run_cli(capsys, *argv)[:2] == (code, written)
        assert 0 < len(written) < len(self.OLD)


class TestParserBuiltOnce:
    """``main`` builds its parser on the first call and reuses it: nothing
    one call parses or reads from the environment reaches the next."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_defaults_do_not_leak_between_parses(self):
        parser = cli.build_parser()
        assert parser.parse_args(["verify-censor"]).n == 100
        assert parser.parse_args(["run", "--strategy", "fixed-RRG", "--n", "7"]).n == 7
        assert parser.parse_args(["run", "--strategy", "fixed-RRG"]).n == cli.DEFAULT_N_RUNS == 100_000
        assert parser.parse_args(["verify-censor"]).n == 100

    def test_seed_env_read_at_each_call(self, capsys, monkeypatch):
        monkeypatch.delenv("BELLGAME_OUTPUT", raising=False)
        for seed in ("5", "9"):
            monkeypatch.setenv("BELLGAME_SEED", seed)
            code, out, _ = run_cli(capsys, "run", "--strategy", "fixed-RRG", "--n", "2", "--format", "jsonl")
            assert code == EXIT_OK
            assert json.loads(out.splitlines()[0])["master_seed"] == seed

    def test_help_wraps_at_each_calls_width(self, capsys, monkeypatch):
        for columns, fits_80 in (("80", True), ("200", False), ("80", True)):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run_cli(capsys, "run", "--help")
            assert code == EXIT_OK
            assert (max(map(len, out.splitlines())) <= 80) is fits_80

    def test_built_on_the_first_call_only(self):
        # a fresh interpreter counts the parsers argparse makes: none on
        # import, six (the top level and five subcommands) over two calls
        code = (
            "import argparse, contextlib, io\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    made.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from bellgame import cli\n"
            "print(len(made))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['list-strategies']) == 0\n"
            "    assert cli.main(['prove-bound']) == 0\n"
            "print(len(made))\n"
        )
        env = _child_env()
        env.pop("BELLGAME_OUTPUT", None)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.split() == ["0", "6"]

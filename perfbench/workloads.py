"""The four benchmark workloads.

Each workload is a fixed list of entries; one op runs one entry once, at a
fixed size, through the package's public API, and returns its phase times
plus a fingerprint of everything it produced. A cycle runs every entry once
with the cycle's master seed, so each cycle does the same mix of work on
fresh inputs. The caller is a single closed loop: the next op starts when
the previous one has returned.

All calls go through the ``bellgame`` module object (``bg.run_experiment``,
not a name imported here), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

FLOOR = Fraction(5, 9)
FLOOR_RUNS = 100_000


def master_seed(seed: int, cycle: int) -> int:
    """Master seed of one cycle; distinct for every (seed, cycle < 100000)."""
    return seed * 100_000 + cycle


@dataclass
class OpResult:
    """What one op did and produced."""

    runs: int = 0  # simulated runs completed by the main phase
    main_s: float = 0.0  # seconds in the main phase (the experiment call)
    checked: int = 0  # records audited or replay trials, when the op has a second phase
    check_s: float = 0.0  # seconds in that second phase
    fingerprint: dict = field(default_factory=dict)  # exact outputs, compared with pins
    problems: list = field(default_factory=list)  # violated invariants


def _counts(stats) -> dict:
    return stats.to_json_dict()["counts"]


def _check_tally(bg, kind: str, stats, n: int, problems: list) -> None:
    """The stated invariants of a tally of n runs by a strategy of this kind.

    kind: 'agreed' (one instruction set per run: feature (i) and the 5/9
    floor), 'half' (independent coins or the target law: within the
    Hoeffding radius of 1/2), 'quantum' (the target law: also feature (i)).
    """
    if stats.n_runs != n:
        problems.append(f"tallied {stats.n_runs} runs, expected {n}")
        return
    radius = bg.hoeffding_radius(n)
    same = stats.overall_same_float
    diff_on_equal = stats.equal_setting_counts()[1]
    if kind in ("agreed", "quantum") and diff_on_equal:
        problems.append(f"feature (i) fails: {diff_on_equal} equal-setting runs disagree")
    if kind == "agreed" and same < float(FLOOR) - radius:
        problems.append(f"same fraction {same:.5f} below 5/9 - {radius:.5f}")
    if kind in ("half", "quantum") and abs(same - 0.5) > radius:
        problems.append(f"same fraction {same:.5f} not within {radius:.5f} of 1/2")


def _kind(strategy, censor_enabled: bool) -> str:
    if strategy.agreement_based:
        return "agreed"
    if strategy.requires_censor_off and not censor_enabled:
        return "quantum"  # cheat samples the target law once it can see both settings
    return "half"


class ClassicalSweep:
    """run_experiment for every censor-compliant strategy (censor on), cheat
    with the censor off, and cheat with the censor on, which must abort."""

    name = "classical-sweep"
    rounds = 4

    def __init__(self, bg, n: int):
        self.bg = bg
        self.n = n
        on, off = bg.RunConfig(), bg.RunConfig(censor_enabled=False)
        registry = bg.build_registry()
        cheat = registry["cheat"]
        self.plan = [(sid, s, on) for sid, s in registry.items() if not s.requires_censor_off]
        self.plan += [("cheat/censor-off", cheat, off), ("cheat/censor-on", cheat, on)]
        self.entries = [label for label, _, _ in self.plan]

    def op(self, index: int, master: int) -> OpResult:
        bg = self.bg
        _, strategy, config = self.plan[index]
        res = OpResult()
        t0 = time.perf_counter()
        try:
            stats = bg.run_experiment(config, strategy, self.n, master)
        except bg.ExperimentAborted as aborted:
            res.main_s = time.perf_counter() - t0
            v = aborted.violation
            res.fingerprint = {
                "aborted": {"completed_runs": aborted.completed_runs, "round": v.round, "wing": v.wing.value}
            }
            if not strategy.requires_censor_off or not config.censor_enabled:
                res.problems.append(f"unexpected censor abort: {aborted}")
            elif (aborted.completed_runs, v.round, v.wing) != (0, 1, bg.Wing.LEFT):
                res.problems.append(f"cheat must abort at run 0, round 1, wing L: {aborted}")
            return res
        res.main_s = time.perf_counter() - t0
        res.runs = self.n
        res.fingerprint = {"counts": _counts(stats)}
        if strategy.requires_censor_off and config.censor_enabled:
            res.problems.append("cheat with the censor on did not abort")
        _check_tally(bg, _kind(strategy, config.censor_enabled), stats, self.n, res.problems)
        return res


class RecordAudit:
    """The CLI writes a JSONL stream; the benchmark reads it back, parses
    every record, re-tallies against the stats line and replays every record
    from its own seed."""

    name = "record-audit"
    rounds = 4
    entries = ["negotiation", "near-leak", "quantum-oracle"]

    def __init__(self, bg, path, n: int):
        self.bg = bg
        self.path = path
        self.n = n
        self.config = bg.RunConfig()
        self.registry = bg.build_registry()

    def op(self, index: int, master: int) -> OpResult:
        bg = self.bg
        sid = self.entries[index]
        argv = [
            "run", "--strategy", sid, "--n", str(self.n), "--seed", str(master),
            "--format", "jsonl", "--output", str(self.path),
        ]
        res = OpResult()
        t0 = time.perf_counter()
        code = bg.cli.main(argv)
        t1 = time.perf_counter()
        res.main_s = t1 - t0
        if code != 0:
            res.problems.append(f"bellgame {' '.join(argv)} exited {code}")
            return res
        res.runs = self.n
        counts, digest = self._audit(sid, master, res.problems)
        res.check_s = time.perf_counter() - t1
        res.checked = self.n
        res.fingerprint = {"counts": counts, "sha256": digest}
        return res

    def _audit(self, sid: str, master: int, problems: list):
        bg = self.bg
        config = self.config
        quantum = sid == bg.QUANTUM_ORACLE_ID
        strategy = None if quantum else self.registry[sid]
        with open(self.path, "rb") as fh:
            data = fh.read()
        lines = data.decode("ascii").splitlines()
        header, stats_line = json.loads(lines[0]), json.loads(lines[-1])
        want = {
            "type": "header", "config": config.to_json_dict(), "strategy": sid,
            "master_seed": str(master), "seed_derivation": "splitmix64", "version": bg.__version__,
        }
        if header != want:
            problems.append(f"header {header} != {want}")
        tally = bg.ExperimentStats.empty()
        for index, line in enumerate(lines[1:-1]):
            rec = bg.RunRecord.from_json_line(line)
            tally.record(rec.settings, rec.colors[0] is rec.colors[1])
            seed = bg.derive_run_seed(master, index)
            if rec.run_index != index or rec.seed != seed or rec.strategy_id != sid:
                problems.append(f"record {index}: index, seed or strategy mismatch")
            elif bg.draw_settings(bg.ByteStream(seed, b"settings")) != rec.settings:
                problems.append(f"record {index}: settings do not match the seed")
            elif quantum:
                if bg.sample_quantum_run(rec.settings, bg.ByteStream(seed, b"oracle")) != rec.colors:
                    problems.append(f"record {index}: oracle replay gives other colors")
                elif len(rec.transcript):
                    problems.append(f"record {index}: oracle record has a transcript")
            else:
                replay = bg.execute_run(config, strategy, rec.settings, seed, run_index=index)
                if replay.transcript != rec.transcript or replay.colors != rec.colors:
                    problems.append(f"record {index}: replay differs from the record")
        n_records = len(lines) - 2
        counts = _counts(tally)
        if stats_line.get("type") != "stats":
            problems.append("stream does not end with a stats line")
        elif stats_line["counts"] != counts or stats_line["n_runs"] != n_records:
            problems.append("re-tally differs from the stats line")
        elif quantum and not stats_line["feature_ii_holds"]:
            problems.append("stats line: feature (ii) fails for the oracle")
        elif strategy is not None and strategy.agreement_based and not stats_line["feature_i_holds"]:
            problems.append("stats line: feature (i) fails for an agreement-based strategy")
        if n_records != self.n:
            problems.append(f"stream holds {n_records} records, expected {self.n}")
        else:
            _check_tally(bg, "quantum" if quantum else _kind(strategy, True), tally, self.n, problems)
        return counts, hashlib.sha256(data).hexdigest()


class QuantumOracle:
    """quantum_experiment, check_feature_ii and bell_gap_report: no wings,
    no censor, no strategies."""

    name = "quantum-oracle"
    rounds = 4
    entries = ["quantum-oracle"]

    def __init__(self, bg, n: int):
        self.bg = bg
        self.n = n
        # The exact floor as a tally of 100,000 runs (the acceptance size),
        # built without the referee: an instruction set with same-color
        # fraction 5/9, equally many runs on every setting pair.
        k = math.ceil(FLOOR_RUNS / 9)
        iset = bg.INSTRUCTION_SETS[0]
        self.floor_stats = bg.ExperimentStats(
            {p: ([k, 0] if iset.color_for(p.left) is iset.color_for(p.right) else [0, k]) for p in bg.ALL_SETTING_PAIRS}
        )

    def op(self, index: int, master: int) -> OpResult:
        bg = self.bg
        res = OpResult()
        t0 = time.perf_counter()
        stats = bg.quantum_experiment(self.n, master)
        res.main_s = time.perf_counter() - t0
        feature_ii = bg.check_feature_ii(stats)
        report = bg.bell_gap_report(self.floor_stats, stats)
        res.runs = self.n
        res.fingerprint = {
            "counts": _counts(stats),
            "gap_sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
        }
        _check_tally(bg, "quantum", stats, self.n, res.problems)
        if not feature_ii.holds:
            res.problems.append(f"feature (ii) fails: {feature_ii}")
        if not (report.disjoint and report.sufficient_power):
            res.problems.append(f"gap not exhibited: {report.to_json()}")
        return res


class LongExchange:
    """32 rounds of 256-byte frames: run_experiment, then whole-run
    counterfactual replays, for every censor-compliant strategy."""

    name = "long-exchange"
    rounds = 32

    def __init__(self, bg, n: int, trials: int):
        self.bg = bg
        self.n = n
        self.trials = trials
        self.config = bg.RunConfig(rounds=self.rounds, payload_bytes=256, shared_tape_bytes=256)
        registry = bg.build_registry(256)
        self.plan = [(sid, s) for sid, s in registry.items() if not s.requires_censor_off]
        self.entries = [sid for sid, _ in self.plan]

    def op(self, index: int, master: int) -> OpResult:
        bg = self.bg
        _, strategy = self.plan[index]
        res = OpResult()
        t0 = time.perf_counter()
        stats = bg.run_experiment(self.config, strategy, self.n, master)
        t1 = time.perf_counter()
        lane = bg.mix64(master ^ (index + 1))
        invariant = 0
        for trial in range(self.trials):
            seed = bg.derive_run_seed(lane, trial)
            settings = bg.draw_settings(bg.ByteStream(seed, b"settings"))
            invariant += bg.verify_transcript_invariance(self.config, strategy, settings, seed, run_index=trial)
        res.check_s = time.perf_counter() - t1
        res.main_s = t1 - t0
        res.runs = self.n
        res.checked = self.trials
        res.fingerprint = {"counts": _counts(stats), "invariant_trials": invariant}
        if invariant != self.trials:
            res.problems.append(f"{self.trials - invariant}/{self.trials} counterfactual replays differ")
        _check_tally(bg, _kind(strategy, True), stats, self.n, res.problems)
        return res


WORKLOADS = {w.name: w for w in (ClassicalSweep, RecordAudit, QuantumOracle, LongExchange)}

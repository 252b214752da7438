"""Full-scale acceptance checks.

Each criterion runs at its stated size and tolerance and prints one
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to watch).
Everything is seeded, so these are deterministic.
"""

import json
import time
from fractions import Fraction

import pytest

from bellgame.analysis import (
    bell_gap_report,
    hoeffding_radius,
    induced_instruction_set,
    prove_bound,
    same_color_fraction,
)
from bellgame.cli import EXIT_OK, main
from bellgame.core import ALL_SETTING_PAIRS, InstructionSet
from bellgame.protocol import (
    ExperimentAborted,
    RunConfig,
    draw_settings,
    execute_run,
    run_experiment,
)
from bellgame.quantum import quantum_experiment
from bellgame.randomness import ByteStream, derive_run_seed, mix64
from bellgame.strategies import build_registry, cheat_strategy, negotiation_strategy

ACCEPT_SEED = 2024
N_FULL = 100_000
FLOOR = Fraction(5, 9)
# Hoeffding radius at failure probability 1e-6 and n = 100,000
RADIUS_100K = 0.0085
CFG = RunConfig()

# Exact (same, different) tallies of criterion 2, per setting pair in
# ALL_SETTING_PAIRS order, at n = 100,000 and seed 2024 (default config,
# censor on). A speed-up of the referee must leave every count unchanged.
CRITERION_2_COUNTS = {
    "negotiation": ((11136, 0), (5592, 5441), (5479, 5531), (5504, 5430), (11212, 0), (5527, 5768), (5650, 5564), (5620, 5469), (11077, 0)),
    "fixed-RRG": ((11136, 0), (11033, 0), (0, 11010), (10934, 0), (11212, 0), (0, 11295), (0, 11214), (0, 11089), (11077, 0)),
    "fixed-RGR": ((11136, 0), (0, 11033), (11010, 0), (0, 10934), (11212, 0), (0, 11295), (11214, 0), (0, 11089), (11077, 0)),
    "fixed-GRR": ((11136, 0), (0, 11033), (0, 11010), (0, 10934), (11212, 0), (11295, 0), (0, 11214), (11089, 0), (11077, 0)),
    "fixed-GGR": ((11136, 0), (11033, 0), (0, 11010), (10934, 0), (11212, 0), (0, 11295), (0, 11214), (0, 11089), (11077, 0)),
    "fixed-GRG": ((11136, 0), (0, 11033), (11010, 0), (0, 10934), (11212, 0), (0, 11295), (11214, 0), (0, 11089), (11077, 0)),
    "fixed-RGG": ((11136, 0), (0, 11033), (0, 11010), (0, 10934), (11212, 0), (11295, 0), (0, 11214), (11089, 0), (11077, 0)),
    "fixed-RRR": ((11136, 0), (11033, 0), (11010, 0), (10934, 0), (11212, 0), (11295, 0), (11214, 0), (11089, 0), (11077, 0)),
    "fixed-GGG": ((11136, 0), (11033, 0), (11010, 0), (10934, 0), (11212, 0), (11295, 0), (11214, 0), (11089, 0), (11077, 0)),
    "clock-keyed": ((11136, 0), (5537, 5496), (5457, 5553), (5528, 5406), (11212, 0), (5688, 5607), (5607, 5607), (5576, 5513), (11077, 0)),
    "tape-mixing": ((11136, 0), (5492, 5541), (5421, 5589), (5479, 5455), (11212, 0), (5635, 5660), (5673, 5541), (5582, 5507), (11077, 0)),
    "max-random": ((11136, 0), (5592, 5441), (5479, 5531), (5504, 5430), (11212, 0), (5527, 5768), (5650, 5564), (5620, 5469), (11077, 0)),
}


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def _quantum_shape_ok(stats) -> tuple[bool, str]:
    eq_same, eq_diff = stats.equal_setting_counts()
    overall = stats.overall_same_float
    per = stats.per_pair_same
    worst = max(
        abs(float(per[p]) - 0.25)
        for p in ALL_SETTING_PAIRS
        if p.left is not p.right
    )
    ok = eq_diff == 0 and abs(overall - 0.5) <= 0.01 and worst <= 0.01
    detail = f"equal-setting diffs={eq_diff}, overall={overall:.4f}, worst pair dev={worst:.4f}"
    return ok, detail


def test_criterion_1_exact_bound():
    elapsed = min(_timed_prove_bound() for _ in range(3))
    report = prove_bound()
    expected = {
        "RRG": FLOOR, "RGR": FLOOR, "GRR": FLOOR,
        "GGR": FLOOR, "GRG": FLOOR, "RGG": FLOOR,
        "RRR": Fraction(1), "GGG": Fraction(1),
    }
    values_ok = all(
        report.per_set_fractions[InstructionSet.from_label(label)] == frac
        for label, frac in expected.items()
    )
    ok = values_ok and report.minimum == FLOOR and elapsed < 1e-3
    _report("1 (exact bound)", ok, f"min={report.minimum}, {elapsed * 1e6:.0f}us")


def _timed_prove_bound() -> float:
    t0 = time.perf_counter()
    prove_bound()
    return time.perf_counter() - t0


def test_criterion_2_classical_floor():
    registry = build_registry()
    agreed = [s for s in registry.values() if s.agreement_based]
    assert {s.strategy_id for s in agreed} >= {"negotiation", "clock-keyed"}
    assert sum(s.strategy_id.startswith("fixed-") for s in agreed) == 8
    assert sorted(s.strategy_id for s in agreed) == sorted(CRITERION_2_COUNTS)
    floor = float(FLOOR) - RADIUS_100K
    all_ok = True
    for strategy in agreed:
        t0 = time.perf_counter()
        stats = run_experiment(CFG, strategy, N_FULL, ACCEPT_SEED)
        elapsed = time.perf_counter() - t0
        fraction = stats.overall_same_float
        counts = tuple(tuple(stats.counts[pair]) for pair in ALL_SETTING_PAIRS)
        pinned = counts == CRITERION_2_COUNTS[strategy.strategy_id]
        ok = fraction >= floor and elapsed < 10.0 and pinned
        all_ok &= ok
        print(
            f"  {strategy.strategy_id}: same={fraction:.5f} "
            f"(floor {floor:.5f}), {elapsed:.1f}s, "
            f"counts {'as pinned' if pinned else 'CHANGED'} -> {'ok' if ok else 'FAIL'}"
        )
    _report("2 (classical floor)", all_ok, f"{len(agreed)} strategies at n={N_FULL}")


def test_criterion_3_quantum_statistics():
    stats = quantum_experiment(N_FULL, ACCEPT_SEED)
    ok, detail = _quantum_shape_ok(stats)
    _report("3 (quantum statistics)", ok, detail)


def test_criterion_4_gap():
    classical = run_experiment(CFG, negotiation_strategy(), N_FULL, ACCEPT_SEED)
    quantum = quantum_experiment(N_FULL, ACCEPT_SEED)
    report = bell_gap_report(classical, quantum)
    classical_above_floor = float(report.classical_same) >= float(FLOOR) - report.classical_radius
    quantum_near_half = abs(float(report.quantum_same) - 0.5) <= report.quantum_radius
    ok = (
        report.disjoint
        and report.sufficient_power
        and classical_above_floor
        and quantum_near_half
    )
    _report(
        "4 (the gap)",
        ok,
        f"classical={float(report.classical_same):.4f}, "
        f"quantum={float(report.quantum_same):.4f}, radius={report.classical_radius:.4f}",
    )


def test_criterion_5_censor_necessity():
    cheat = cheat_strategy()
    stats = run_experiment(RunConfig(censor_enabled=False), cheat, N_FULL, ACCEPT_SEED)
    off_ok, detail = _quantum_shape_ok(stats)

    with pytest.raises(ExperimentAborted) as excinfo:
        run_experiment(CFG, cheat, N_FULL, ACCEPT_SEED)
    v = excinfo.value.violation
    on_ok = (
        v.round == 1
        and v.payload_a != v.payload_b
        and v.setting_a is not v.setting_b
    )
    _report(
        "5 (censor necessity)",
        off_ok and on_ok,
        f"censor off: {detail}; censor on: violation at round {v.round}",
    )


def test_criterion_6_noninterference_replay():
    from bellgame.censor import verify_transcript_invariance

    registry = build_registry()
    compliant = [s for s in registry.values() if not s.requires_censor_off]
    trials = 1000
    failures = 0
    for t in range(trials):
        strategy = compliant[t % len(compliant)]
        seed = derive_run_seed(mix64(ACCEPT_SEED) ^ t, 0)
        settings = draw_settings(ByteStream(seed, b"settings"))
        if not verify_transcript_invariance(CFG, strategy, settings, seed, run_index=t):
            failures += 1
    _report(
        "6 (noninterference soundness)",
        failures == 0,
        f"{trials} triples over {len(compliant)} strategies, {failures} failures",
    )


def test_criterion_7_induced_types():
    strategy = negotiation_strategy()
    trials = 1000
    same_observed = 0
    expected = Fraction(0)
    wings_agree = True
    for i in range(trials):
        seed = derive_run_seed(ACCEPT_SEED, i)
        settings = draw_settings(ByteStream(seed, b"settings"))
        record = execute_run(CFG, strategy, settings, seed, run_index=i)
        left, right = induced_instruction_set(strategy, record, CFG)
        wings_agree &= left == right
        same_observed += record.colors[0] is record.colors[1]
        expected += same_color_fraction(left)
    observed_fraction = same_observed / trials
    expected_fraction = float(expected / trials)
    tolerance = hoeffding_radius(trials)  # ~0.085 at n=1000
    close = abs(observed_fraction - expected_fraction) <= tolerance
    _report(
        "7 (induced types)",
        wings_agree and close,
        f"wings agree on all {trials}; observed={observed_fraction:.4f} "
        f"vs expected={expected_fraction:.4f} within {tolerance:.4f}",
    )


def test_criterion_8_determinism(tmp_path, capsys):
    matched = True
    for strategy_id in ("negotiation", "quantum-oracle"):
        outputs = []
        for tag in ("a", "b"):
            target = tmp_path / f"{strategy_id}-{tag}.jsonl"
            code = main([
                "run", "--strategy", strategy_id, "--n", "300",
                "--seed", str(ACCEPT_SEED), "--format", "jsonl",
                "--output", str(target),
            ])
            assert code == EXIT_OK
            outputs.append(target.read_bytes())
        matched &= outputs[0] == outputs[1]
        # sanity: the stream really is JSON lines with records in order
        lines = outputs[0].decode().splitlines()
        assert json.loads(lines[0])["type"] == "header"
        assert [json.loads(l)["run"] for l in lines[1:-1]] == list(range(300))
    capsys.readouterr()
    _report("8 (determinism)", matched, "byte-identical JSON-lines re-runs")

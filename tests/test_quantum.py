"""The oracle's exact joint law and its sampled statistics."""

import io
import json
from fractions import Fraction

import pytest

from bellgame.core import ALL_SETTING_PAIRS, SETTINGS, Setting, SettingPair
from bellgame.quantum import (
    QUANTUM_ORACLE_ID,
    quantum_experiment,
    sample_quantum_run,
    singlet_joint,
)
from bellgame.randomness import ByteStream, derive_run_seed


class TestJointLaw:
    def test_diagonal_is_one(self):
        joint = singlet_joint()
        for s in SETTINGS:
            assert joint[SettingPair(s, s)] == 1

    def test_off_diagonal_is_quarter(self):
        joint = singlet_joint()
        assert joint[SettingPair(Setting.ONE, Setting.THREE)] == Fraction(1, 4)
        assert joint[SettingPair(Setting.TWO, Setting.ONE)] == Fraction(1, 4)

    def test_quarter_forced_by_consistency(self):
        # the off-diagonal value is pinned by: equal settings (prob 1/3)
        # always agree, overall agreement is exactly 1/2
        p = singlet_joint()[SettingPair(Setting.ONE, Setting.TWO)]
        assert Fraction(1, 3) * 1 + Fraction(2, 3) * p == Fraction(1, 2)

    def test_uniform_mixture_is_half(self):
        joint = singlet_joint()
        total = sum(joint[pair] for pair in ALL_SETTING_PAIRS)
        assert total / 9 == Fraction(1, 2)

    def test_symmetric(self):
        joint = singlet_joint()
        for pair in ALL_SETTING_PAIRS:
            assert joint[pair] == joint[SettingPair(pair.right, pair.left)]

    def test_sits_strictly_below_every_instruction_set(self):
        # the whole point: 1/2 is under the best any instruction set can do
        from bellgame.core import INSTRUCTION_SETS, same_color_fraction

        floor = min(same_color_fraction(i) for i in INSTRUCTION_SETS)
        assert Fraction(1, 2) < floor == Fraction(5, 9)


class TestSampling:
    def test_equal_settings_always_equal_colors(self):
        for seed in range(500):
            for s in SETTINGS:
                colors = sample_quantum_run(
                    SettingPair(s, s), ByteStream(seed, b"oracle")
                )
                assert colors[0] is colors[1]

    def test_unequal_pair_same_frequency(self):
        pair = SettingPair(Setting.ONE, Setting.TWO)
        same = 0
        n = 100_000
        for i in range(n):
            seed = derive_run_seed(31337, i)
            colors = sample_quantum_run(pair, ByteStream(seed, b"oracle"))
            same += colors[0] is colors[1]
        assert abs(same / n - 0.25) <= 0.01

    def test_left_marginal_uniform_over_mixed_settings(self):
        from bellgame.core import Color
        from bellgame.protocol import draw_settings

        reds = 0
        n = 100_000
        for i in range(n):
            seed = derive_run_seed(99, i)
            settings = draw_settings(ByteStream(seed, b"settings"))
            colors = sample_quantum_run(settings, ByteStream(seed, b"oracle"))
            reds += colors[0] is Color.R
        assert abs(reds / n - 0.5) <= 0.01

    def test_deterministic_in_seed(self):
        pair = SettingPair(Setting.TWO, Setting.THREE)
        a = sample_quantum_run(pair, ByteStream(4, b"oracle"))
        b = sample_quantum_run(pair, ByteStream(4, b"oracle"))
        assert a == b

    def test_both_marginals_uniform_at_fixed_pair(self):
        from bellgame.core import Color

        pair = SettingPair(Setting.ONE, Setting.TWO)
        n = 40_000
        reds = [0, 0]
        for i in range(n):
            seed = derive_run_seed(606, i)
            colors = sample_quantum_run(pair, ByteStream(seed, b"oracle"))
            reds[0] += colors[0] is Color.R
            reds[1] += colors[1] is Color.R
        assert abs(reds[0] / n - 0.5) <= 0.015
        assert abs(reds[1] / n - 0.5) <= 0.015


class TestQuantumExperiment:
    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            quantum_experiment(0, 1)

    def test_statistics_at_scale(self):
        stats = quantum_experiment(50_000, 7)
        eq_same, eq_diff = stats.equal_setting_counts()
        assert eq_diff == 0
        assert abs(stats.overall_same_float - 0.5) <= 0.01
        assert stats.overall_same_float < 5 / 9 - 0.02

    def test_swap_symmetry_of_statistics(self):
        stats = quantum_experiment(50_000, 8)
        per_pair = stats.per_pair_same
        for pair in ALL_SETTING_PAIRS:
            if pair.left is pair.right:
                continue
            mirrored = SettingPair(pair.right, pair.left)
            assert abs(float(per_pair[pair]) - float(per_pair[mirrored])) <= 0.03

    def test_record_stream_shape(self):
        sink = io.StringIO()
        quantum_experiment(4, 11, sink=sink)
        lines = sink.getvalue().splitlines()
        header = json.loads(lines[0])
        assert header["strategy"] == QUANTUM_ORACLE_ID
        for line in lines[1:]:
            obj = json.loads(line)
            assert obj["strategy"] == QUANTUM_ORACLE_ID
            assert obj["transcript"] == []

    def test_deterministic(self):
        assert quantum_experiment(2_000, 5) == quantum_experiment(2_000, 5)

"""The target statistics the classical strategies are chasing.

The color source samples the exact joint law of the three-setting singlet
geometry: equal settings always agree, unequal settings agree with
probability exactly 1/4, and each wing's colors are uniform. The overall
agreement rate lands at exactly 1/2 in expectation, strictly below the
classical floor of 5/9.
"""

from bellgame import ALL_SETTING_PAIRS, quantum_experiment, singlet_joint

joint = singlet_joint()
print("exact joint law (probability both wings flash the same color):\n")
for pair in ALL_SETTING_PAIRS:
    print(f"  settings {int(pair.left)},{int(pair.right)}: {joint[pair]}")

mix = sum(joint[p] for p in ALL_SETTING_PAIRS) / 9
print(f"\nuniform mixture over the nine pairs: {mix} (exactly one half)")

n = 100_000
stats = quantum_experiment(n, master_seed=42)
eq_same, eq_diff = stats.equal_setting_counts()
print(f"\nsampled at n={n}:")
print(f"  equal settings, different colors: {eq_diff}")
print(f"  overall same-color fraction: {stats.overall_same_float:.4f}")
print(f"  classical floor: 5/9 = {5 / 9:.4f}  -> the oracle sits well below it")

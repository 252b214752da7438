"""One censored run, inside out.

The wings agree on an instruction set by exchanging messages that carry no
setting information: Left proposes a set decoded from the shared tape,
Right echoes it back. Watch the transcript of one run, then check the
long-run statistics.
"""

from bellgame import (
    RunConfig,
    Setting,
    SettingPair,
    execute_run,
    induced_instruction_set,
    negotiation_strategy,
    run_experiment,
)

config = RunConfig()
strategy = negotiation_strategy()

settings = SettingPair(Setting.ONE, Setting.THREE)
record = execute_run(config, strategy, settings, seed=90125)

print(f"one run with settings {tuple(int(s) for s in record.settings)}:\n")
# payload i was sent by Left when i is even, in round i // 2 + 1
for i, payload in enumerate(record.transcript):
    wing = "R" if i % 2 else "L"
    print(f"  round {i // 2 + 1}, wing {wing}: {payload[:6].hex()}... ({len(payload)} bytes)")

left_set, right_set = induced_instruction_set(strategy, record, config)
print(f"\nboth wings settled on: {left_set.label} (left) / {right_set.label} (right)")
print(f"flashes: left={record.colors[0]}, right={record.colors[1]}")
print("equal settings would have flashed equal colors; unequal ones just read the set.")

n = 20_000
stats = run_experiment(config, strategy, n, master_seed=7)
eq_same, eq_diff = stats.equal_setting_counts()
print(f"\nover {n} runs:")
print(f"  equal settings, different colors: {eq_diff} times (must be 0)")
print(f"  overall same-color fraction: {stats.overall_same_float:.4f}")
print("  the floor says this can never go below 5/9 ~ 0.5556 for such a strategy.")

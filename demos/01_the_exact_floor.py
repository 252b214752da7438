"""The exact classical floor, by enumeration.

Any strategy whose wings always agree on equal settings must, in effect,
pick one of eight instruction sets per run (a color for each of the three
settings). Enumerate all eight, count agreeing setting pairs exactly, and
the minimum is 5/9. No sampling, no floats.
"""

from bellgame import INSTRUCTION_SETS, prove_bound, same_color_fraction

print("All eight instruction sets and their exact same-color fractions")
print("(9 equally likely setting pairs per run):\n")

for iset in INSTRUCTION_SETS:
    matches = 9 * same_color_fraction(iset)
    print(f"  {iset.label}: agrees on {matches} of 9 pairs -> {same_color_fraction(iset)}")

report = prove_bound()
print(f"\nminimum over all sets: {report.minimum}")
print(f"attained by: {', '.join(i.label for i in report.minimizers)}")
print()
print(report.to_text().splitlines()[-1])

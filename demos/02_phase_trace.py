"""Watch the target qubit move around the equator, stage by stage.

With both controls on, the target walks through the octants:
+ -> 7pi/4 -> pi/4 -> +i -> -i -> 5pi/4 -> 3pi/4 -> - and the closing
Hadamard reads out |1>.  With a control off, the matching CX stages skip
and every rotation is undone by its mirror twin, returning |0>.
"""
from hexsynth.library import BOOLEAN_TABLE, BooleanGateKind
from hexsynth.rules import STAGE_NAMES, phase_trace

spec = BOOLEAN_TABLE[BooleanGateKind.AND]

header = " ".join(f"{name:>7s}" for name in STAGE_NAMES)
print(f"controls  {header}")
for controls in ("00", "01", "10", "11"):
    stages = " ".join(f"{label:>7s}" for label in phase_trace(spec, controls))
    print(f"  |{controls}>    {stages}")

print()
print("same idea for OR (all rotations positive, Z flips the readout):")
spec = BOOLEAN_TABLE[BooleanGateKind.OR]
for controls in ("00", "01", "10", "11"):
    stages = " ".join(f"{label:>7s}" for label in phase_trace(spec, controls))
    print(f"  |{controls}>    {stages}")

"""Build the relative-phase Boolean gates and check what they compute.

Each 3-bit gate is one symmetric core: the target wire gets a Hadamard,
four eighth-turn rotations interleaved with three CX flips from the
controls, and a closing Hadamard.  Changing the rotation signs (and an
optional Z at the end) selects which Boolean function lands on the target.
"""
import numpy as np

from hexsynth import BOOLEAN_TABLE, BooleanGateKind, build_core, build_gate, emit_text, equivalence
from hexsynth.simulator import truth_string, truth_table

print("the AND gate as circuit text:")
print(emit_text(build_gate("and3")))

print("truth tables (assignments 00, 01, 10, 11 with control 1 as the low bit):")
for kind in BooleanGateKind:
    gate = build_core(BOOLEAN_TABLE[kind])
    table = truth_table(gate, target=1, controls=(0, 2))
    print(f"  {kind.value:12s} {truth_string(table)}")

# The AND gate agrees with Toffoli everywhere a measurement can tell:
# entrywise magnitudes match (relative-phase equivalence), but the branch
# phases differ, so it is not equal up to a global phase.
and3 = build_gate("and3").relabeled({0: 0, 1: 2, 2: 1})  # align wire order
toffoli = build_gate("toffoli")
print("\nand3 vs textbook Toffoli:", equivalence(and3, toffoli).name)

from hexsynth import unitary_of

ua, ut = unitary_of(and3), unitary_of(toffoli)
print("entrywise magnitude match:", np.allclose(np.abs(ua), np.abs(ut)))
print("largest raw entry difference (branch phases differ):", float(np.max(np.abs(ua - ut))))

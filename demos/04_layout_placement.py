"""Place gates on the heavy-hex lattice and show why target-in-the-middle wins.

The I-shape {61, 62, 63, 72, 80, 81, 82} holds up to three cores.  With each
core's target on its triple's middle qubit every CX lands on a lattice edge,
so routing adds zero SWAPs.  Move a target to a triple end and adjacency
breaks immediately; a naive router then has to pay for it.
"""
from hexsynth import (build_gate, compile_gate, count_gates, heavy_hex_127, ishape_brisbane,
                      lower, peephole, route_naive, verify_no_swap)
from hexsynth.layout import CouplingMap, Placement
from hexsynth.transpiler import NativeBasis

cmap = heavy_hex_127()
shape = ishape_brisbane(cmap)
print(f"lattice: {cmap.num_qubits} qubits, {len(cmap.edges)} edges,"
      f" I-shape {shape.qubits()}")

for name in ("and3", "and4", "and5", "fredkin4", "csx3", "miller3"):
    compiled = compile_gate(build_gate(name), NativeBasis.ECR_BASIS, cmap)  # placed on the I-shape
    print(f"  {name:9s} placement {compiled.placement.assignment}"
          f"  swap-free: {not compiled.violations}")

print()
print("displacing the and3 target to a triple end:")
bad = Placement({"c1": 62, "t": 61, "c2": 63})
ok, violations = verify_no_swap(build_gate("and3"), cmap, bad)
print("  swap-free:", ok, " violations:", violations)

print()
print("what the naive router pays for a standard Toffoli on a 3-qubit line")
line = CouplingMap("line3", 3, frozenset({(0, 1), (1, 2)}))
toffoli = build_gate("toffoli")
routed = route_naive(toffoli, line, {0: 1, 1: 2, 2: 0})  # target forced to an end
lowered = peephole(lower(routed.circuit, NativeBasis.CX_BASIS))
print(f"  toffoli, target on an end: {routed.swaps_added} swap(s),"
      f" {count_gates(lowered).counts.get('cx', 0)} cx after lowering")
and3 = build_gate("and3")
routed = route_naive(and3, line, {0: 0, 1: 1, 2: 2})
lowered = peephole(lower(routed.circuit, NativeBasis.CX_BASIS))
print(f"  and3, target in the middle: {routed.swaps_added} swap(s),"
      f" {count_gates(lowered).counts.get('cx', 0)} cx after lowering")

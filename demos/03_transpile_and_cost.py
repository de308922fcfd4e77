"""Lower the gate family to device-native gates and compare quantum costs.

The headline: every family gate needs dramatically fewer native gates than
the equivalent standard construction, because each CX touches the target
directly (one ECR each, no routing SWAPs) and all single-qubit gates merge
into short RZ/SX runs.
"""
from hexsynth import build_gate, cost_report, lower_and_optimize, emit_text
from hexsynth.reports import expected_values
from hexsynth.transpiler import NativeBasis, rule_table_text

print("single-qubit and two-qubit rewrite rules (ECR basis):")
print(rule_table_text(NativeBasis.ECR_BASIS))
print()

print("2-bit gates in the CX basis:")
for name in ("csx2", "csxdg2", "swap2"):
    rep = cost_report(build_gate(name), NativeBasis.CX_BASIS)
    print(f"  {name:8s} {rep.counts}  qc={rep.qc} depth={rep.depth}")
print()

print("family gates in the ECR basis (standard-approach costs in parentheses):")
for name, expected in expected_values()["native_ecr_costs"].items():
    rep = cost_report(build_gate(name), NativeBasis.ECR_BASIS)
    print(f"  {name:9s} ecr={rep.counts['ecr']:2d}  qc={rep.qc:3d}  "
          f"(standard {expected['standard_qc']})")
print()

print("the fully lowered 3-bit AND, ready for a device:")
print(emit_text(lower_and_optimize(build_gate("and3"), NativeBasis.ECR_BASIS)))

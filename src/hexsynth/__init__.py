"""hexsynth: layout-aware Clifford+T gate synthesis for heavy-hex devices.

Builds relative-phase n-bit gates (Boolean cores, Fredkin, controlled-sqrt(X),
swap, Miller) whose targets always sit between their controls, verifies them
by exact simulation, lowers them to the {X, sqrt(X), RZ, CX} and
{X, sqrt(X), RZ, ECR} native bases, and checks that canonical I-shape
placements never need SWAP insertion.
"""
from .circuit import (Angle, Circuit, CircuitError, CostReport, Gate, GateKind,
                      count_gates, depth, emit_text, parse_text)
from .library import BOOLEAN_TABLE, BooleanGateKind, CoreSpec, build_core, build_gate
from .layout import (CouplingMap, Placement, heavy_hex_127, ishape_brisbane, load_map, place,
                     verify_no_swap)
from .rules import GateSetStage, SearchQuery, apply_rules, count_space, search
from .simulator import (EquivalenceLevel, QSpherePoint, Statevector, apply,
                        equivalence, gate_matrix, pauli_conjugate, phase_trace,
                        qsphere, truth_table, unitary_of)
from .transpiler import (Compiled, NativeBasis, RouteResult, compile_gate, lower, peephole,
                         route_naive)

__version__ = "0.1.0"

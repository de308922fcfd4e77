"""Heavy-hex coupling-map model, I-shape placements, and adjacency checking.

The 127-qubit map is generated from the heavy-hex construction: seven
horizontal rows of qubits joined by four-qubit connector columns, giving a
maximum vertex degree of three.  The I-shape is the seven-qubit subgraph of
two parallel row triples bridged through a connector qubit.  A gate places
without SWAP insertion exactly where its interaction graph (the wire pairs
its two-qubit gates touch) embeds into the shape's couplings; `place` finds
that embedding from the gate's own gate list, so this module knows no gate
by name.
"""
from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass, field

from .circuit import Circuit, CircuitError
from .library import build_gate


class LayoutError(CircuitError):
    pass


@dataclass(frozen=True)
class CouplingMap:
    """Physical-qubit adjacency graph (undirected, no self-loops)."""

    name: str
    num_qubits: int
    edges: frozenset
    _adjacent: dict = field(init=False, repr=False, compare=False)  # qubit -> sorted neighbors

    def __post_init__(self):
        norm = set()
        for e in self.edges:
            a, b = int(e[0]), int(e[1])
            if a == b:
                raise LayoutError(f"self-loop edge [{a}, {b}]")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise LayoutError(f"edge [{a}, {b}] outside 0..{self.num_qubits - 1}")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))
        adjacent = {}
        for a, b in norm:
            adjacent.setdefault(a, []).append(b)
            adjacent.setdefault(b, []).append(a)
        object.__setattr__(self, "_adjacent", {q: tuple(sorted(ns)) for q, ns in adjacent.items()})

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adjacent.get(q, ())

    def shortest_path(self, src: int, dst: int):
        """BFS path [src, ..., dst], or None if disconnected."""
        if src == dst:
            return [src]
        prev = {src: None}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nxt in self.neighbors(cur):
                if nxt in prev:
                    continue
                prev[nxt] = cur
                if nxt == dst:
                    path = [dst]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(nxt)
        return None

    def as_dict(self) -> dict:
        return {"name": self.name, "num_qubits": self.num_qubits,
                "edges": sorted([a, b] for a, b in self.edges)}


def load_map(source) -> CouplingMap:
    """Read a coupling map from a JSON file path, file object, or dict."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            if hasattr(source, "read"):
                data = json.load(source)
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise LayoutError(f"unreadable coupling-map JSON: {e}") from None
    try:
        name, num_qubits = str(data.get("name", "unnamed")), data["num_qubits"]
        edges = [tuple(e) for e in data["edges"]]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise LayoutError(f"malformed coupling-map JSON: {e}") from None
    if type(num_qubits) is not int:
        raise LayoutError(f"num_qubits must be an integer, got {num_qubits!r}")
    for e in edges:
        if len(e) != 2 or not all(type(q) is int for q in e):
            raise LayoutError(f"an edge must be two integer qubits, got {list(e)!r}")
    return CouplingMap(name=name, num_qubits=num_qubits, edges=frozenset(edges))


def heavy_hex_127(name: str = "brisbane") -> CouplingMap:
    """The 127-qubit heavy-hex lattice used by IBM Eagle-class devices.

    Rows of 14/15 qubits with horizontal edges, joined by connector qubits
    at alternating column offsets (0,4,8,12) and (2,6,10,14).
    """
    row_start = [0, 18, 37, 56, 75, 94, 113]
    edges = []

    def row_id(r: int, col: int) -> int:
        if r == 0:
            if not 0 <= col <= 13:
                raise LayoutError(f"row 0 has no column {col}")
            return col
        if r == 6:
            if not 1 <= col <= 14:
                raise LayoutError(f"row 6 has no column {col}")
            return row_start[6] + col - 1
        return row_start[r] + col

    # horizontal edges
    for r, start in enumerate(row_start):
        length = 14 if r in (0, 6) else 15
        for i in range(length - 1):
            edges.append((start + i, start + i + 1))
    # connector columns between consecutive rows
    conn = 14
    for r in range(6):
        cols = (0, 4, 8, 12) if r % 2 == 0 else (2, 6, 10, 14)
        for col in cols:
            edges.append((row_id(r, col), conn))
            edges.append((conn, row_id(r + 1, col)))
            conn += 1
        conn += 15  # skip over the next row's ids
    return CouplingMap(name=name, num_qubits=127, edges=frozenset(edges))


@dataclass(frozen=True)
class IShape:
    """Two linear qubit triples bridged by a middle qubit."""

    row_a: tuple[int, int, int]
    row_b: tuple[int, int, int]
    bridge: int

    def all_qubits(self) -> tuple[int, ...]:
        return self.row_a + (self.bridge,) + self.row_b

    def edges(self) -> tuple[tuple[int, int], ...]:
        """The six couplings: along each triple, and from each triple's middle
        through the bridge."""
        a, b = self.row_a, self.row_b
        return ((a[0], a[1]), (a[1], a[2]), (b[0], b[1]), (b[1], b[2]),
                (a[1], self.bridge), (self.bridge, b[1]))

    def validate(self, cmap: CouplingMap):
        if len(set(self.all_qubits())) != 7:
            raise LayoutError("I-shape qubits must be distinct")
        for a, b in self.edges():
            if not cmap.has_edge(a, b):
                raise LayoutError(f"I-shape edge ({a}, {b}) missing from map {cmap.name!r}")


def ishape_brisbane(cmap: CouplingMap | None = None) -> IShape:
    """The documented I-shape region {61, 62, 63, 72, 80, 81, 82}."""
    shape = IShape(row_a=(61, 62, 63), row_b=(80, 81, 82), bridge=72)
    shape.validate(cmap if cmap is not None else heavy_hex_127())
    return shape


@dataclass(frozen=True)
class Placement:
    """Injective assignment of wire names to physical qubit indices."""

    assignment: dict

    def __post_init__(self):
        vals = list(self.assignment.values())
        if len(set(vals)) != len(vals):
            raise LayoutError(f"placement is not injective: {self.assignment}")

    def as_dict(self) -> dict:
        return {"assignment": dict(self.assignment)}

    @staticmethod
    def from_dict(data: dict) -> "Placement":
        try:
            assignment = dict(data["assignment"])
        except (KeyError, TypeError, ValueError) as e:
            raise LayoutError(f"malformed placement: {e!r}") from None
        if not all(type(p) is int for p in assignment.values()):
            raise LayoutError(f"placement qubits must be integers: {assignment}")
        return Placement(assignment=assignment)


def place(gate_name: str, shape: IShape) -> Placement:
    """The first no-SWAP placement of a registry gate onto an I-shape.

    Wires are taken in circuit order (wire 0 first); each takes the first
    free qubit, in `shape.all_qubits()` order, that is coupled to every
    placed wire it shares a two-qubit gate with, backtracking when none is.
    So every core's target lands between its two controls: on a triple's
    middle, or on the bridge, whose two neighbors are the triple middles.
    The search runs once per gate and shape; each call gets its own
    Placement.
    """
    return Placement(assignment=dict(_embedding(gate_name, shape)))


@functools.cache
def _embedding(gate_name: str, shape: IShape) -> tuple[tuple[str, int], ...]:
    circuit = build_gate(gate_name)
    partners = [set() for _ in range(circuit.width)]
    for g in circuit.gates:
        if len(g.qubits) == 2:
            a, b = g.qubits
            partners[a].add(b)
            partners[b].add(a)
    coupled = {pair for a, b in shape.edges() for pair in ((a, b), (b, a))}
    qubits = shape.all_qubits()
    chosen: list[int] = []

    def extend(wire: int) -> bool:
        if wire == circuit.width:
            return True
        for q in qubits:
            if q not in chosen and all((chosen[p], q) in coupled
                                       for p in partners[wire] if p < wire):
                chosen.append(q)
                if extend(wire + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        raise LayoutError(f"gate {gate_name!r} does not fit an I-shape placement")
    return tuple(zip(circuit.wire_names, chosen))


def verify_no_swap(circuit: Circuit, cmap: CouplingMap, placement: Placement):
    """Check that every two-qubit gate acts on a coupling-map edge.

    Returns (ok, violations); each violation is a dict naming the offending
    gate and the non-adjacent physical pair.
    """
    if circuit.wire_names is None:
        raise LayoutError("circuit has no wire names to match the placement")
    try:
        log2phys = [placement.assignment[w] for w in circuit.wire_names]
    except KeyError as e:
        raise LayoutError(f"placement does not cover wire {e.args[0]!r}") from None
    violations = []
    for g in circuit.gates:
        if len(g.qubits) != 2:
            continue
        pa, pb = log2phys[g.qubits[0]], log2phys[g.qubits[1]]
        if not cmap.has_edge(pa, pb):
            violations.append({
                "gate": g.kind.value,
                "wires": [circuit.wire_names[q] for q in g.qubits],
                "physical": [pa, pb],
            })
    return (not violations), violations

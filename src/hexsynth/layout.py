"""Heavy-hex coupling maps, no-SWAP placement into any map, and adjacency checking.

The 127-qubit lattice is generated from the heavy-hex construction: seven
horizontal rows of qubits joined by four-qubit connector columns, giving a
maximum vertex degree of three.  A region of it is a CouplingMap on the
region's own couplings; the I-shape is the seven-qubit region of two
parallel row triples bridged through a connector qubit.  A gate places
without SWAP insertion exactly where its interaction graph (the wire pairs
its two-qubit gates touch) embeds into a map's couplings; `place` finds
that embedding, wires taken breadth-first over the interaction graph, in
any map: the whole lattice or one region.  It reads the circuit it is given
(a registry name is built first), so no gate is special-cased here.
`Placement.physical` states what a valid placement of a circuit's wires
is, once, for `verify_no_swap` and the router alike.
"""
from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import eq

from .circuit import Circuit, CircuitError
from .library import build_gate


class LayoutError(CircuitError):
    pass


@dataclass(frozen=True)
class CouplingMap:
    """Physical-qubit adjacency graph (undirected, no self-loops).  The
    constructor holds every map rule: an int `num_qubits`, and edges of two
    distinct int qubits in range, each stored as an ascending pair.  It
    checks the edges in bulk; the neighbor lists are built on the first
    `neighbors` or `qubits` call, since a map that is only asked `has_edge`
    never needs them."""

    name: str
    num_qubits: int
    edges: frozenset

    def __post_init__(self):
        if type(self.num_qubits) is not int:
            raise LayoutError(f"num_qubits must be an integer, got {self.num_qubits!r}")
        edges = tuple(self.edges)
        _check_edges(edges, self.num_qubits)
        object.__setattr__(self, "edges", frozenset(e if e[0] < e[1] else e[::-1] for e in edges))

    @functools.cached_property
    def _adjacent(self) -> dict:
        """qubit -> its neighbors, ascending"""
        adjacent = {}
        for a, b in self.edges:
            adjacent.setdefault(a, []).append(b)
            adjacent.setdefault(b, []).append(a)
        return {q: tuple(sorted(ns)) for q, ns in adjacent.items()}

    def has_edge(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self.edges

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adjacent.get(q, ())

    def qubits(self) -> tuple[int, ...]:
        """The qubits some coupling touches, ascending."""
        return tuple(sorted(self._adjacent))

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


def _check_edges(edges: tuple, num_qubits: int) -> None:
    """Raise LayoutError for the first edge that breaks a map rule.  The
    rules are tested in bulk; the edges are walked one by one only to name
    the offender."""
    if {*map(type, edges)} <= {tuple} and {*map(len, edges)} <= {2}:
        ends = list(chain.from_iterable(edges))
        if ({*map(type, ends)} <= {int} and not any(map(eq, ends[0::2], ends[1::2]))
                and (not ends or 0 <= min(ends) and max(ends) < num_qubits)):
            return
    for e in edges:
        if type(e) is not tuple or len(e) != 2 or not all(type(q) is int for q in e):
            raise LayoutError(f"an edge must be two integer qubits, got {e!r}")
        a, b = e
        if a == b:
            raise LayoutError(f"self-loop edge [{a}, {b}]")
        if not (0 <= a < num_qubits and 0 <= b < num_qubits):
            raise LayoutError(f"edge [{a}, {b}] outside 0..{num_qubits - 1}")


def load_map(source) -> CouplingMap:
    """Read a coupling map (checked by `CouplingMap`) from a JSON file's path or a dict."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise LayoutError(f"unreadable coupling-map JSON: {e}") from None
    try:
        name, num_qubits = str(data.get("name", "unnamed")), data["num_qubits"]
        edges = list(map(tuple, data["edges"]))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise LayoutError(f"malformed coupling-map JSON: {e}") from None
    return CouplingMap(name=name, num_qubits=num_qubits, edges=frozenset(edges))


def heavy_hex_127() -> CouplingMap:
    """The 127-qubit heavy-hex lattice used by IBM Eagle-class devices.

    Seven rows are numbered in turn, each followed by the four connector
    qubits that join it to the next row, at columns (0, 4, 8, 12) below an
    even row and (2, 6, 10, 14) below an odd one.  The middle rows span
    columns 0-14; the first lacks column 14 and the last column 0.
    """
    edges, above, q = [], {}, 0  # above: column -> connector from the previous row
    for r in range(7):
        row = {col: q + i for i, col in enumerate(range(1 if r == 6 else 0, 14 if r == 0 else 15))}
        q += len(row)
        edges += [(a, a + 1) for a in range(q - len(row), q - 1)]
        edges += [(c, row[col]) for col, c in above.items()]
        cols = () if r == 6 else (0, 4, 8, 12) if r % 2 == 0 else (2, 6, 10, 14)
        above = {col: q + i for i, col in enumerate(cols)}
        q += len(above)
        edges += [(row[col], c) for col, c in above.items()]
    return CouplingMap(name="brisbane", num_qubits=q, edges=frozenset(edges))


def ishape_brisbane(cmap: CouplingMap) -> CouplingMap:
    """The documented I-shape region {61, 62, 63, 72, 80, 81, 82} of `cmap`.

    Two row triples, 61-62-63 and 80-81-82, bridged from middle to middle
    through the connector 72; these six couplings must all be in `cmap`.
    """
    edges = ((61, 62), (62, 63), (80, 81), (81, 82), (62, 72), (72, 81))
    for a, b in edges:
        if not cmap.has_edge(a, b):
            raise LayoutError(f"I-shape edge ({a}, {b}) missing from map {cmap.name!r}")
    return CouplingMap(name=f"{cmap.name} I-shape", num_qubits=cmap.num_qubits,
                       edges=frozenset(edges))


@dataclass(frozen=True)
class Placement:
    """Injective assignment of wire names to int physical qubits; the
    constructor checks both rules, so `from_dict` only reads, and
    `physical` checks it against a circuit's wires and a map."""

    assignment: dict

    def __post_init__(self):
        if not isinstance(self.assignment, dict):
            raise LayoutError(f"placement must map wire names to qubits: {self.assignment!r}")
        vals = list(self.assignment.values())
        if not all(type(p) is int for p in vals):
            raise LayoutError(f"placement qubits must be integers: {self.assignment}")
        if len(set(vals)) != len(vals):
            raise LayoutError(f"placement is not injective: {self.assignment}")

    @staticmethod
    def from_dict(data: dict) -> "Placement":
        try:
            assignment = dict(data["assignment"])
        except (KeyError, TypeError, ValueError) as e:
            raise LayoutError(f"malformed placement: {e!r}") from None
        return Placement(assignment=assignment)

    def physical(self, wires, cmap: CouplingMap) -> list[int]:
        """The physical qubit of each of `wires`, in their order.  The
        placement must name exactly those wires, each on a qubit of `cmap`;
        anything else is a LayoutError."""
        try:
            qubits = [self.assignment[w] for w in wires]
        except KeyError as e:
            raise LayoutError(f"placement does not cover wire {e.args[0]!r}") from None
        names = set(wires)
        for wire, phys in self.assignment.items():
            if wire not in names:
                raise LayoutError(f"placement names wire {wire!r}, which the circuit lacks")
            if phys not in range(cmap.num_qubits):
                raise LayoutError(f"placement puts wire {wire!r} on physical qubit {phys}, "
                                  f"off the {cmap.num_qubits}-qubit map")
        return qubits


def place(gate: Circuit | str, region: CouplingMap) -> Placement:
    """The first no-SWAP placement of a circuit's wires into any coupling map.

    `gate` is a circuit with wire names, or a registry name, which is built.
    Wires are taken breadth-first over the circuit's interaction graph (the
    wire pairs its two-qubit gates touch), from the lowest unplaced wire.  A
    wire with a placed partner tries that partner's neighbors, ascending;
    any other wire tries every qubit of `region.qubits()`.  A candidate must
    be free and coupled to every placed partner, and the search backtracks
    when none is.  On the I-shape every core's target so lands between its
    two controls: on a triple's middle, or on the bridge.  The result is in
    wire order; the search is memoized on the width, the wire pairs and the
    region, and each call gets its own Placement.
    """
    circuit = build_gate(gate) if isinstance(gate, str) else gate
    if circuit.wire_names is None:
        raise LayoutError(f"gate {circuit.name!r} has no wire names to place")
    pairs = frozenset(tuple(sorted(g.qubits)) for g in circuit.gates if len(g.qubits) == 2)
    qubits = _embedding(circuit.width, pairs, region)
    if qubits is None:
        raise LayoutError(f"gate {circuit.name!r} does not fit {region.name!r}")
    return Placement(assignment=dict(zip(circuit.wire_names, qubits)))


@functools.lru_cache(maxsize=1024)
def _embedding(width: int, pairs: frozenset, region: CouplingMap) -> tuple[int, ...] | None:
    """Each wire's qubit in the first embedding of the interaction graph
    `pairs` on `width` wires into `region`, or None when there is none."""
    partners = [set() for _ in range(width)]
    for a, b in pairs:
        partners[a].add(b)
        partners[b].add(a)
    order: list[int] = []  # breadth-first, each component from its lowest wire
    for root in range(width):
        if root not in order:
            head = len(order)
            order.append(root)
            while head < len(order):
                order += sorted(p for p in partners[order[head]] if p not in order)
                head += 1
    chosen: dict[int, int] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        wire = order[i]
        placed = [chosen[p] for p in partners[wire] if p in chosen]
        # the candidates neighbor placed[0], so only the other partners need a check
        candidates = region.neighbors(placed[0]) if placed else region.qubits()
        for q in candidates:
            if q not in chosen.values() and all(region.has_edge(p, q) for p in placed[1:]):
                chosen[wire] = q
                if extend(i + 1):
                    return True
                del chosen[wire]
        return False

    return tuple(chosen[w] for w in range(width)) if extend(0) else None


def verify_no_swap(circuit: Circuit, cmap: CouplingMap, placement: Placement):
    """Check that every two-qubit gate acts on a coupling-map edge.

    Returns (ok, violations); each violation is a dict naming the offending
    gate and the non-adjacent physical pair.  A placement that
    `Placement.physical` rejects for the circuit's wires on `cmap` is a
    LayoutError, not a violation.
    """
    if circuit.wire_names is None:
        raise LayoutError("circuit has no wire names to match the placement")
    log2phys = placement.physical(circuit.wire_names, cmap)
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

"""Seeded input generators owned by the benchmark.

Each generator takes the seed and a round number and returns plain data
(names, circuit text, integer placements), so the same seed gives
byte-identical inputs.  Every round has the same shape (a fixed ladder of
sizes) with fresh seeded content, so a run averages over many draws and
run-to-run spread measures the program more than the draw.
"""
from __future__ import annotations

import math
import random

TARGETS = tuple(format(m, "04b") for m in range(16))
SP_ALPHABET = ("h", "sx", "sxdg")
# The full space's nine auxiliary entries (the extra "-z" entry equals "z"
# up to a global phase and is left out).
AX_ALPHABET = {"i": (), "x": ("x",), "sx": ("sx",), "sxdg": ("sxdg",), "z": ("z",),
               "s": ("s",), "sdg": ("sdg",), "t": ("t",), "tdg": ("tdg",)}
THETA_ALPHABET = ("s", "sdg", "t", "tdg")

# One round's queries as (sp, ax1, ax2, theta) alphabet subsets, sizes
# |sp|^2 |ax1| |ax2| |theta|^4 from 16 to 1,458 configurations.  The subsets
# are fixed: how much a configuration costs depends strongly on its gates
# (how soon the target turns non-deterministic), and with subsets drawn per
# seed the median query latency moved by 18% between seeds.  Fifteen queries
# put a run's median and 90th percentile inside one query's own cluster of
# latencies rather than in the gap between two.
SEARCH_LADDER = (
    (["sx"], ["i"], ["s"], ["s", "tdg"]),
    (["h"], ["i", "x"], ["s"], ["s", "tdg"]),
    (["sx"], ["s", "sxdg", "t"], ["s"], ["s", "t"]),
    (["sxdg"], ["z"], ["sx"], ["s", "t", "tdg"]),
    (["h", "sx"], ["sx", "x"], ["i"], ["sdg", "t"]),
    (["sxdg"], ["sx", "t"], ["sx"], ["s", "t", "tdg"]),
    (["sx"], ["s"], ["i"], ["s", "sdg", "t", "tdg"]),
    (["h"], ["s", "sxdg"], ["t", "tdg"], ["s", "sdg", "tdg"]),
    (["sxdg"], ["sdg", "sxdg"], ["sxdg"], ["s", "sdg", "t", "tdg"]),
    (["h", "sxdg"], ["sx"], ["t", "tdg"], ["s", "sdg", "tdg"]),
    (["h"], ["i", "s", "sx"], ["sx", "x"], ["sdg", "t", "tdg"]),
    (["sxdg"], ["i", "tdg"], ["i", "z"], ["s", "sdg", "t", "tdg"]),
    (["h", "sx"], ["i", "s", "tdg"], ["i"], ["sdg", "t", "tdg"]),
    (["sxdg"], ["i", "sx", "tdg"], ["sx", "sxdg", "tdg"], ["s", "sdg", "t"]),
    (["h", "sx", "sxdg"], ["sdg", "sxdg"], ["i"], ["s", "t", "tdg"]),
)


def space_size(query: dict) -> int:
    return (len(query["sp"]) ** 2 * len(query["ax1"]) * len(query["ax2"])
            * len(query["theta"]) ** 4)


def search_queries(seed: int, rnd: int) -> list[dict]:
    """The ladder's queries in seeded order, with targets drawn without
    repeats from the 16 truth tables (XOR and XNOR included)."""
    rng = random.Random(f"search:{seed}:{rnd}")
    targets = rng.sample(TARGETS, len(SEARCH_LADDER))
    queries = [{"target": target, "sp": sp, "ax1": ax1, "ax2": ax2, "theta": theta}
               for target, (sp, ax1, ax2, theta) in zip(targets, SEARCH_LADDER)]
    rng.shuffle(queries)
    return queries


REFERENCE_QUERY = {"target": "0001", "sp": list(SP_ALPHABET), "ax1": list(AX_ALPHABET),
                   "ax2": list(AX_ALPHABET), "theta": list(THETA_ALPHABET)}

CIRCUIT_WIDTH = 6
# One round's circuit lengths, log-spaced from 24 to 256 gates, with the
# basis alternating along the ladder.  Twenty-five lengths put the median and
# the 97th percentile of a run's latencies inside one length's own cluster;
# a top of 256 rather than 384 gates halves a round, so a run plays twice as
# many rounds and its figures depend less on one seed's circuits.
CIRCUIT_LADDER = tuple((round(24 * (256 / 24) ** (k / 24)), "cx" if k % 2 else "ecr")
                       for k in range(25))
_ONE_Q = ("x", "y", "z", "h", "sx", "sxdg", "s", "sdg", "t", "tdg")
_TWO_Q = ("cx", "cy", "cz", "swap")


def _angle_text(eighths: int) -> str:
    """Text for eighths * pi/4, in the circuit format's pi-fraction form."""
    if eighths == 0:
        return "0"
    g = math.gcd(eighths, 4)
    num, den = eighths // g, 4 // g
    sign = "-" if num < 0 else ""
    head = "pi" if abs(num) == 1 else f"{abs(num)}*pi"
    return sign + head + ("" if den == 1 else f"/{den}")


def circuit_text(rng: random.Random, width: int, length: int) -> str:
    """A random Clifford+T circuit with occasional k*pi/4 rotations, as text."""
    lines = [f"qubits {width}"]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.35:
            a, b = rng.sample(range(width), 2)
            lines.append(f"{rng.choice(_TWO_Q)} q[{a}], q[{b}]")
        elif roll < 0.85:
            lines.append(f"{rng.choice(_ONE_Q)} q[{rng.randrange(width)}]")
        else:
            kind = rng.choice(("rz", "ry"))
            lines.append(f"{kind}({_angle_text(rng.randrange(-7, 8))}) q[{rng.randrange(width)}]")
    return "\n".join(lines) + "\n"


def transpile_inputs(seed: int, rnd: int) -> list[dict]:
    """One seeded random circuit per ladder length, in seeded order."""
    rng = random.Random(f"transpile:{seed}:{rnd}")
    items = [{"basis": basis, "length": length} for length, basis in CIRCUIT_LADDER]
    rng.shuffle(items)
    for item in items:
        item["text"] = circuit_text(rng, CIRCUIT_WIDTH, item["length"])
    return items


def family_round(seed: int, rnd: int, widths: dict, num_qubits: int = 127) -> list[dict]:
    """The gates in seeded order, each with a random logical->physical
    placement for routing."""
    rng = random.Random(f"family:{seed}:{rnd}")
    order = sorted(widths)
    rng.shuffle(order)
    return [{"name": name, "placement": dict(enumerate(rng.sample(range(num_qubits), widths[name])))}
            for name in order]

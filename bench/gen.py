"""Seeded input generators for the benchmark.

Everything here is plain data drawn from an explicit ``random.Random``: formula
trees are nested tuples rendered to the parser's concrete syntax, models are
world/edge/valuation lists, circuits and set families are lists.  Nothing here
imports ``inclogic``; the workloads turn this data into program objects during
their timed set-up.  Each generator also carries its own reference answer
(circuit value, splittability, known validity) so the program's verdicts can be
checked without asking the program.
"""

from __future__ import annotations

import math
import random

# ---------------------------------------------------------------------------
# Formulas as tuples: ("p", name), ("!", name), ("&", a, b), ("|", a, b),
# ("<>", a), ("[]", a), ("inc", lhs_tuple, rhs_tuple).


def render(node) -> str:
    """Concrete syntax accepted by ``inclogic.parse_formula``."""
    op = node[0]
    if op == "p":
        return node[1]
    if op == "!":
        return "!" + node[1]
    if op in ("&", "|"):
        return f"({render(node[1])} {op} {render(node[2])})"
    if op in ("<>", "[]"):
        return op + render(node[1])
    lhs = ",".join(render(p) for p in node[1])
    rhs = ",".join(render(p) for p in node[2])
    return f"[{lhs} <= {rhs}]"


def negate(node):
    """Negation normal form of the negation of a formula without inclusion atoms."""
    op = node[0]
    if op == "p":
        return ("!", node[1])
    if op == "!":
        return ("p", node[1])
    dual = {"&": "|", "|": "&", "<>": "[]", "[]": "<>"}[op]
    return (dual,) + tuple(negate(c) for c in node[1:])


def random_formula(rng: random.Random, names, size: int, *, inclusion=True):
    """A negation-normal-form formula with about ``size`` connectives.

    Same shape distribution as ``tests/helpers.gen_formula`` (30% modal nodes,
    30% inclusion leaves of arity 1 or 2), kept here so the benchmark's inputs
    do not move when the test helpers change.
    """

    def build(budget: int):
        if budget <= 1:
            roll = rng.random()
            if inclusion and roll < 0.3:
                arity = rng.randint(1, 2)
                lhs = tuple(("p", rng.choice(names)) for _ in range(arity))
                rhs = tuple(("p", rng.choice(names)) for _ in range(arity))
                return ("inc", lhs, rhs)
            name = rng.choice(names)
            return ("p", name) if roll < 0.65 else ("!", name)
        if rng.random() < 0.3:
            return ("<>" if rng.random() < 0.5 else "[]", build(budget - 1))
        left = rng.randint(1, budget - 1)
        return ("&" if rng.random() < 0.5 else "|", build(left), build(budget - 1 - left))

    return build(max(1, size))


# ---------------------------------------------------------------------------
# Kripke models


def kripke_data(rng: random.Random, n_worlds: int, names, *, out_degree=10.0,
                truth_prob=0.5):
    """Worlds, edges and valuation of a random model.

    Each ordered pair is an edge with probability ``out_degree / n_worlds`` and
    each proposition holds at each world with probability ``truth_prob``, as
    in ``tests/helpers.gen_model``; edges are drawn by geometric skipping so
    drawing costs O(|R|) instead of O(|W|^2).  Needs ``out_degree < n_worlds``.
    """
    worlds = [f"w{i}" for i in range(n_worlds)]
    log_q = math.log(1.0 - out_degree / n_worlds)
    edges = []
    for u in range(n_worlds):
        j = -1
        while True:
            j += 1 + int(math.log(1.0 - rng.random()) / log_q)
            if j >= n_worlds:
                break
            edges.append((worlds[u], worlds[j]))
    valuation = {
        name: [w for w in worlds if rng.random() < truth_prob] for name in names
    }
    return worlds, edges, valuation


# ---------------------------------------------------------------------------
# Deep monotone circuits in the ``load_circuit`` text format


def layered_circuit(rng: random.Random, layers: int, width: int = 16):
    """A monotone circuit of ``layers`` full layers of ``width`` AND/OR gates
    above ``width`` inputs, topped by a balanced reduction to one output.

    Returns gates in output-first order as ``("AND"|"OR", left, right)`` or
    ``("INPUT", t)``: gate 0 is the output, operands point at larger indices,
    every gate but the output feeds another gate, and inputs x1..x<width>
    appear once each.  Depth is ``layers + ceil(log2(width))``.
    """
    nodes = [("INPUT", t) for t in rng.sample(range(1, width + 1), width)]
    level = list(range(width))
    for _ in range(layers):
        firsts = rng.sample(level, len(level))  # every node of the level is used
        nxt = []
        for a in firsts:
            b = rng.choice([x for x in level if x != a])
            nodes.append((rng.choice(("AND", "OR")), a, b))
            nxt.append(len(nodes) - 1)
        level = nxt
    while len(level) > 1:
        nxt = [level[-1]] if len(level) % 2 else []
        for j in range(0, len(level) - 1, 2):
            nodes.append((rng.choice(("AND", "OR")), level[j], level[j + 1]))
            nxt.append(len(nodes) - 1)
        level = nxt
    last = len(nodes) - 1

    def index(pos):
        return last - pos

    gates = []
    for pos in reversed(range(len(nodes))):
        node = nodes[pos]
        if node[0] == "INPUT":
            gates.append(node)
        else:
            gates.append((node[0], index(node[1]), index(node[2])))
    return gates


def circuit_text(gates) -> str:
    """The line-per-gate text that ``inclogic.load_circuit`` reads."""
    lines = []
    for i, gate in enumerate(gates):
        if gate[0] == "INPUT":
            lines.append(f"g{i} = INPUT x{gate[1]}")
        else:
            lines.append(f"g{i} = {gate[0]} g{gate[1]} g{gate[2]}")
    return "\n".join(lines) + "\n"


def circuit_value(gates, bits) -> int:
    """The circuit's output, evaluated here so the reference does not come from
    the program under test."""
    values = [0] * len(gates)
    for i in reversed(range(len(gates))):
        gate = gates[i]
        if gate[0] == "INPUT":
            values[i] = bits[gate[1] - 1]
        elif gate[0] == "AND":
            values[i] = values[gate[1]] & values[gate[2]]
        else:
            values[i] = values[gate[1]] | values[gate[2]]
    return values[0]


def circuit_depth(gates) -> int:
    depth = [0] * len(gates)
    for i in reversed(range(len(gates))):
        gate = gates[i]
        if gate[0] != "INPUT":
            depth[i] = 1 + max(depth[gate[1]], depth[gate[2]])
    return depth[0]


# ---------------------------------------------------------------------------
# Set-splitting families


def splittable(sets, universe) -> bool:
    """Brute-force 2-colouring of the hypergraph, independent of the program."""
    index = {e: i for i, e in enumerate(universe)}
    masks = [sum(1 << index[e] for e in s) for s in sets]
    full = (1 << len(universe)) - 1
    for colour in range(1 << (len(universe) - 1)):  # the last element stays on one side
        other = full ^ colour
        if all(m & colour and m & other for m in masks):
            return True
    return False


def set_family(rng: random.Random, k: int, n_sets: int, want_splittable: bool):
    """A family over ``a1..ak`` where every element lies in 1 to 3 sets and
    every set has at least two elements, splittable or not as asked.

    Unsplittable families carry an odd cycle of pairs (a triangle), so they
    are hard for the strict checker without being trivially unsplittable.
    """
    universe = [f"a{i}" for i in range(1, k + 1)]
    while True:
        sets = [[] for _ in range(n_sets)]
        triangle = [] if want_splittable else rng.sample(universe, 3)
        for e in universe:
            joins = rng.randint(0, 1) if e in triangle else rng.randint(1, min(3, n_sets))
            for j in rng.sample(range(n_sets), joins):
                sets[j].append(e)
        if triangle:
            a, b, c = triangle
            sets += [[a, b], [b, c], [a, c]]
        sets = [s for s in sets if s]
        if any(len(s) < 2 for s in sets):
            continue
        if {e for s in sets for e in s} != set(universe):
            continue
        if splittable(sets, universe) == want_splittable:
            return sets


# ---------------------------------------------------------------------------
# Bounded-validity corpus with answers known by construction


def _modal_param(rng: random.Random, names, size: int):
    """A plain modal formula with at least one modality (an extended parameter)."""
    while True:
        f = random_formula(rng, names, size, inclusion=False)
        if "<>" in render(f) or "[]" in render(f):
            return f


def valid_formula(rng: random.Random, kind: str):
    """A formula valid by construction.

    ``"incl"``: ``[X <= X]`` for modal X, true in every team because each
    member's row is its own witness.  ``"flat"``:
    ``(g | ~g)`` for a plain modal g, true in every team because the team
    splits into the worlds where g holds and those where it fails.
    ``"both"``: the conjunction of one of each.
    """
    if kind == "incl":
        x = _modal_param(rng, ["p"], rng.randint(2, 3))
        return ("inc", (x,), (x,))
    if kind == "flat":
        g = random_formula(rng, ["p"], rng.randint(1, 3), inclusion=False)
        return ("|", g, negate(g))
    return ("&", valid_formula(rng, "incl"), valid_formula(rng, "flat"))


def invalid_formula(rng: random.Random):
    """A formula invalid by construction: a one-world model falsifies it.

    ``(l & phi)`` fails on a singleton where the literal l is false,
    ``<>phi`` fails on a world without successors, and
    ``([p <= q] | (q & !q))`` fails on a singleton where p and q differ,
    because its right disjunct holds only on the empty team.
    """
    x = _modal_param(rng, ["p"], rng.randint(2, 3))
    phi = ("inc", (x,), (("p", "p"),)) if rng.random() < 0.5 else valid_formula(rng, "incl")
    shape = rng.randrange(3)
    if shape == 0:
        lit = rng.choice([("p", "p"), ("!", "p"), ("p", "q")])
        return ("&", lit, phi)
    if shape == 1:
        return ("<>", phi)
    return ("|", ("inc", (("p", "p"),), (("p", "q"),)), ("&", ("p", "q"), ("!", "q")))

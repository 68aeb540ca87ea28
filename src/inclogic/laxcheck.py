"""Polynomial model checking under lax semantics.

Three pieces:

* ``maxsub``: the unique maximal subteam of a team satisfying a literal
  (proposition, negated proposition, or inclusion atom).  For inclusion atoms
  this is the stable core of a compatibility graph: members whose left-hand
  value row is not realized as any surviving member's right-hand row are
  deleted until a fixpoint is reached.
* ``lax_labelling`` / ``lax_check``: an alternating fixpoint over the
  occurrence tree.  Every occurrence starts labelled with the full world set;
  odd rounds tighten labels bottom-up (literals via maxsub, conjunction by
  intersection, disjunction by union, diamond keeps worlds with a successor
  in the child label, box keeps worlds whose successors all lie in it), and
  even rounds push constraints top-down (the root label is clipped to the
  input team, conjuncts inherit the parent label, disjuncts and modal
  children are clipped against it).  Labels only shrink, so a fixpoint is
  reached within 2 * |worlds| * |occurrences| rounds; the team satisfies the
  formula exactly when the root's final label equals the team.
* ``eminc_preprocess``: eliminates extended inclusion atoms by naming each
  non-atomic parameter with a fresh proposition whose valuation is the
  parameter's pointwise truth set.  Sound because parameters are evaluated
  pointwise at single worlds.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import FragmentError
from .oracle import ml_truth_set
from .structures import Assignment, KripkeModel, PropTeam, r_image
from .syntax import (
    LITERALS,
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    Fragment,
    Inclusion,
    NegAtom,
    Or,
    extended_params,
    fragment,
    fresh_props,
    props,
    render_formula,
    sub_occurrences,
    substitute_params,
)


# ---------------------------------------------------------------------------
# Maximal satisfying subteams for literals


def _maxsub_core(members, value_of, lit) -> frozenset:
    if isinstance(lit, Atom):
        return frozenset(u for u in members if value_of(u, lit.name) == 1)
    if isinstance(lit, NegAtom):
        return frozenset(u for u in members if value_of(u, lit.name) == 0)
    if not isinstance(lit, Inclusion):
        raise FragmentError(f"literal expected, got {render_formula(lit)!r}")
    lhs = []
    rhs = []
    for p in lit.lhs:
        if not isinstance(p, Atom):
            raise FragmentError("eliminate extended inclusion atoms before lax checking")
        lhs.append(p.name)
    for q in lit.rhs:
        if not isinstance(q, Atom):
            raise FragmentError("eliminate extended inclusion atoms before lax checking")
        rhs.append(q.name)

    left = {u: tuple(value_of(u, p) for p in lhs) for u in members}
    right = {u: tuple(value_of(u, q) for q in rhs) for u in members}
    by_left = defaultdict(list)
    for u in members:
        by_left[left[u]].append(u)
    support = Counter(right.values())

    alive = set(members)
    exhausted = deque(t for t in by_left if support[t] == 0)
    dead_rows = set()
    while exhausted:
        row = exhausted.popleft()
        if row in dead_rows:
            continue
        dead_rows.add(row)
        for u in by_left.get(row, ()):
            if u not in alive:
                continue
            alive.discard(u)
            support[right[u]] -= 1
            if support[right[u]] == 0:
                exhausted.append(right[u])
    return frozenset(alive)


def maxsub(m: KripkeModel, t: Iterable[str], lit: Formula) -> frozenset[str]:
    """The maximal subteam of t satisfying a literal, over a Kripke model."""
    team = m.team(t)
    return _maxsub_core(team, lambda w, p: 1 if m.truth(p, w) else 0, lit)


def maxsub_prop(x: PropTeam, lit: Formula) -> PropTeam:
    """Propositional variant of maxsub, over teams of assignments."""
    kept = _maxsub_core(frozenset(x.members), lambda a, p: a[p], lit)
    return x.subteam(kept)


def witness_graph(m: KripkeModel, t: Iterable[str], atom: Inclusion) -> dict[str, frozenset[str]]:
    """The inclusion-compatibility graph on a team: an edge u -> v when u's
    left-hand value row equals v's right-hand row (self-loops permitted).

    Deleting out-degree-0 vertices until stable yields maxsub; this explicit
    form exists for inspection and cross-checking.
    """
    team = m.team(t)
    lhs = [p.name for p in atom.lhs]
    rhs = [q.name for q in atom.rhs]
    rows_l = {w: tuple(1 if m.truth(p, w) else 0 for p in lhs) for w in team}
    rows_r = {w: tuple(1 if m.truth(q, w) else 0 for q in rhs) for w in team}
    return {
        u: frozenset(v for v in team if rows_l[u] == rows_r[v])
        for u in team
    }


# ---------------------------------------------------------------------------
# The labelling fixpoint


@dataclass
class Labelling:
    """Final occurrence labels (occurrence id -> world set) and the number of
    rounds it took to stabilize."""

    labels: dict[int, frozenset[str]]
    rounds: int


def lax_labelling(
    m: KripkeModel,
    t: Iterable[str],
    f: Formula,
    trace: Callable[[int, dict[int, frozenset[str]]], None] | None = None,
) -> Labelling:
    """Run the alternating labelling fixpoint and return the final labels."""
    frag = fragment(f)
    if frag is Fragment.EMINC:
        raise FragmentError("eliminate extended inclusion atoms first (eminc_preprocess)")
    team = m.team(t)
    nodes = [node for _, node in sub_occurrences(f)]
    params = {p.oid for n in nodes if isinstance(n, Inclusion) for p in n.children()}
    occs = [n for n in nodes if n.oid not in params]  # inclusion atoms are leaves
    full = frozenset(m.worlds)

    older = None
    prev = {n.oid: full for n in occs}
    bound = 2 * max(1, len(m.worlds)) * max(1, len(occs)) + 4
    for i in range(1, bound + 1):
        cur: dict[int, frozenset[str]] = {}
        if i % 2 == 1:
            for n in occs:
                if isinstance(n, LITERALS):
                    cur[n.oid] = _maxsub_core(
                        prev[n.oid], lambda w, p: 1 if m.truth(p, w) else 0, n
                    )
                elif isinstance(n, And):
                    cur[n.oid] = cur[n.left.oid] & cur[n.right.oid]
                elif isinstance(n, Or):
                    cur[n.oid] = cur[n.left.oid] | cur[n.right.oid]
                elif isinstance(n, Diamond):
                    child = cur[n.child.oid]
                    cur[n.oid] = frozenset(w for w in prev[n.oid] if m.succ[w] & child)
                else:
                    child = cur[n.child.oid]
                    cur[n.oid] = frozenset(w for w in prev[n.oid] if m.succ[w] <= child)
        else:
            for n in reversed(occs):
                if n is f:
                    cur[n.oid] = prev[n.oid] & team
                if isinstance(n, And):
                    cur[n.left.oid] = cur[n.oid]
                    cur[n.right.oid] = cur[n.oid]
                elif isinstance(n, Or):
                    cur[n.left.oid] = prev[n.left.oid] & cur[n.oid]
                    cur[n.right.oid] = prev[n.right.oid] & cur[n.oid]
                elif isinstance(n, (Diamond, Box)):
                    reach = r_image(m, cur[n.oid])
                    cur[n.child.oid] = prev[n.child.oid] & reach
        if trace is not None:
            trace(i, cur)
        if older is not None and cur == prev == older:
            return Labelling(labels=cur, rounds=i)
        older, prev = prev, cur
    raise RuntimeError("labelling did not stabilize within the guaranteed round bound")


def lax_check(
    m: KripkeModel,
    t: Iterable[str],
    f: Formula,
    trace: Callable[[int, dict[int, frozenset[str]]], None] | None = None,
) -> bool:
    """Polynomial lax model checking: the team satisfies the formula exactly
    when the root's stable label equals the team."""
    team = m.team(t)
    return lax_labelling(m, team, f, trace).labels[f.oid] == team


# ---------------------------------------------------------------------------
# Propositional entry point via a one-layer model


def embed_prop_team(x: PropTeam) -> tuple[KripkeModel, frozenset[str]]:
    """Embed a propositional team as an edgeless Kripke model with one world
    per assignment; the world team is the whole world set."""
    names = {}
    for a in x.members:
        names[a] = "a" + "".join(str(b) for b in a.project(x.domain))
    valuation = {p: [names[a] for a in x.members if a[p] == 1] for p in x.domain}
    model = KripkeModel(names.values(), [], valuation)
    return model, frozenset(names.values())


def lax_check_prop(x: PropTeam, f: Formula) -> bool:
    """Lax model checking over a propositional team, via the one-layer
    embedding (extended propositional atoms are preprocessed away)."""
    model, team = embed_prop_team(x)
    if fragment(f) is Fragment.EMINC:
        model, f = eminc_preprocess(model, f)
    return lax_check(model, team, f)


# ---------------------------------------------------------------------------
# Extended inclusion atoms


def eminc_preprocess(m: KripkeModel, f: Formula) -> tuple[KripkeModel, Formula]:
    """Replace every non-atomic inclusion parameter by a fresh proposition
    true exactly where the parameter is pointwise true.

    Formulas without extended atoms come back unchanged.  The returned model
    extends the valuation with the fresh propositions.
    """
    if fragment(f) is not Fragment.EMINC:
        return m, f
    params = extended_params(f)
    names = fresh_props("f", len(params), props(f) | set(m.signature))
    mapping = {render_formula(p): name for p, name in zip(params, names)}
    valuation = {p: set(ws) for p, ws in m.valuation.items()}
    for p, name in zip(params, names):
        valuation[name] = ml_truth_set(m, p)
    new_model = KripkeModel(m.worlds, m.edges, valuation)
    return new_model, substitute_params(f, mapping)

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
  pointwise at single worlds.  ``lax_check`` applies it before labelling.

Propositional teams are checked as edgeless models with one world per
assignment (``embed_prop_team``).
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import FragmentError
from .oracle import ml_truth_set
from .structures import KripkeModel, PropTeam, r_image
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
    postorder,
    props,
    render_formula,
    sub_occurrences,
    substitute_params,
)


# ---------------------------------------------------------------------------
# Maximal satisfying subteams for literals


def maxsub(m: KripkeModel, t: Iterable[str], lit: Formula) -> frozenset[str]:
    """The maximal subteam of t satisfying a literal, over a Kripke model."""
    team = m.team(t)
    if isinstance(lit, Atom):
        return team & m.extent(lit.name)
    if isinstance(lit, NegAtom):
        return team - m.extent(lit.name)
    if not isinstance(lit, Inclusion):
        raise FragmentError(f"literal expected, got {render_formula(lit)!r}")
    if not all(isinstance(p, Atom) for p in lit.children()):
        raise FragmentError("eliminate extended inclusion atoms before lax checking")
    lhs = [m.extent(p.name) for p in lit.lhs]
    rhs = [m.extent(q.name) for q in lit.rhs]
    left = {u: tuple(u in s for s in lhs) for u in team}
    right = {u: tuple(u in s for s in rhs) for u in team}
    by_left = defaultdict(list)
    for u in team:
        by_left[left[u]].append(u)
    support = Counter(right.values())

    alive = set(team)
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


def maxsub_prop(x: PropTeam, lit: Formula) -> PropTeam:
    """Propositional variant of maxsub, over teams of assignments."""

    def kept(model: KripkeModel, team: frozenset[str], lit: Formula) -> PropTeam:
        alive = maxsub(model, team, lit)
        return x.subteam(a for a, w in zip(x.members, model.worlds) if w in alive)

    return _on_prop_team(x, lit, kept)


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
                    cur[n.oid] = maxsub(m, prev[n.oid], n)
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
    when the root's stable label equals the team.

    Extended inclusion atoms are eliminated up front via eminc_preprocess,
    so the labels passed to ``trace`` are those of the preprocessed formula.
    """
    m, f = eminc_preprocess(m, f)
    team = m.team(t)
    return lax_labelling(m, team, f, trace).labels[f.oid] == team


# ---------------------------------------------------------------------------
# Propositional teams via a one-layer model


def embed_prop_team(x: PropTeam) -> tuple[KripkeModel, frozenset[str]]:
    """Embed a propositional team as an edgeless Kripke model with one world
    per assignment, in member order; the world team is the whole world set."""
    names = {}
    for a in x.members:
        names[a] = "a" + "".join(str(b) for b in a.project(x.domain))
    valuation = {p: [names[a] for a in x.members if a[p] == 1] for p in x.domain}
    model = KripkeModel(names.values(), [], valuation)
    return model, frozenset(names.values())


def _on_prop_team(x: PropTeam, f: Formula, check: Callable):
    """``check(model, team, f)`` on the one-layer embedding of ``x``.

    Raises FragmentError on a diamond or box: a propositional team has no
    successors to step to.
    """
    if any(isinstance(n, (Diamond, Box)) for n in postorder(f)):
        raise FragmentError(f"propositional formula expected, got {fragment(f).value}")
    model, team = embed_prop_team(x)
    return check(model, team, f)


def lax_check_prop(x: PropTeam, f: Formula) -> bool:
    """Lax model checking over a propositional team, via the one-layer
    embedding."""
    return _on_prop_team(x, f, lax_check)


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

"""Polynomial model checking under lax semantics.

Everything runs on the model's bitmask index (``KripkeModel.index()``, built
on the model's first lax check and kept): a set of worlds is a Python int
whose bit i is ``m.worlds[i]``.  Three pieces:

* ``maxsub``: the unique maximal subteam of a team satisfying a literal.  A
  proposition keeps ``team & ext``, a negated one ``team & ~ext``.  For an
  inclusion atom it is the stable core of the team: the team is split into
  row classes (members with equal left-hand, resp. right-hand, value rows)
  by refining it over the parameter extents, at most min(2^arity, |team|)
  classes per side; a left class whose row no surviving member realizes on
  the right is deleted, each deletion re-examines only the right rows it
  removed members from, until no class is deleted.
* ``lax_labelling`` / ``lax_check``: an alternating fixpoint over the
  occurrence tree, lowered once per call into a flat post-order list of
  ``(kind, slot, child slots)`` ops over a list of masks.  Every occurrence
  starts labelled with the full world set; odd rounds tighten labels
  bottom-up (literals via the maxsub kernel, conjunction by intersection,
  disjunction by union, diamond ``prev & pre(child)``, box
  ``prev & ~pre(W \\ child)``), and even rounds push constraints top-down
  (the root label is clipped to the input team, conjuncts inherit the parent
  label, disjuncts are clipped against it, modal children against its image
  ``R[label]``).  Labels only shrink, so a fixpoint is reached within
  2 * |worlds| * |occurrences| rounds; the team satisfies the formula exactly
  when the root's final label equals the team.  ``Labelling.labels`` and the
  ``trace`` payload convert masks to frozensets of world names, the former
  on first access, the latter only when a callback is given.
* ``eminc_preprocess``: eliminates extended inclusion atoms by naming each
  non-atomic parameter with a fresh proposition whose valuation is the
  parameter's pointwise truth set.  Sound because parameters are evaluated
  pointwise at single worlds.  ``lax_check`` applies it before labelling.

Propositional teams are checked as edgeless models with one world per
assignment (``embed_prop_team``).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable

from .errors import FragmentError
from .oracle import ml_truth_set
from .structures import KripkeModel, PropTeam, WorldIndex
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

# op kinds of the lowered formula
_CLIP, _INCL, _AND, _OR, _DIAMOND, _BOX = range(6)


# ---------------------------------------------------------------------------
# Maximal satisfying subteams for literals


def maxsub(m: KripkeModel, t: Iterable[str], lit: Formula) -> frozenset[str]:
    """The maximal subteam of t satisfying a literal, over a Kripke model."""
    team = m.team(t)
    ix = m.index()
    kind, a, b = _lower_literal(ix, lit)
    return ix.names(_literal(kind, ix.mask(team), a, b))


def _lower_literal(ix: WorldIndex, lit: Formula) -> tuple[int, object, object]:
    """A literal as ``(kind, a, b)``: ``(_CLIP, mask, None)`` keeps the team
    inside ``mask``; ``(_INCL, lhs extents, rhs extents)`` is an inclusion
    atom."""
    if isinstance(lit, Atom):
        return _CLIP, ix.extent(lit.name), None
    if isinstance(lit, NegAtom):
        return _CLIP, ~ix.extent(lit.name), None
    if not isinstance(lit, Inclusion):
        raise FragmentError(f"literal expected, got {render_formula(lit)!r}")
    if not all(isinstance(p, Atom) for p in lit.children()):
        raise FragmentError("eliminate extended inclusion atoms before lax checking")
    return _INCL, [ix.extent(p.name) for p in lit.lhs], [ix.extent(q.name) for q in lit.rhs]


def _literal(kind: int, team: int, a, b) -> int:
    """The maxsub kernel: the maximal subteam (mask) of ``team`` satisfying a
    lowered literal."""
    if kind == _CLIP:
        return team & a
    left, right = _row_classes(team, a), _row_classes(team, b)
    alive = team
    dead = [row for row in left if row not in right]
    while dead:
        gone = left.pop(dead.pop(), 0)  # a class is deleted whole, and once
        if gone:
            alive ^= gone
            # only the right rows that just lost members can have lost their support
            dead.extend(row for row in _row_classes(gone, b) if not right[row] & alive)
    return alive


def _row_classes(team: int, extents: list[int]) -> dict[tuple[bool, ...], int]:
    """Partition ``team`` by value row over ``extents``: row -> member mask."""
    classes = {(): team}
    for ext in extents:
        refined = {}
        for row, members in classes.items():
            inside = members & ext
            if inside:
                refined[row + (True,)] = inside
            if inside != members:
                refined[row + (False,)] = members ^ inside
        classes = refined
    return classes


def maxsub_prop(x: PropTeam, lit: Formula) -> PropTeam:
    """Propositional variant of maxsub, over teams of assignments."""

    def kept(model: KripkeModel, team: frozenset[str], lit: Formula) -> PropTeam:
        alive = maxsub(model, team, lit)
        return x.subteam(a for a, w in zip(x.members, model.worlds) if w in alive)

    return _on_prop_team(x, lit, kept)


# ---------------------------------------------------------------------------
# The labelling fixpoint


class Labelling:
    """Final occurrence labels and the number of rounds it took to stabilize.

    ``labels`` maps occurrence id -> world set; it is converted from the
    fixpoint's masks on first access.
    """

    def __init__(self, index: WorldIndex, oids: list[int], masks: list[int], rounds: int):
        self.rounds = rounds
        self._index = index
        self._oids = oids
        self._masks = masks

    @cached_property
    def labels(self) -> dict[int, frozenset[str]]:
        return dict(zip(self._oids, map(self._index.names, self._masks)))


def _lower(ix: WorldIndex, f: Formula) -> tuple[list[int], list[tuple]]:
    """The occurrences of ``f`` (without inclusion parameters, which are not
    labelled) in post-order, as their ids and as ``(kind, slot, a, b)`` ops:
    a literal's ``a, b`` come from ``_lower_literal``, a connective's are its
    children's slots (``b`` unused for modalities)."""
    nodes = [node for _, node in sub_occurrences(f)]
    params = {p.oid for n in nodes if isinstance(n, Inclusion) for p in n.children()}
    slot: dict[int, int] = {}
    ops = []
    for n in nodes:
        if n.oid in params:
            continue
        s = slot[n.oid] = len(ops)
        if isinstance(n, LITERALS):
            kind, a, b = _lower_literal(ix, n)
            ops.append((kind, s, a, b))
        elif isinstance(n, And):
            ops.append((_AND, s, slot[n.left.oid], slot[n.right.oid]))
        elif isinstance(n, Or):
            ops.append((_OR, s, slot[n.left.oid], slot[n.right.oid]))
        else:
            ops.append((_DIAMOND if isinstance(n, Diamond) else _BOX, s, slot[n.child.oid], None))
    return list(slot), ops


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
    ix = m.index()
    team = ix.mask(m.team(t))
    oids, ops = _lower(ix, f)
    full, pre, image = ix.full, ix.pre, ix.image
    root = len(ops) - 1

    shown: dict[int, frozenset[str]] = {}  # mask -> names, one frozenset per distinct label
    older = None
    prev = [full] * len(ops)
    bound = 2 * max(1, len(m.worlds)) * max(1, len(ops)) + 4
    for i in range(1, bound + 1):
        cur = prev[:]
        if i % 2 == 1:
            for kind, s, a, b in ops:
                if kind == _CLIP:
                    cur[s] = prev[s] & a
                elif kind == _AND:
                    cur[s] = cur[a] & cur[b]
                elif kind == _OR:
                    cur[s] = cur[a] | cur[b]
                elif kind == _DIAMOND:
                    cur[s] = prev[s] & pre(cur[a])
                elif kind == _BOX:
                    cur[s] = prev[s] & ~pre(full & ~cur[a])
                else:
                    cur[s] = _literal(kind, prev[s], a, b)
        else:
            cur[root] = prev[root] & team
            for kind, s, a, b in reversed(ops):
                if kind == _AND:
                    cur[a] = cur[b] = cur[s]
                elif kind == _OR:
                    cur[a] = prev[a] & cur[s]
                    cur[b] = prev[b] & cur[s]
                elif kind >= _DIAMOND:
                    cur[a] = prev[a] & image(cur[s])
        if trace is not None:
            for mask in cur:
                if mask not in shown:
                    shown[mask] = ix.names(mask)
            trace(i, dict(zip(oids, map(shown.__getitem__, cur))))
        if older is not None and cur == prev == older:
            return Labelling(ix, oids, cur, i)
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
    root = lax_labelling(m, team, f, trace)._masks[-1]
    return root.bit_count() == len(team)  # the stable root label lies inside the team


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

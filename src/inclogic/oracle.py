"""Brute-force reference semantics, lax and strict.

These evaluators implement the defining team-semantics clauses by exhaustive
enumeration, with memoization on (occurrence id, team) but no algorithmic
shortcuts.  They are exponential and guarded to small instances; their only
job is to be obviously correct so the fast checkers can be tested against
them.

Clauses that differ between the two split rules:

* disjunction: lax allows any cover Y, Z of the team with Y u Z = X, strict
  additionally requires Y n Z to be empty;
* diamond: lax steps to any team T' with T[R]T' (every member of T has a
  successor in T', every member of T' a predecessor in T), strict steps to
  the image of a successor-choice function.

Box steps to the full successor image R[T] under both rules.  The empty team
satisfies every formula.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Sequence

from .errors import (
    FragmentError,
    ForeignWorldError,
    NotEmincError,
    SizeGuardError,
)
from .structures import Assignment, KripkeModel, PropTeam, r_image
from .syntax import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    Fragment,
    Inclusion,
    NegAtom,
    Or,
    fold,
    fragment,
    render_formula,
)


class Semantics(enum.Enum):
    """Which disjunction/diamond witnesses are admitted."""

    LAX = "lax"
    STRICT = "strict"


# ---------------------------------------------------------------------------
# Pointwise (single assignment / single world) evaluation


def eval_pl_tarski(s: Assignment, f: Formula) -> bool:
    """Classical single-assignment truth for propositional formulas."""

    def truth(node: Formula, kids: Sequence[bool]) -> bool:
        if isinstance(node, Atom):
            return s[node.name] == 1
        if isinstance(node, NegAtom):
            return s[node.name] == 0
        if isinstance(node, And):
            return kids[0] and kids[1]
        if isinstance(node, Or):
            return kids[0] or kids[1]
        raise FragmentError(f"propositional formula expected, got {render_formula(node)!r}")

    return fold(f, truth)


def ml_truth_set(m: KripkeModel, f: Formula) -> frozenset[str]:
    """The set of worlds where a plain modal-logic formula is true."""
    if fragment(f) not in (Fragment.PL, Fragment.ML):
        raise FragmentError(f"plain modal formula expected, got {render_formula(f)!r}")
    full = frozenset(m.worlds)

    def truth(node: Formula, kids: Sequence[frozenset[str]]) -> frozenset[str]:
        if isinstance(node, Atom):
            return m.extent(node.name)
        if isinstance(node, NegAtom):
            return full - m.extent(node.name)
        if isinstance(node, And):
            return kids[0] & kids[1]
        if isinstance(node, Or):
            return kids[0] | kids[1]
        if isinstance(node, Diamond):
            return frozenset(w for w in m.worlds if m.succ[w] & kids[0])
        return frozenset(w for w in m.worlds if m.succ[w] <= kids[0])

    return fold(f, truth)


def eval_ml_tarski(m: KripkeModel, world: str, f: Formula) -> bool:
    """Classical pointwise truth of a plain modal formula at one world."""
    if world not in m.succ:
        raise ForeignWorldError(f"unknown world {world!r}")
    return world in ml_truth_set(m, f)


# ---------------------------------------------------------------------------
# Propositional teams


def eval_inclusion_prop(x: PropTeam, lhs: list[str], rhs: list[str]) -> bool:
    """Inclusion atom over proposition tuples: every member's lhs value row
    appears as some member's rhs value row."""
    Inclusion([Atom(p) for p in lhs], [Atom(q) for q in rhs])  # arity validation
    realized = {a.project(rhs) for a in x.members}
    return all(a.project(lhs) in realized for a in x.members)


def _subsets(members: tuple) -> Iterable[frozenset]:
    for mask in range(2 ** len(members)):
        yield frozenset(members[i] for i in range(len(members)) if mask >> i & 1)


def eval_team_prop(x: PropTeam, f: Formula, mode: Semantics, *, max_team: int = 12) -> bool:
    """Exhaustive team satisfaction for PL / PLinc formulas."""
    frag = fragment(f)
    if frag not in (Fragment.PL, Fragment.PLINC):
        raise FragmentError(f"propositional (inclusion) formula expected, got {frag.value}")
    if len(x) > max_team:
        raise SizeGuardError(f"team of size {len(x)} exceeds the oracle guard of {max_team}")
    memo: dict[tuple, bool] = {}

    def sat(node: Formula, team: frozenset[Assignment]) -> bool:
        key = (node.oid, team)
        if key in memo:
            return memo[key]
        res = _sat_prop(node, team, sat, mode)
        memo[key] = res
        return res

    return sat(f, frozenset(x.members))


def _sat_prop(node, team, sat, mode):
    if isinstance(node, Atom):
        return all(a[node.name] == 1 for a in team)
    if isinstance(node, NegAtom):
        return all(a[node.name] == 0 for a in team)
    if isinstance(node, Inclusion):
        lhs = [p.name for p in node.lhs]
        rhs = [q.name for q in node.rhs]
        realized = {a.project(rhs) for a in team}
        return all(a.project(lhs) in realized for a in team)
    if isinstance(node, And):
        return sat(node.left, team) and sat(node.right, team)
    if isinstance(node, Or):
        members = tuple(sorted(team, key=lambda a: a.key()))
        for left_part in _subsets(members):
            if not sat(node.left, left_part):
                continue
            if mode is Semantics.STRICT:
                if sat(node.right, team - left_part):
                    return True
            else:
                rest = tuple(sorted(team - left_part, key=lambda a: a.key()))
                fixed = frozenset(rest)
                for extra in _subsets(tuple(sorted(left_part, key=lambda a: a.key()))):
                    if sat(node.right, fixed | extra):
                        return True
        return False
    raise FragmentError(f"unexpected node {render_formula(node)!r}")


# ---------------------------------------------------------------------------
# World teams


def eval_team_modal(
    m: KripkeModel,
    t: Iterable[str],
    f: Formula,
    mode: Semantics,
    *,
    max_worlds: int = 12,
    max_enum: int = 1_000_000,
) -> bool:
    """Exhaustive team satisfaction over a Kripke model.

    Handles every fragment up to extended modal inclusion logic; extended
    inclusion atoms are evaluated directly from the defining clause, not by
    substitution.  Guarded by model size and by an enumeration step bound for
    the strict diamond's choice functions.
    """
    if len(m.worlds) > max_worlds:
        raise SizeGuardError(
            f"model with {len(m.worlds)} worlds exceeds the oracle guard of {max_worlds}"
        )
    team = m.team(t)
    param_truth: dict[int, frozenset[str]] = {}
    memo: dict[tuple, bool] = {}

    def truth_of_param(p: Formula) -> frozenset[str]:
        if p.oid not in param_truth:
            if fragment(p) not in (Fragment.PL, Fragment.ML):
                raise NotEmincError(
                    f"inclusion parameters must be plain modal formulas, got {render_formula(p)!r}"
                )
            param_truth[p.oid] = ml_truth_set(m, p)
        return param_truth[p.oid]

    def sat(node: Formula, tm: frozenset[str]) -> bool:
        key = (node.oid, tm)
        if key in memo:
            return memo[key]
        res = _sat_modal(node, tm)
        memo[key] = res
        return res

    def _sat_modal(node: Formula, tm: frozenset[str]) -> bool:
        if isinstance(node, Atom):
            return all(m.truth(node.name, w) for w in tm)
        if isinstance(node, NegAtom):
            return all(not m.truth(node.name, w) for w in tm)
        if isinstance(node, Inclusion):
            lhs_sets = [truth_of_param(p) for p in node.lhs]
            rhs_sets = [truth_of_param(p) for p in node.rhs]
            realized = {tuple(w in s for s in rhs_sets) for w in tm}
            return all(tuple(w in s for s in lhs_sets) in realized for w in tm)
        if isinstance(node, And):
            return sat(node.left, tm) and sat(node.right, tm)
        if isinstance(node, Or):
            members = tuple(sorted(tm))
            for left_part in _subsets(members):
                if not sat(node.left, left_part):
                    continue
                if mode is Semantics.STRICT:
                    if sat(node.right, tm - left_part):
                        return True
                else:
                    fixed = tm - left_part
                    for extra in _subsets(tuple(sorted(left_part))):
                        if sat(node.right, fixed | extra):
                            return True
            return False
        if isinstance(node, Diamond):
            if mode is Semantics.LAX:
                image = tuple(sorted(r_image(m, tm)))
                for nxt in _subsets(image):
                    if all(m.succ[w] & nxt for w in tm) and sat(node.child, nxt):
                        return True
                return False
            worlds = sorted(tm)
            succ_lists = [sorted(m.succ[w]) for w in worlds]
            if any(not s for s in succ_lists):
                return False
            seen: set[frozenset] = set()
            steps = 0
            for choice in itertools.product(*succ_lists):
                steps += 1
                if steps > max_enum:
                    raise SizeGuardError(
                        f"strict diamond enumeration exceeded {max_enum} choice functions"
                    )
                image = frozenset(choice)
                if image in seen:
                    continue
                seen.add(image)
                if sat(node.child, image):
                    return True
            return False
        if isinstance(node, Box):
            return sat(node.child, r_image(m, tm))
        raise FragmentError(f"unexpected node {render_formula(node)!r}")

    return sat(f, team)

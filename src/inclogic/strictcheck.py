"""Backtracking model checking under strict semantics.

Strict disjunction splits the team into two disjoint parts and strict
diamond steps to the image of a successor-choice function, so the checker
guesses: disjunction enumerates bipartitions with the left part growing by
popcount (flat witnesses are found fast), diamond enumerates choice
functions in lexicographic world order with duplicate images skipped.  Box
is deterministic (the full successor image) and atoms are polynomial.
Results are memoized per (occurrence id, team).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Iterable

from .errors import SizeGuardError
from .laxcheck import _on_prop_team, eminc_preprocess
from .structures import KripkeModel, PropTeam, r_image
from .syntax import LITERALS, And, Atom, Diamond, Formula, NegAtom, Or


@dataclass
class SearchStats:
    """Search states visited: distinct (occurrence, team) pairs evaluated
    plus distinct diamond images tried."""

    explored: int = 0


def strict_check(
    m: KripkeModel,
    t: Iterable[str],
    f: Formula,
    *,
    max_team: int = 16,
    max_states: int = 10_000_000,
    stats: SearchStats | None = None,
) -> bool:
    """Decide strict team satisfaction by backtracking search.

    Extended inclusion atoms are eliminated up front via eminc_preprocess.
    Raises SizeGuardError when a team exceeds ``max_team`` or the search
    visits more than ``max_states`` states.
    """
    m, f = eminc_preprocess(m, f)
    team = m.team(t)
    if stats is None:
        stats = SearchStats()
    memo: dict[tuple, bool] = {}

    def literal_holds(node: Formula, tm: frozenset[str]) -> bool:
        if isinstance(node, Atom):
            return all(m.truth(node.name, w) for w in tm)
        if isinstance(node, NegAtom):
            return all(not m.truth(node.name, w) for w in tm)
        lhs = [p.name for p in node.lhs]
        rhs = [q.name for q in node.rhs]
        realized = {tuple(1 if m.truth(q, w) else 0 for q in rhs) for w in tm}
        return all(tuple(1 if m.truth(p, w) else 0 for p in lhs) in realized for w in tm)

    def sat(node: Formula, tm: frozenset[str]) -> bool:
        if len(tm) > max_team:
            raise SizeGuardError(f"team of size {len(tm)} exceeds the strict guard of {max_team}")
        key = (node.oid, tm)
        if key in memo:
            return memo[key]
        stats.explored += 1
        if stats.explored > max_states:
            raise SizeGuardError(f"strict search exceeded {max_states} states")
        memo[key] = res = _sat(node, tm)
        return res

    def _sat(node: Formula, tm: frozenset[str]) -> bool:
        if isinstance(node, LITERALS):
            return literal_holds(node, tm)
        if isinstance(node, And):
            # cheap contradictions first
            parts = sorted(node.children(), key=lambda c: not isinstance(c, LITERALS))
            return all(sat(c, tm) for c in parts)
        if isinstance(node, Or):
            members = sorted(tm)
            for size in range(len(members) + 1):
                for combo in itertools.combinations(members, size):
                    left_part = frozenset(combo)
                    if sat(node.left, left_part) and sat(node.right, tm - left_part):
                        return True
            return False
        if isinstance(node, Diamond):
            worlds = sorted(tm)
            succ_lists = [sorted(m.succ[w]) for w in worlds]
            if any(not s for s in succ_lists):
                return False
            seen: set[frozenset] = set()
            for choice in itertools.product(*succ_lists):
                image = frozenset(choice)
                if image in seen:
                    continue
                seen.add(image)
                stats.explored += 1
                if stats.explored > max_states:
                    raise SizeGuardError(f"strict search exceeded {max_states} states")
                if sat(node.child, image):
                    return True
            return False
        # Box
        return sat(node.child, r_image(m, tm))

    return sat(f, team)


def strict_check_prop(
    x: PropTeam,
    f: Formula,
    *,
    max_team: int = 16,
    max_states: int = 10_000_000,
    stats: SearchStats | None = None,
) -> bool:
    """Strict checking over a propositional team via the one-layer embedding."""
    check = partial(strict_check, max_team=max_team, max_states=max_states, stats=stats)
    return _on_prop_team(x, f, check)

"""Validity procedures and validity-preserving translations.

Propositional inclusion logic validity reduces to classical propositional
validity: on singleton teams the lax and strict split rules coincide, a
formula that holds on every singleton holds on every team (strictly by
lifting singletons, laxly by union closure), and over a singleton team an
inclusion atom ``[a1..an <= b1..bn]`` just says that each pair of sides has
equal truth value.  So every inclusion atom is replaced by the conjunction
of per-index biconditionals and the result is checked classically.

Extended modal inclusion logic validity translates into the non-extended
fragment by naming parameters: fresh propositions are forced equivalent to
their parameters at every depth up to the modal depth, and the formula may
either fail that forcing somewhere or hold with parameters replaced by their
names.

Modal validity itself is only attacked by bounded counterexample search over
all small models, which can refute but never certify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import FragmentError, SizeGuardError
from .laxcheck import eminc_preprocess, lax_check
from .oracle import Semantics, eval_pl_tarski
from .strictcheck import strict_check
from .structures import Assignment, KripkeModel, PropTeam
from .syntax import (
    And,
    Atom,
    Formula,
    Fragment,
    Inclusion,
    NegAtom,
    Or,
    box_power,
    conjoin,
    extended_params,
    fold,
    fragment,
    fresh_props,
    modal_depth,
    nnf_negate,
    props,
    rebuild,
    renumbered,
    substitute_params,
)

VALID = "valid"
INVALID = "invalid"
UNKNOWN = "unknown"


@dataclass
class Verdict:
    """Outcome of a validity procedure.

    ``witness`` is a falsifying structure for INVALID verdicts: an
    Assignment or singleton PropTeam propositionally, a (model, team) pair
    modally.  ``bound`` records the search bound for UNKNOWN verdicts.
    """

    status: str
    witness: object | None = None
    bound: tuple[int, int] | None = None

    def __bool__(self):
        return self.status == VALID


# ---------------------------------------------------------------------------
# Propositional validity via singleton teams


def inclusion_to_pl_singleton(atom: Inclusion) -> Formula:
    """The singleton-team equivalent of a plain propositional inclusion atom:
    a conjunction of per-index biconditionals (a_i & b_i) | (!a_i & !b_i)."""
    pairs = []
    for p, q in zip(atom.lhs, atom.rhs):
        if not isinstance(p, Atom) or not isinstance(q, Atom):
            raise FragmentError("plain propositional inclusion atom expected")
        pairs.append(
            Or(And(Atom(p.name), Atom(q.name)), And(NegAtom(p.name), NegAtom(q.name)))
        )
    return conjoin(pairs)


def plinc_to_pl(f: Formula) -> Formula:
    """Replace every inclusion atom by its singleton-team translation."""
    if fragment(f) not in (Fragment.PL, Fragment.PLINC):
        raise FragmentError("propositional (inclusion) formula expected")

    def translated(node: Formula, kids: Sequence[Formula]) -> Formula:
        if isinstance(node, Inclusion):
            return inclusion_to_pl_singleton(node)
        return rebuild(node, kids)

    return renumbered(fold(f, translated))


def pl_validity(f: Formula, *, max_vars: int = 24) -> Verdict:
    """Exhaustive classical validity for propositional formulas."""
    if fragment(f) is not Fragment.PL:
        raise FragmentError("plain propositional formula expected")
    names = sorted(props(f))
    if len(names) > max_vars:
        raise SizeGuardError(f"{len(names)} variables exceed the guard of {max_vars}")
    for bits in itertools.product((0, 1), repeat=len(names)):
        s = Assignment(dict(zip(names, bits)))
        if not eval_pl_tarski(s, f):
            return Verdict(INVALID, witness=s)
    return Verdict(VALID)


def plinc_strict_validity(f: Formula, *, max_vars: int = 24) -> Verdict:
    """Validity of a propositional inclusion-logic formula under strict
    semantics; an INVALID verdict carries a falsifying singleton team.

    It decides lax validity too: lax and strict coincide on singleton teams,
    and lax satisfaction is union closed, so validity reduces to singleton
    teams under both split rules.
    """
    star = plinc_to_pl(f)
    inner = pl_validity(star, max_vars=max_vars)
    if inner.status == VALID:
        return Verdict(VALID)
    domain = sorted(props(f))
    witness = PropTeam(domain, [inner.witness])
    return Verdict(INVALID, witness=witness)


# ---------------------------------------------------------------------------
# Extended-to-plain translation preserving validity


def eminc_val_to_minc(f: Formula) -> Formula:
    """Translate an extended modal inclusion formula into a non-extended one
    with the same validity status.

    Each distinct non-atomic parameter gets a fresh proposition; the output
    says the biconditionals fail somewhere up to the modal depth, or they all
    hold and the formula with parameters renamed holds.  Formulas without
    extended atoms come back unchanged.
    """
    params = extended_params(f)
    if not params:
        return f
    names = fresh_props("f", len(params), props(f))
    mapping = {str(p): name for p, name in zip(params, names)}
    depth = modal_depth(f)

    biconds = []
    for p, name in zip(params, names):
        biconds.append(And(Or(NegAtom(name), p), Or(Atom(name), nnf_negate(p))))
    block = conjoin(biconds)
    forcing = conjoin(box_power(block, i) for i in range(depth + 1))
    renamed = substitute_params(f, mapping)
    out = Or(nnf_negate(forcing), And(forcing, renamed))
    return renumbered(out)


# ---------------------------------------------------------------------------
# Bounded counterexample search


@lru_cache(maxsize=None)
def _canonical_edge_masks(n: int) -> tuple[int, ...]:
    """Adjacency bitmasks of n-world digraphs, one representative per
    relabelling class (the lexicographically least mask)."""
    perms = list(itertools.permutations(range(n)))

    def permuted(mask: int, perm) -> int:
        out = 0
        for i in range(n):
            for j in range(n):
                if mask >> (i * n + j) & 1:
                    out |= 1 << (perm[i] * n + perm[j])
        return out

    keep = []
    for mask in range(2 ** (n * n)):
        if all(permuted(mask, p) >= mask for p in perms):
            keep.append(mask)
    return tuple(keep)


def _bounded_models(signature: list[str], n: int):
    worlds = [f"u{i}" for i in range(n)]
    for emask in _canonical_edge_masks(n):
        edges = [
            (worlds[i], worlds[j])
            for i in range(n)
            for j in range(n)
            if emask >> (i * n + j) & 1
        ]
        for vbits in itertools.product(range(2**n), repeat=len(signature)):
            valuation = {
                p: [worlds[i] for i in range(n) if bits >> i & 1]
                for p, bits in zip(signature, vbits)
            }
            yield KripkeModel(worlds, edges, valuation)


def minc_bounded_counterexample(
    f: Formula,
    max_worlds: int = 3,
    max_team: int = 4,
    mode: Semantics = Semantics.LAX,
) -> Verdict:
    """Search all models with up to ``max_worlds`` worlds (one representative
    per relabelling class) for a team falsifying the formula.

    Under lax semantics only singleton teams are tried: lax satisfaction is
    union closed, so a failing team always contains a failing singleton in
    the same model.  Under strict semantics all non-empty teams up to
    ``max_team`` members are tried, smallest first.  Returns INVALID with a
    (model, team) witness, or UNKNOWN at the given bound.
    """
    if max_worlds > 5:
        raise SizeGuardError("bounded search beyond 5 worlds is not supported")
    signature = sorted(props(f))
    check = lax_check if mode is Semantics.LAX else strict_check
    for n in range(1, max_worlds + 1):
        sizes = range(1, 2 if mode is Semantics.LAX else min(max_team, n) + 1)
        for model in _bounded_models(signature, n):
            cmodel, cf = eminc_preprocess(model, f)
            for size in sizes:
                for team in itertools.combinations(model.worlds, size):
                    if not check(cmodel, team, cf):
                        witness = (model, frozenset(team))
                        return Verdict(INVALID, witness=witness, bound=(max_worlds, max_team))
    return Verdict(UNKNOWN, bound=(max_worlds, max_team))

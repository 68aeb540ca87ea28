"""Formula syntax: AST, parser, printer, and basic formula utilities.

Concrete grammar (ASCII, whitespace-insensitive)::

    formula  := disj
    disj     := conj ('|' conj)*
    conj     := unary ('&' unary)*
    unary    := '<>' unary | '[]' unary | primary
    primary  := ident | '!' ident | '(' formula ')' | incl
    incl     := '[' flist '<=' flist ']'
    flist    := formula (',' formula)*
    ident    := [A-Za-z_][A-Za-z0-9_]*

'&' binds tighter than '|', both are left associative, and the modalities
'<>' (diamond) and '[]' (box) bind tighter than both.  Negation applies to
proposition symbols only, so ``!(p & q)`` is a syntax error and every formula
is in negation normal form by construction.  ``[p,q <= r,s]`` is an inclusion
atom whose two parameter lists must have equal, positive length; parameters
may be arbitrary formulas (the extended fragment), plain proposition symbols
in the non-extended fragments.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Iterable, Sequence

from .errors import ArityError, NotEmincError, NotMlError, ParseError

_ids = itertools.count()


class Fragment(enum.Enum):
    """Syntactic fragments, from plain propositional up to extended modal."""

    PL = "PL"
    PLINC = "PLinc"
    ML = "ML"
    MINC = "Minc"
    EMINC = "EMinc"


class Formula:
    """Base class of all formula nodes.

    Every node carries a unique integer occurrence id (``oid``) so that equal
    subformulas at different positions stay distinguishable, e.g. as keys of
    labelling tables.  Structural equality and hashing ignore occurrence ids:
    they compare the post-order sequence of (class, name or child count),
    which determines the tree.
    """

    __slots__ = ("oid", "_fragment", "_postorder")

    def __init__(self):
        self.oid = next(_ids)
        self._fragment = None
        self._postorder = None

    def children(self) -> tuple["Formula", ...]:
        return ()

    def __eq__(self, other):
        return isinstance(other, Formula) and _shape(self) == _shape(other)

    def __hash__(self):
        return hash(_shape(self))

    def __str__(self) -> str:
        return render_formula(self)

    def __repr__(self) -> str:
        return render_formula(self)


class Atom(Formula):
    """A proposition symbol."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name


class NegAtom(Formula):
    """A negated proposition symbol (negation exists only at this level)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        super().__init__()
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)


class Or(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        super().__init__()
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)


class Diamond(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        super().__init__()
        self.child = child

    def children(self):
        return (self.child,)


class Box(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        super().__init__()
        self.child = child

    def children(self):
        return (self.child,)


class Inclusion(Formula):
    """An inclusion atom ``[a1,..,an <= b1,..,bn]``.

    Satisfied by a team when every member's tuple of left-hand values is also
    realized as some member's tuple of right-hand values.
    """

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Iterable[Formula], rhs: Iterable[Formula]):
        super().__init__()
        lhs = tuple(lhs)
        rhs = tuple(rhs)
        if not lhs or not rhs:
            raise ArityError("inclusion atom parameter lists must be non-empty")
        if len(lhs) != len(rhs):
            raise ArityError(
                f"inclusion atom sides must have equal length, got {len(lhs)} and {len(rhs)}"
            )
        self.lhs = lhs
        self.rhs = rhs

    def children(self):
        return self.lhs + self.rhs


LITERALS = (Atom, NegAtom, Inclusion)


# ---------------------------------------------------------------------------
# Parsing


def _tokenize(text: str) -> list[tuple[str, int, str]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "<":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == ">":
                tokens.append(("<>", i, "<>"))
                i += 2
                continue
            if nxt == "=":
                tokens.append(("<=", i, "<="))
                i += 2
                continue
            raise ParseError("expected '<>' or '<='", i)
        if c == "[" and i + 1 < n and text[i + 1] == "]":
            tokens.append(("[]", i, "[]"))
            i += 2
            continue
        if c in "&|!()[],":
            tokens.append((c, i, c))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", i, text[i:j]))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", n, ""))
    return tokens


_MODALITIES = {"<>": Diamond, "[]": Box}


class _Group:
    """An open '(' or '[', or the whole input (opener None): the disjunction
    and conjunction read so far and, in an inclusion atom, the parameters
    read so far with the index where the right-hand side starts."""

    __slots__ = ("opener", "mods", "disj", "conj", "params", "split")

    def __init__(self, opener, mods: range):
        self.opener = opener
        self.mods = mods  # token positions of the modalities in front of it
        self.disj = self.conj = self.split = None
        self.params: list[Formula] = []


class _Parser:
    """Reads the grammar with an explicit stack of open groups, so nesting
    depth is bounded by memory, not by Python's recursion limit."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            got = tok[2] or "end of input"
            raise ParseError(f"expected {kind!r}, got {got!r}", tok[1])
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        tokens = self.tokens
        stack = [_Group(None, range(0))]
        while True:
            start = self.pos
            while tokens[self.pos][0] in _MODALITIES:
                self.pos += 1
            mods = range(start, self.pos)
            tok = tokens[self.pos]
            if tok[0] in ("(", "["):
                self.pos += 1
                stack.append(_Group(tok, mods))
                continue
            f = self.wrap(self.literal(), mods)
            while (f := self.add(stack[-1], f)) is not None:  # f closed the group
                group = stack.pop()
                if not stack:
                    return f
                f = self.wrap(f, group.mods)

    def wrap(self, f: Formula, mods: range) -> Formula:
        for i in reversed(mods):  # innermost first
            f = _MODALITIES[self.tokens[i][0]](f)
        return f

    def literal(self) -> Formula:
        tok = self.tokens[self.pos]
        if tok[0] == "ident":
            self.pos += 1
            return Atom(tok[2])
        if tok[0] == "!":
            self.pos += 1
            return NegAtom(self.take("ident")[2])
        got = tok[2] or "end of input"
        raise ParseError(f"expected a formula, got {got!r}", tok[1])

    def add(self, group: _Group, f: Formula) -> Formula | None:
        """Add an operand to the innermost group.  Return the group's formula
        if the next token closes the group, else take the separator and
        return None."""
        group.conj = f if group.conj is None else And(group.conj, f)
        kind = self.tokens[self.pos][0]
        if kind == "&":
            self.pos += 1
            return None
        group.disj = group.conj if group.disj is None else Or(group.disj, group.conj)
        group.conj = None
        if kind == "|":
            self.pos += 1
            return None
        f, group.disj = group.disj, None
        if group.opener is None:
            if kind != "eof":
                tok = self.tokens[self.pos]
                raise ParseError(f"unexpected trailing input {tok[2]!r}", tok[1])
            return f
        if group.opener[0] == "(":
            self.take(")")
            return f
        group.params.append(f)
        if kind == "," or (kind == "<=" and group.split is None):
            if kind == "<=":
                group.split = len(group.params)
            self.pos += 1
            return None
        self.take("<=" if group.split is None else "]")
        lhs, rhs = group.params[: group.split], group.params[group.split:]
        if len(lhs) != len(rhs):
            raise ParseError(
                f"inclusion atom sides must have equal length, got {len(lhs)} and {len(rhs)}",
                group.opener[1],
            )
        return Inclusion(lhs, rhs)


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST with occurrence ids 0..n-1 assigned in
    bottom-up, left-to-right order."""
    f = _numbered(_Parser(_tokenize(text)).parse())
    fragment(f)
    return f


def render_formula(f: Formula) -> str:
    """Render an AST back to concrete syntax; binary connectives are always
    parenthesized, so parsing the result reproduces the same structure."""
    return fold(f, _render)


def _render(node: Formula, kids: Sequence[str]) -> str:
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, NegAtom):
        return "!" + node.name
    if isinstance(node, And):
        return f"({kids[0]} & {kids[1]})"
    if isinstance(node, Or):
        return f"({kids[0]} | {kids[1]})"
    if isinstance(node, Diamond):
        return "<>" + kids[0]
    if isinstance(node, Box):
        return "[]" + kids[0]
    arity = len(node.lhs)
    return f"[{','.join(kids[:arity])} <= {','.join(kids[arity:])}]"


# ---------------------------------------------------------------------------
# The tree traversal and the utilities built on it


def postorder(f: Formula) -> tuple[Formula, ...]:
    """Every node of the tree, children before parents, left to right.

    Computed without recursion and cached on ``f``.  A node object that
    appears at several positions is listed once per position.
    """
    if f._postorder is None:
        out = []
        stack = [f]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children())
        f._postorder = tuple(reversed(out))
    return f._postorder


def fold(f: Formula, combine: Callable[[Formula, Sequence], object]):
    """Compute ``combine(node, child_values)`` bottom-up, once per tree
    position, and return the root's value."""
    values: list = []
    for node in postorder(f):
        arity = len(node.children())
        if arity:
            kids = values[-arity:]
            del values[-arity:]
        else:
            kids = ()
        values.append(combine(node, kids))
    return values[0]


def rebuild(node: Formula, kids: Sequence[Formula]) -> Formula:
    """A fresh copy of ``node`` over the new children ``kids``."""
    if isinstance(node, (Atom, NegAtom)):
        return type(node)(node.name)
    if isinstance(node, Inclusion):
        return Inclusion(kids[: len(node.lhs)], kids[len(node.lhs):])
    return type(node)(*kids)


def _shape(f: Formula) -> tuple:
    return tuple(
        (type(n), n.name if isinstance(n, (Atom, NegAtom)) else len(n.children()))
        for n in postorder(f)
    )


def renumbered(f: Formula) -> Formula:
    """Rebuild a formula with occurrence ids 0..n-1 in bottom-up,
    left-to-right order.

    The rebuild also copies apart any node objects that appear at several
    positions, so the result is always a proper tree with unique ids.
    """
    return _numbered(fold(f, rebuild))


def _numbered(f: Formula) -> Formula:
    """Set occurrence ids 0..n-1 in post-order on a tree without shared nodes."""
    for oid, node in enumerate(postorder(f)):
        node.oid = oid
    return f


def sub_occurrences(f: Formula) -> list[tuple[int, Formula]]:
    """All nodes of the tree as (occurrence id, node) pairs, children before
    parents, left to right."""
    out = [(node.oid, node) for node in postorder(f)]
    if len({oid for oid, _ in out}) != len(out):
        raise ValueError("formula tree reuses node objects; pass it through renumbered() first")
    return out


def props(f: Formula) -> set[str]:
    """All proposition symbols occurring anywhere in the formula."""
    return {n.name for n in postorder(f) if isinstance(n, (Atom, NegAtom))}


def modal_depth(f: Formula) -> int:
    """Maximum nesting depth of modalities; inclusion parameters count."""
    return fold(f, lambda node, kids: max(kids, default=0) + isinstance(node, (Diamond, Box)))


def fragment(f: Formula) -> Fragment:
    """Classify a formula into the smallest fragment containing it.

    Formulas whose inclusion parameters are not all plain proposition symbols
    are classified EMinc, including malformed ones with nested inclusion
    atoms inside parameters; those are rejected later, by NotEmincError, when
    the parameters are actually used.
    """
    if f._fragment is None:
        f._fragment = _classify(postorder(f))
    return f._fragment


def _classify(nodes: tuple[Formula, ...]) -> Fragment:
    modal = any(isinstance(n, (Diamond, Box)) for n in nodes)
    atoms = [n for n in nodes if isinstance(n, Inclusion)]
    if any(not isinstance(p, Atom) for atom in atoms for p in atom.children()):
        return Fragment.EMINC
    if atoms:
        return Fragment.MINC if modal else Fragment.PLINC
    return Fragment.ML if modal else Fragment.PL


_DUALS = {Atom: NegAtom, NegAtom: Atom, And: Or, Or: And, Diamond: Box, Box: Diamond}


def nnf_negate(f: Formula) -> Formula:
    """Negate a plain modal-logic formula, pushing negation to the atoms."""

    def flipped(node: Formula, kids: Sequence[Formula]) -> Formula:
        dual = _DUALS.get(type(node))
        if dual is None:
            raise NotMlError("negation is only defined for formulas without inclusion atoms")
        return dual(*kids) if kids else dual(node.name)

    return fold(f, flipped)


def fresh_props(base: str, count: int, avoid: Iterable[str]) -> list[str]:
    """``count`` proposition names of the form base0, base1, ..., skipping
    any that collide with ``avoid``."""
    avoid = set(avoid)
    out: list[str] = []
    for i in itertools.count():
        if len(out) == count:
            break
        name = f"{base}{i}"
        if name not in avoid:
            out.append(name)
    return out


# ---------------------------------------------------------------------------
# Small constructors used by translations and encoders


def conjoin(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction of a non-empty sequence."""
    parts = list(parts)
    if not parts:
        raise ValueError("empty conjunction")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disjoin(parts: Iterable[Formula]) -> Formula:
    """Left-associated disjunction of a non-empty sequence."""
    parts = list(parts)
    if not parts:
        raise ValueError("empty disjunction")
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def box_power(f: Formula, n: int) -> Formula:
    for _ in range(n):
        f = Box(f)
    return f


def diamond_power(f: Formula, n: int) -> Formula:
    for _ in range(n):
        f = Diamond(f)
    return f


# ---------------------------------------------------------------------------
# Extended inclusion atoms: shared parameter plumbing


def extended_params(f: Formula) -> list[Formula]:
    """The distinct non-atomic inclusion parameters of ``f``, in order of
    first occurrence.

    Parameters must be plain modal-logic formulas; a nested inclusion atom
    inside a parameter raises NotEmincError.  Duplicates are identified by
    rendered text.
    """
    seen: dict[str, Formula] = {}
    for node in postorder(f):
        if not isinstance(node, Inclusion):
            continue
        for p in node.children():
            if isinstance(p, Atom):
                continue
            if any(isinstance(n, Inclusion) for n in postorder(p)):
                raise NotEmincError(
                    "inclusion parameters must be plain modal formulas, "
                    f"got {render_formula(p)!r}"
                )
            seen.setdefault(render_formula(p), p)
    return list(seen.values())


def substitute_params(f: Formula, mapping: dict[str, str]) -> Formula:
    """Replace non-atomic inclusion parameters by proposition symbols.

    ``mapping`` sends a parameter's rendered text to the replacement name.
    The result is rebuilt with fresh occurrence ids.
    """

    def named(node: Formula, kids: Sequence[Formula]) -> Formula:
        if isinstance(node, Inclusion):
            kids = [
                Atom(p.name if isinstance(p, Atom) else mapping[render_formula(p)])
                for p in node.children()
            ]
        return rebuild(node, kids)

    return renumbered(fold(f, named))

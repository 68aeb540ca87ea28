"""Assignments, teams, Kripke models, and the team image operators.

A propositional team is a duplicate-free set of assignments over a shared
proposition domain.  A modal team is a set of worlds of a Kripke model; in
code, world teams are plain frozensets of world names.  The lax checker works
on a model's ``WorldIndex`` instead, where a set of worlds is a Python-int
bitmask.
"""

from __future__ import annotations

import itertools
import json
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Mapping

from .errors import ForeignWorldError, InputError, SizeGuardError, UnboundPropError

WorldTeam = frozenset  # teams of worlds are frozensets of world names


class Assignment:
    """A total 0/1 assignment over a fixed finite proposition domain."""

    __slots__ = ("_vals",)

    def __init__(self, values: Mapping[str, int]):
        vals = {}
        for prop, bit in values.items():
            if bit not in (0, 1, True, False):
                raise ValueError(f"assignment values must be 0 or 1, got {bit!r} for {prop!r}")
            vals[prop] = int(bit)
        self._vals = dict(sorted(vals.items()))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self._vals)

    def __getitem__(self, prop: str) -> int:
        try:
            return self._vals[prop]
        except KeyError:
            raise UnboundPropError(f"proposition {prop!r} is outside the assignment domain") from None

    def project(self, order: Iterable[str]) -> tuple[int, ...]:
        """Values as a tuple following the given proposition order."""
        return tuple(self[p] for p in order)

    def key(self) -> tuple:
        return tuple(self._vals.items())

    def __eq__(self, other):
        return isinstance(other, Assignment) and self._vals == other._vals

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        inner = " ".join(f"{p}={v}" for p, v in self._vals.items())
        return f"<{inner}>"


class PropTeam:
    """A duplicate-free team of assignments over a common domain.

    Members are kept in a canonical order (lexicographic by value row over
    the sorted domain) so that output and iteration are deterministic.
    """

    __slots__ = ("domain", "members")

    def __init__(self, domain: Iterable[str], assignments: Iterable[Assignment]):
        domain = tuple(domain)
        if len(set(domain)) != len(domain):
            raise ValueError("team domain contains duplicate propositions")
        dset = frozenset(domain)
        unique: dict[tuple, Assignment] = {}
        for a in assignments:
            if a.domain != dset:
                raise UnboundPropError(
                    f"assignment domain {sorted(a.domain)} does not match team domain {sorted(dset)}"
                )
            unique[a.key()] = a
        order = sorted(dset)
        self.domain = domain
        self.members = tuple(sorted(unique.values(), key=lambda a: a.project(order)))

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, a):
        return a in self.members

    def __eq__(self, other):
        return (
            isinstance(other, PropTeam)
            and frozenset(self.domain) == frozenset(other.domain)
            and self.members == other.members
        )

    def __hash__(self):
        return hash((frozenset(self.domain), self.members))

    def subteam(self, members: Iterable[Assignment]) -> "PropTeam":
        return PropTeam(self.domain, members)

    def __repr__(self):
        return f"PropTeam({list(self.members)!r})"


class KripkeModel:
    """A finite Kripke model: worlds, directed edges, and a valuation.

    The valuation's keys form the model signature; querying a proposition
    outside the signature raises UnboundPropError.
    """

    __slots__ = ("worlds", "edges", "valuation", "succ", "pred", "_index")

    def __init__(
        self,
        worlds: Iterable[str],
        edges: Iterable[tuple[str, str]],
        valuation: Mapping[str, Iterable[str]],
    ):
        worlds = tuple(worlds)
        if len(set(worlds)) != len(worlds):
            raise ValueError("model contains duplicate world names")
        wset = frozenset(worlds)
        succ: dict[str, set[str]] = {w: set() for w in worlds}
        pred: dict[str, set[str]] = {w: set() for w in worlds}
        eset = set()
        for u, v in edges:
            if u not in wset or v not in wset:
                raise ForeignWorldError(f"edge ({u!r}, {v!r}) references unknown worlds")
            eset.add((u, v))
            succ[u].add(v)
            pred[v].add(u)
        val: dict[str, frozenset[str]] = {}
        for prop, extent in valuation.items():
            extent = frozenset(extent)
            bad = extent - wset
            if bad:
                raise ForeignWorldError(f"valuation of {prop!r} references unknown worlds {sorted(bad)}")
            val[prop] = extent
        self.worlds = worlds
        self.edges = frozenset(eset)
        self.valuation = val
        self.succ = {w: frozenset(s) for w, s in succ.items()}
        self.pred = {w: frozenset(s) for w, s in pred.items()}
        self._index = None

    @property
    def signature(self) -> frozenset[str]:
        return frozenset(self.valuation)

    def extent(self, prop: str) -> frozenset[str]:
        """The worlds where ``prop`` is true."""
        try:
            return self.valuation[prop]
        except KeyError:
            raise UnboundPropError(f"proposition {prop!r} is outside the model signature") from None

    def truth(self, prop: str, world: str) -> bool:
        if world not in self.succ:
            raise ForeignWorldError(f"unknown world {world!r}")
        return world in self.extent(prop)

    def team(self, worlds: Iterable[str]) -> frozenset[str]:
        """Validate a collection of world names as a team of this model."""
        team = frozenset(worlds)
        if not team <= self.succ.keys():  # succ has every world as a key
            bad = sorted(team - self.succ.keys())
            raise ForeignWorldError(f"team references unknown worlds {bad}")
        return team

    def index(self) -> "WorldIndex":
        """The model's bitmask index, built on first use and kept."""
        if self._index is None:
            self._index = WorldIndex(self)
        return self._index

    def __repr__(self):
        return f"KripkeModel(|W|={len(self.worlds)}, |R|={len(self.edges)})"


_BITS = bytes.maketrans(b"01", b"\x00\x01")


class WorldIndex:
    """A model's worlds as Python-int bitmasks: bit i is ``m.worlds[i]``.

    Holds one extent mask per proposition and one successor and one
    predecessor mask per world, so that a set of worlds is one int and the
    modal steps are ORs over its set bits.
    """

    __slots__ = ("worlds", "full", "_bit", "_ext", "_succ", "_pred")

    def __init__(self, m: KripkeModel):
        self.worlds = m.worlds
        self.full = (1 << len(m.worlds)) - 1
        self._bit = {w: 1 << i for i, w in enumerate(m.worlds)}
        self._ext = {p: self.mask(ws) for p, ws in m.valuation.items()}
        self._succ = [self.mask(m.succ[w]) for w in m.worlds]
        self._pred = [self.mask(m.pred[w]) for w in m.worlds]

    def mask(self, worlds: Iterable[str]) -> int:
        """The mask of a set of (already validated) world names."""
        return sum(map(self._bit.__getitem__, worlds))

    def names(self, mask: int) -> frozenset[str]:
        """The world names of a mask."""
        return frozenset(itertools.compress(self.worlds, _bits(mask)))

    def extent(self, prop: str) -> int:
        """The mask of the worlds where ``prop`` is true."""
        try:
            return self._ext[prop]
        except KeyError:
            raise UnboundPropError(f"proposition {prop!r} is outside the model signature") from None

    def pre(self, mask: int) -> int:
        """Every world with a successor in ``mask``."""
        return reduce(or_, itertools.compress(self._pred, _bits(mask)), 0)

    def image(self, mask: int) -> int:
        """Every successor of a world in ``mask``: R[mask]."""
        return reduce(or_, itertools.compress(self._succ, _bits(mask)), 0)


def _bits(mask: int) -> bytes:
    """One byte per bit of ``mask``, lowest bit first: 1 where set, else 0."""
    return bin(mask)[:1:-1].encode().translate(_BITS)


def r_image(m: KripkeModel, team: Iterable[str]) -> frozenset[str]:
    """All successors of team members: R[T]."""
    team = m.team(team)
    out: set[str] = set()
    for w in team:
        out |= m.succ[w]
    return frozenset(out)


def all_assignments(domain: Iterable[str], max_count: int = 2**20) -> list[Assignment]:
    """Every assignment over the domain, in binary counting order."""
    domain = tuple(domain)
    if 2 ** len(domain) > max_count:
        raise SizeGuardError(
            f"2^{len(domain)} assignments exceed the enumeration guard of {max_count}"
        )
    out = []
    for bits in itertools.product((0, 1), repeat=len(domain)):
        out.append(Assignment(dict(zip(domain, bits))))
    return out


# ---------------------------------------------------------------------------
# JSON-shaped (de)serialization; the CLI handles the actual file I/O


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _field(data, name: str, expected: str, check: Callable = _is_names, default=None):
    """``data[name]`` of a JSON object; InputError unless ``check`` accepts it."""
    if not isinstance(data, dict):
        raise InputError(f"expected a JSON object, got {_excerpt(data)}")
    if name not in data and default is None:
        raise InputError(f"missing field {name!r}")
    value = data.get(name, default)
    if not check(value):
        raise InputError(f"field {name!r} must be {expected}, got {_excerpt(value)}")
    return value


def _excerpt(value) -> str:
    return json.dumps(value, default=repr)[:40]


def load_model(data: Mapping) -> KripkeModel:
    """Build a model from ``{"worlds": [...], "edges": [[u, v], ...],
    "valuation": {prop: [worlds...]}}``."""
    worlds = _field(data, "worlds", "a list of world names")
    edges = _field(data, "edges", "a list of [source, target] pairs",
                   lambda v: isinstance(v, list) and all(_is_names(e) and len(e) == 2 for e in v))
    valuation = _field(data, "valuation", "an object mapping propositions to world lists",
                       lambda v: isinstance(v, dict) and all(map(_is_names, v.values())), {})
    return KripkeModel(worlds, [tuple(e) for e in edges], valuation)


def load_world_team(data: Mapping, model: KripkeModel) -> frozenset[str]:
    """Build a team from ``{"team": [worlds...]}``, validated against the model."""
    return model.team(_field(data, "team", "a list of world names"))


def load_prop_team(data: Mapping) -> PropTeam:
    """Build a team from ``{"domain": [...], "assignments": [[0/1 row], ...]}``;
    row i lists the values of the domain props in order."""
    domain = _field(data, "domain", "a list of proposition names")
    rows = _field(data, "assignments", "a list of 0/1 rows",
                  lambda v: isinstance(v, list) and all(isinstance(r, list) for r in v))
    members = []
    for row in rows:
        if len(row) != len(domain):
            raise ValueError(f"assignment row {row!r} does not match domain length {len(domain)}")
        members.append(Assignment(dict(zip(domain, row))))
    return PropTeam(domain, members)


def model_to_json(m: KripkeModel) -> dict:
    return {
        "worlds": list(m.worlds),
        "edges": sorted([u, v] for (u, v) in m.edges),
        "valuation": {p: sorted(ws) for p, ws in sorted(m.valuation.items())},
    }


def world_team_to_json(team: Iterable[str]) -> dict:
    return {"team": sorted(team)}


def prop_team_to_json(x: PropTeam) -> dict:
    return {
        "domain": list(x.domain),
        "assignments": [list(a.project(x.domain)) for a in x.members],
    }

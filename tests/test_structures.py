"""Assignments, teams, Kripke models, and serialization."""

import json
import pathlib

import pytest

from inclogic import (
    Assignment,
    KripkeModel,
    PropTeam,
    all_assignments,
    load_model,
    load_prop_team,
    load_world_team,
    model_to_json,
    prop_team_to_json,
    r_image,
    world_team_to_json,
)
from inclogic.errors import ForeignWorldError, SizeGuardError, UnboundPropError

from helpers import fig_model

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_assignment_values_and_domain():
    a = Assignment({"p": 1, "q": 0})
    assert a["p"] == 1 and a["q"] == 0
    assert a.domain == frozenset({"p", "q"})
    assert a.project(["q", "p"]) == (0, 1)
    assert repr(a) == "<p=1 q=0>"


def test_assignment_accepts_bools_and_rejects_other_values():
    assert Assignment({"p": True})["p"] == 1
    with pytest.raises(ValueError):
        Assignment({"p": 2})


def test_assignment_lookup_outside_domain():
    with pytest.raises(UnboundPropError):
        Assignment({"p": 1})["q"]


def test_assignment_equality_is_by_value():
    assert Assignment({"p": 1, "q": 0}) == Assignment({"q": 0, "p": 1})
    assert hash(Assignment({"p": 1})) == hash(Assignment({"p": 1}))
    assert Assignment({"p": 1}) != Assignment({"p": 0})


def test_prop_team_deduplicates_and_orders_members():
    rows = [Assignment({"p": 1, "q": 1}), Assignment({"p": 0, "q": 1}),
            Assignment({"p": 1, "q": 1})]
    x = PropTeam(["p", "q"], rows)
    assert len(x) == 2
    assert [a.project(("p", "q")) for a in x] == [(0, 1), (1, 1)]
    assert Assignment({"p": 0, "q": 1}) in x


def test_prop_team_rejects_mismatched_domains():
    with pytest.raises(UnboundPropError):
        PropTeam(["p", "q"], [Assignment({"p": 1})])
    with pytest.raises(ValueError):
        PropTeam(["p", "p"], [])


def test_prop_team_subteam_keeps_domain():
    x = PropTeam(["p"], [Assignment({"p": 0}), Assignment({"p": 1})])
    y = x.subteam([Assignment({"p": 1})])
    assert y.domain == x.domain and len(y) == 1
    assert x == PropTeam(["p"], list(x)) and hash(x) == hash(PropTeam(["p"], list(x)))


def test_model_validates_worlds_edges_and_valuation():
    with pytest.raises(ValueError):
        KripkeModel(["w", "w"], [], {})
    with pytest.raises(ForeignWorldError):
        KripkeModel(["w"], [("w", "v")], {})
    with pytest.raises(ForeignWorldError):
        KripkeModel(["w"], [], {"p": ["v"]})


def test_model_truth_and_signature():
    m = KripkeModel(["u", "v"], [("u", "v")], {"p": ["v"]})
    assert m.signature == frozenset({"p"})
    assert m.truth("p", "v") and not m.truth("p", "u")
    with pytest.raises(UnboundPropError):
        m.truth("q", "u")
    with pytest.raises(ForeignWorldError):
        m.truth("p", "x")


def test_model_team_validation_and_successors():
    m = fig_model()
    assert m.team(["w1", "s2"]) == frozenset({"w1", "s2"})
    with pytest.raises(ForeignWorldError):
        m.team(["nope"])
    assert m.succ["w1"] == frozenset({"s1", "s2"})
    assert m.pred["s2"] == frozenset({"w1", "w2", "w3"})


def test_image_operators_on_reference_model():
    m = fig_model()
    assert r_image(m, {"w1", "w3"}) == frozenset({"s1", "s2", "s3"})
    assert r_image(m, frozenset()) == frozenset()


def test_all_assignments_counts_in_binary_order():
    rows = all_assignments(("p", "q"))
    assert [a.project(("p", "q")) for a in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(SizeGuardError):
        all_assignments([f"x{i}" for i in range(30)])


def test_model_json_round_trip():
    m = fig_model()
    data = model_to_json(m)
    again = load_model(data)
    assert again.worlds == m.worlds
    assert again.edges == m.edges
    assert again.valuation == m.valuation
    assert model_to_json(again) == data


def test_world_team_json_round_trip():
    m = fig_model()
    team = load_world_team({"team": ["w1", "w2"]}, m)
    assert team == frozenset({"w1", "w2"})
    assert world_team_to_json(team) == {"team": ["w1", "w2"]}
    with pytest.raises(ForeignWorldError):
        load_world_team({"team": ["zz"]}, m)


def test_prop_team_json_round_trip():
    x = load_prop_team({"domain": ["p", "q"], "assignments": [[1, 0], [0, 1]]})
    assert len(x) == 2 and x.domain == ("p", "q")
    assert load_prop_team(prop_team_to_json(x)) == x
    with pytest.raises(ValueError):
        load_prop_team({"domain": ["p"], "assignments": [[1, 0]]})


def test_fixture_files_load():
    model = load_model(json.loads((FIXTURES / "model_six_worlds.json").read_text()))
    assert len(model.worlds) == 6
    team = load_world_team(
        json.loads((FIXTURES / "team_roots.json").read_text()), model
    )
    assert team == frozenset({"w1", "w2", "w3"})
    x = load_prop_team(json.loads((FIXTURES / "prop_team_three_rows.json").read_text()))
    assert len(x) == 3 and set(x.domain) == {"p", "q", "r"}

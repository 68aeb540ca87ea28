"""The lax witness checker accepts the checker's labellings of true verdicts
and rejects corrupted ones."""

import random

import gen
import pytest
from witness import check_lax_witness

from inclogic import KripkeModel, lax_check, lax_labelling, parse_formula


def _instances(count, seed=5):
    rng = random.Random(seed)
    while count:
        data = gen.kripke_data(rng, 30, ["p", "q"], out_degree=2.0)
        model = KripkeModel(*data)
        formula = parse_formula(gen.render(gen.random_formula(rng, ["p", "q"], 12)))
        team = frozenset(rng.sample(data[0], rng.randint(1, 10)))
        yield model, team, formula
        count -= 1


def test_witness_check_accepts_exactly_the_true_verdicts():
    seen = {True: 0, False: 0}
    for model, team, formula in _instances(150):
        labels = lax_labelling(model, team, formula).labels
        verdict = lax_check(model, team, formula)
        seen[verdict] += 1
        assert (check_lax_witness(model, team, formula, labels) is None) is verdict
    assert seen[True] > 10 and seen[False] > 10


def _occurrences(formula):
    stack, out = [formula], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack += [getattr(node, a) for a in ("left", "right", "child") if hasattr(node, a)]
    return out


def _corruptions(model, labels, node):
    """Label changes that break a local condition at ``node`` by construction."""
    kind = type(node).__name__
    label = labels[node.oid]
    if kind == "And" and labels[node.left.oid]:
        yield node.left.oid, labels[node.left.oid] - {min(labels[node.left.oid])}
    if kind == "Atom":
        false_at = sorted(set(model.worlds) - model.valuation[node.name] - label)
        if false_at:
            yield node.oid, label | {false_at[0]}
    if kind == "Box" and labels[node.child.oid]:
        yield node.child.oid, labels[node.child.oid] - {min(labels[node.child.oid])}
    if kind == "Diamond":
        orphans = sorted(v for v in model.worlds if not model.pred[v] & label)
        if orphans:
            yield node.child.oid, labels[node.child.oid] | {orphans[0]}
    if kind == "Or":
        outside = sorted(set(model.worlds) - label)
        if outside:
            yield node.left.oid, labels[node.left.oid] | {outside[0]}


def test_witness_check_rejects_a_corrupted_labelling():
    kinds = set()
    tried = 0
    for model, team, formula in _instances(300, seed=9):
        labels = lax_labelling(model, team, formula).labels
        if check_lax_witness(model, team, formula, labels) is not None:
            continue
        for node in _occurrences(formula):
            for oid, label in _corruptions(model, labels, node):
                bad = dict(labels)
                bad[oid] = frozenset(label)
                tried += 1
                kinds.add(type(node).__name__)
                assert check_lax_witness(model, team, formula, bad) is not None, node
    assert tried > 50
    assert kinds == {"And", "Atom", "Box", "Diamond", "Or"}


def test_witness_check_rejects_a_root_that_is_not_the_team():
    for model, team, formula in _instances(50):
        if lax_check(model, team, formula):
            labels = dict(lax_labelling(model, team, formula).labels)
            other = sorted(set(model.worlds) - team)[0]
            assert check_lax_witness(model, team | {other}, formula, labels) is not None
            return
    pytest.fail("no true instance drawn")

"""The bounded-validity corpus has the answers it claims by construction."""

import random

import gen
import pytest

from inclogic import (
    Semantics,
    eminc_val_to_minc,
    eval_team_modal,
    minc_bounded_counterexample,
    parse_formula,
)


def _formulas(valid, count, seed):
    rng = random.Random(seed)
    shapes = ("incl", "flat", "both")
    return [gen.valid_formula(rng, shapes[i % 3]) if valid else gen.invalid_formula(rng)
            for i in range(count)]


@pytest.mark.parametrize("mode", [Semantics.LAX, Semantics.STRICT])
def test_valid_by_construction_formulas_have_no_small_counterexample(mode):
    for node in _formulas(True, 12, seed=1):
        formula = parse_formula(gen.render(node))
        assert minc_bounded_counterexample(formula, max_worlds=2, mode=mode).status == "unknown"


@pytest.mark.parametrize("mode", [Semantics.LAX, Semantics.STRICT])
def test_invalid_witnesses_are_confirmed_by_the_oracle(mode):
    for node in _formulas(False, 30, seed=2):
        formula = parse_formula(gen.render(node))
        verdict = minc_bounded_counterexample(formula, max_worlds=3, mode=mode)
        assert verdict.status == "invalid"
        model, team = verdict.witness
        assert not eval_team_modal(model, team, formula, mode)


@pytest.mark.parametrize("valid", [True, False])
def test_formula_and_translation_agree(valid):
    for node in _formulas(valid, 12, seed=3):
        formula = parse_formula(gen.render(node))
        translated = eminc_val_to_minc(formula)
        a = minc_bounded_counterexample(formula, max_worlds=2)
        b = minc_bounded_counterexample(translated, max_worlds=2)
        assert a.status == b.status == ("unknown" if valid else "invalid")
        if not valid:
            model, team = b.witness
            assert not eval_team_modal(model, team, translated, Semantics.LAX)


def test_negate_is_the_classical_dual():
    rng = random.Random(4)
    for _ in range(30):
        g = gen.random_formula(rng, ["p", "q"], 6, inclusion=False)
        assert gen.negate(gen.negate(g)) == g
        both = parse_formula(gen.render(("|", g, gen.negate(g))))
        assert minc_bounded_counterexample(both, max_worlds=2).status == "unknown"

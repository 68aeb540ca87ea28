"""Validity procedures and the validity-preserving translations."""

import random

import pytest

from inclogic import (
    INVALID,
    UNKNOWN,
    VALID,
    Assignment,
    Fragment,
    PropTeam,
    Semantics,
    Verdict,
    all_assignments,
    eminc_val_to_minc,
    eval_pl_tarski,
    eval_team_modal,
    eval_team_prop,
    fragment,
    inclusion_to_pl_singleton,
    minc_bounded_counterexample,
    parse_formula,
    pl_validity,
    plinc_strict_validity,
    plinc_to_pl,
    props,
    strict_check,
    strict_check_prop,
)
from inclogic.errors import FragmentError, SizeGuardError
from inclogic.validity import _canonical_edge_masks

from helpers import gen_formula, gen_prop_team


def test_inclusion_atom_singleton_translation_shape():
    atom = parse_formula("[p,q <= r,s]")
    out = inclusion_to_pl_singleton(atom)
    assert str(out) == "(((p & r) | (!p & !r)) & ((q & s) | (!q & !s)))"
    with pytest.raises(FragmentError):
        inclusion_to_pl_singleton(parse_formula("[<>p <= q]"))


def test_plinc_to_pl_rewrites_only_inclusion_atoms():
    f = parse_formula("(p & ([q <= r] | !p))")
    out = plinc_to_pl(f)
    assert fragment(out) is Fragment.PL
    assert str(out) == "(p & (((q & r) | (!q & !r)) | !p))"
    g = parse_formula("(p | !q)")
    assert plinc_to_pl(g) == g
    with pytest.raises(FragmentError):
        plinc_to_pl(parse_formula("<>p"))


def test_singleton_translation_matches_singleton_team_satisfaction():
    rng = random.Random(71)
    for _ in range(120):
        f = gen_formula(rng, ["p", "q", "r"], rng.randint(1, 7), modal=False)
        star = plinc_to_pl(f)
        x = gen_prop_team(rng, ("p", "q", "r"), 1)
        (a,) = x.members
        assert eval_pl_tarski(a, star) == eval_team_prop(x, f, Semantics.STRICT)
        assert eval_pl_tarski(a, star) == eval_team_prop(x, f, Semantics.LAX)


def test_pl_validity_and_first_falsifier():
    assert pl_validity(parse_formula("(p | !p)")).status == VALID
    v = pl_validity(parse_formula("(p | q)"))
    assert v.status == INVALID and not v
    assert v.witness == Assignment({"p": 0, "q": 0})
    w = pl_validity(parse_formula("(p | !q)"))
    assert w.witness == Assignment({"p": 0, "q": 1})
    with pytest.raises(SizeGuardError):
        pl_validity(parse_formula("(p | q)"), max_vars=1)
    with pytest.raises(FragmentError):
        pl_validity(parse_formula("[p <= q]"))


def test_plinc_validity_reference_verdicts():
    assert plinc_strict_validity(parse_formula("[p <= p]")).status == VALID
    assert plinc_strict_validity(parse_formula("((p & [p <= p]) | !p)")).status == VALID
    v = plinc_strict_validity(parse_formula("[p <= q]"))
    assert v.status == INVALID
    assert v.witness == PropTeam(["p", "q"], [Assignment({"p": 0, "q": 1})])


def test_invalid_witness_team_actually_falsifies():
    rng = random.Random(73)
    checked = 0
    for _ in range(150):
        f = gen_formula(rng, ["p", "q"], rng.randint(1, 6), modal=False)
        v = plinc_strict_validity(f)
        if v.status != INVALID:
            continue
        checked += 1
        assert not strict_check_prop(v.witness, f)
        assert not eval_team_prop(v.witness, f, Semantics.LAX)
    assert checked >= 30


def test_validity_matches_quantification_over_all_teams():
    rng = random.Random(79)
    rows = all_assignments(("p", "q"))
    teams = []
    for mask in range(1, 2 ** len(rows)):
        members = [rows[i] for i in range(len(rows)) if mask >> i & 1]
        teams.append(PropTeam(("p", "q"), members))
    for _ in range(40):
        f = gen_formula(rng, ["p", "q"], rng.randint(1, 6), modal=False)
        brute_strict = all(eval_team_prop(x, f, Semantics.STRICT) for x in teams)
        brute_lax = all(eval_team_prop(x, f, Semantics.LAX) for x in teams)
        verdict = plinc_strict_validity(f).status == VALID
        assert brute_strict == verdict
        assert brute_lax == verdict


def test_eminc_translation_identity_without_parameters():
    f = parse_formula("[](p | [p <= q])")
    assert eminc_val_to_minc(f) is f


def test_eminc_translation_shape_for_one_parameter():
    f = parse_formula("[<>p <= q]")
    out = eminc_val_to_minc(f)
    assert fragment(out) is Fragment.MINC
    text = str(out)
    assert text.startswith("((")
    assert "[f0 <= q]" in text
    assert "(!f0 | <>p)" in text and "(f0 | []!p)" in text
    assert "[]((!f0 | <>p) & (f0 | []!p))" in text


def test_eminc_translation_depth_counts_boxes():
    f = parse_formula("[](p & [<>q <= p])")
    out = eminc_val_to_minc(f)
    text = str(out)
    assert text.count("[]((!f0 | <>q) & (f0 | []!q))") == 2
    assert "[][][]" not in text


def test_eminc_translation_propositional_parameters_stay_propositional():
    f = parse_formula("[(p & q) <= p]")
    out = eminc_val_to_minc(f)
    assert fragment(out) is Fragment.PLINC


def test_bounded_search_certifies_nothing_but_refutes():
    tautology = parse_formula("(p | !p)")
    v = minc_bounded_counterexample(tautology, max_worlds=2)
    assert v.status == UNKNOWN and v.bound == (2, 4)
    w = minc_bounded_counterexample(parse_formula("(p & !p)"), max_worlds=2)
    assert w.status == INVALID
    model, team = w.witness
    assert len(model.worlds) == 1 and len(team) == 1


def test_bounded_search_witnesses_falsify():
    rng = random.Random(83)
    found = extended = 0
    for i in range(25):
        # half the formulas may carry extended atoms, preprocessed once per model
        f = gen_formula(rng, ["p"], rng.randint(1, 6), extended=i % 2 == 0)
        for mode in (Semantics.LAX, Semantics.STRICT):
            v = minc_bounded_counterexample(f, max_worlds=2, mode=mode)
            if v.status != INVALID:
                continue
            found += 1
            extended += fragment(f) is Fragment.EMINC
            model, team = v.witness
            assert model.signature == props(f)  # the original model, no fresh f* names
            if mode is Semantics.LAX:
                assert not eval_team_modal(model, team, f, Semantics.LAX)
                assert len(team) == 1
            else:
                assert not strict_check(model, team, f)
    assert found >= 10 and extended >= 4


def test_bounded_search_modes_can_disagree_only_via_teams():
    # Lax invalidity always shows up on a singleton, so a formula invalid
    # under lax is invalid under strict on the same singleton.
    rng = random.Random(89)
    for _ in range(20):
        f = gen_formula(rng, ["p"], rng.randint(1, 5))
        lax = minc_bounded_counterexample(f, max_worlds=2, mode=Semantics.LAX)
        strict = minc_bounded_counterexample(f, max_worlds=2, mode=Semantics.STRICT)
        if lax.status == INVALID:
            assert strict.status == INVALID


def test_bounded_search_guard_and_extended_inputs():
    with pytest.raises(SizeGuardError):
        minc_bounded_counterexample(parse_formula("p"), max_worlds=6)
    v = minc_bounded_counterexample(parse_formula("[<>p <= <>p]"), max_worlds=2)
    assert v.status == UNKNOWN


def test_canonical_edge_masks_are_minimal_representatives():
    assert len(_canonical_edge_masks(1)) == 2
    masks = _canonical_edge_masks(2)
    assert len(masks) == 10
    assert 0 in masks


def test_eminc_translation_preserves_bounded_verdict_smoke():
    for text in ("[<>p <= <>p]", "[<>p <= q]", "([]p & [<>p <= q])"):
        f = parse_formula(text)
        g = eminc_val_to_minc(f)
        a = minc_bounded_counterexample(f, max_worlds=2)
        b = minc_bounded_counterexample(g, max_worlds=2)
        assert a.status == b.status


def test_verdict_truthiness():
    assert Verdict(VALID)
    assert not Verdict(INVALID)
    assert not Verdict(UNKNOWN)

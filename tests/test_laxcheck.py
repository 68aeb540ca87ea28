"""The polynomial lax checker: maxsub, labelling fixpoint, preprocessing."""

import itertools
import random

import pytest

from inclogic import (
    And,
    Atom,
    Box,
    Diamond,
    Fragment,
    Inclusion,
    KripkeModel,
    NegAtom,
    Or,
    Semantics,
    embed_prop_team,
    eminc_preprocess,
    eval_team_modal,
    eval_team_prop,
    fragment,
    lax_check,
    lax_check_prop,
    lax_labelling,
    maxsub,
    maxsub_prop,
    ml_truth_set,
    parse_formula,
    props,
    r_image,
    strict_check_prop,
    sub_occurrences,
)
from inclogic.errors import FragmentError, UnboundPropError

from helpers import (
    brute_maxsub_prop,
    fig_model,
    fig_team,
    gen_formula,
    gen_model,
    gen_prop_team,
    gen_team,
)

SPLIT = "((p & [p <= r]) | (q & [q <= r]))"


def test_maxsub_on_plain_literals():
    m = fig_model()
    assert maxsub(m, m.worlds, parse_formula("p")) == frozenset({"s1", "s2"})
    assert maxsub(m, {"s1", "w1"}, parse_formula("!q")) == frozenset({"s1", "w1"})


def test_maxsub_on_inclusion_atom_reference_values():
    m = fig_model()
    atom = parse_formula("[p <= r]")
    assert maxsub(m, {"s1", "s2", "s3"}, atom) == frozenset({"s1", "s2", "s3"})
    assert maxsub(m, {"s1", "s3"}, atom) == frozenset({"s3"})
    assert maxsub(m, {"s1"}, atom) == frozenset()
    assert maxsub(m, frozenset(), atom) == frozenset()


def test_maxsub_deletions_cascade_to_the_empty_team():
    from inclogic import Assignment, PropTeam

    x = PropTeam(
        ["p", "q", "r"],
        [
            Assignment({"p": 1, "q": 0, "r": 0}),
            Assignment({"p": 0, "q": 0, "r": 1}),
            Assignment({"p": 0, "q": 1, "r": 1}),
        ],
    )
    atom = parse_formula("[p,q <= q,r]")
    assert maxsub_prop(x, atom).members == ()
    assert brute_maxsub_prop(x, atom) == frozenset()


def test_maxsub_is_the_union_of_satisfying_subteams():
    rng = random.Random(11)
    for _ in range(60):
        domain = ("p", "q", "r")[: rng.randint(1, 3)]
        x = gen_prop_team(rng, domain, 6)
        arity = rng.randint(1, 2)
        lhs = [rng.choice(domain) for _ in range(arity)]
        rhs = [rng.choice(domain) for _ in range(arity)]
        atom = parse_formula(f"[{','.join(lhs)} <= {','.join(rhs)}]")
        got = frozenset(maxsub_prop(x, atom).members)
        assert got == brute_maxsub_prop(x, atom)


def test_lax_check_regression_tables():
    m = fig_model()
    f = parse_formula(SPLIT)
    boxed = parse_formula("[]" + SPLIT)
    assert lax_check(m, {"s1", "s2", "s3"}, f)
    assert not lax_check(m, {"s1", "s3"}, f)
    assert lax_check(m, {"w1", "w2", "w3"}, boxed)
    assert lax_check(m, frozenset(), boxed)


def test_lax_check_prop_regression_table():
    x, s1, s2, s3 = fig_team()
    f = parse_formula(SPLIT)
    assert lax_check_prop(x, f)
    assert lax_check_prop(x.subteam([s1, s2]), f)
    assert not lax_check_prop(x.subteam([s1, s3]), f)


def test_lax_check_agrees_with_oracle_on_random_instances():
    rng = random.Random(23)
    for _ in range(150):
        names = ["p", "q"]
        m = gen_model(rng, rng.randint(1, 5), names)
        t = gen_team(rng, m, 4)
        f = gen_formula(rng, names, rng.randint(1, 8))
        assert lax_check(m, t, f) == eval_team_modal(m, t, f, Semantics.LAX), (
            f"mismatch on {f} over {sorted(t)}"
        )


def test_final_labels_satisfy_their_subformulas():
    rng = random.Random(29)
    for _ in range(40):
        m = gen_model(rng, rng.randint(1, 4), ["p", "q"])
        t = gen_team(rng, m, 3)
        f = gen_formula(rng, ["p", "q"], rng.randint(1, 6))
        lab = lax_labelling(m, t, f)
        for oid, node in sub_occurrences(f):
            if oid not in lab.labels:
                continue  # inclusion parameters are not labelled occurrences
            assert eval_team_modal(m, lab.labels[oid], node, Semantics.LAX)


def test_labels_cover_occurrences_but_not_inclusion_parameters():
    m = fig_model()
    f = parse_formula("([p <= q] | <>r)")
    lab = lax_labelling(m, {"w1", "s2"}, f)
    assert sorted(lab.labels) == [2, 3, 4, 5]  # p = 0 and q = 1 are parameters
    assert [str(node) for oid, node in sub_occurrences(f) if oid in lab.labels] == [
        "[p <= q]", "r", "<>r", "([p <= q] | <>r)"]


@pytest.mark.parametrize("text", [
    "<>" * 10000 + "p",
    " & ".join(f"p{i}" for i in range(10000)),
], ids=["diamonds", "conjuncts"])
def test_lax_check_decides_deep_formulas(text):
    f = parse_formula(text)
    m = KripkeModel(["u", "v"], [("u", "u"), ("v", "u")], {p: ["u"] for p in props(f)})
    assert lax_check(m, {"u"}, f)
    assert lax_check(m, {"u", "v"}, f) is text.startswith("<>")
    assert lax_check(m, {"v"}, parse_formula(text.replace("p", "!p"))) is not text.startswith("<>")


def test_labelling_round_count_is_within_bound():
    rng = random.Random(31)
    for _ in range(25):
        m = gen_model(rng, rng.randint(1, 5), ["p", "q"])
        t = gen_team(rng, m, 4)
        f = gen_formula(rng, ["p", "q"], rng.randint(1, 8))
        occs = len(sub_occurrences(f))
        lab = lax_labelling(m, t, f)
        assert lab.rounds <= 2 * max(1, len(m.worlds)) * max(1, occs) + 4


def test_trace_reports_monotone_rounds():
    m = fig_model()
    f = parse_formula(SPLIT)
    rounds = []
    lax_check(m, {"s1", "s2", "s3"}, f, trace=lambda i, labels: rounds.append(i))
    assert rounds == list(range(1, len(rounds) + 1))
    assert len(rounds) >= 3


def test_empty_team_always_checks_true():
    m = fig_model()
    assert lax_check(m, frozenset(), parse_formula("(p & !p)"))


def test_embed_prop_team_preserves_rows():
    x, s1, s2, s3 = fig_team()
    model, team = embed_prop_team(x)
    assert len(model.worlds) == 3 and team == frozenset(model.worlds)
    assert model.edges == frozenset()
    assert model.valuation["p"] == frozenset({"a100", "a111"})
    assert model.valuation["r"] == frozenset({"a111"})


def test_lax_check_prop_agrees_with_oracle_on_random_instances():
    rng = random.Random(37)
    for _ in range(120):
        domain = ("p", "q", "r")[: rng.randint(1, 3)]
        x = gen_prop_team(rng, domain, 5)
        f = gen_formula(rng, list(domain), rng.randint(1, 8), modal=False)
        assert lax_check_prop(x, f) == eval_team_prop(x, f, Semantics.LAX), (
            f"mismatch on {f} over {x!r}"
        )


def test_eminc_preprocess_names_parameters_by_truth_sets():
    m = fig_model()
    f = parse_formula("([<>p <= q] | <>p)")
    m2, f2 = eminc_preprocess(m, f)
    assert fragment(f2) is Fragment.MINC
    assert str(f2) == "([f0 <= q] | <>p)"
    assert m2.valuation["f0"] == ml_truth_set(m, parse_formula("<>p"))
    assert m2.worlds == m.worlds and m2.edges == m.edges


def test_eminc_preprocess_identity_without_extended_atoms():
    m = fig_model()
    f = parse_formula("[p <= q]")
    m2, f2 = eminc_preprocess(m, f)
    assert m2 is m and f2 is f


def test_eminc_preprocess_avoids_existing_names():
    from inclogic import KripkeModel

    m = KripkeModel(["u"], [], {"f0": ["u"], "p": ["u"], "q": []})
    f = parse_formula("[(p & f0) <= q]")
    m2, f2 = eminc_preprocess(m, f)
    assert str(f2) == "[f1 <= q]"
    assert m2.valuation["f1"] == frozenset({"u"})


def test_preprocessed_check_matches_direct_extended_oracle():
    rng = random.Random(41)
    for _ in range(60):
        m = gen_model(rng, rng.randint(1, 4), ["p", "q"])
        t = gen_team(rng, m, 3)
        f = gen_formula(rng, ["p", "q"], rng.randint(1, 6), extended=True)
        m2, f2 = eminc_preprocess(m, f)
        assert lax_check(m2, t, f2) == eval_team_modal(m, t, f, Semantics.LAX)
        assert lax_check(m, t, f) == lax_check(m2, t, f2)


def test_lax_labelling_rejects_unpreprocessed_extended_atoms():
    m = fig_model()
    with pytest.raises(FragmentError):
        lax_labelling(m, {"w1"}, parse_formula("[<>p <= q]"))


def test_lax_check_decides_deeply_nested_parameters():
    f = parse_formula("[" + "<>" * 1500 + "p <= q]")
    m = KripkeModel(["u", "v"], [("u", "u")], {"p": ["u"], "q": []})
    assert lax_check(m, {"v"}, f)
    assert not lax_check(m, {"u"}, f)


def test_prop_entry_points_reject_modal_formulas():
    x, s1, s2, s3 = fig_team()
    for text in ("<>p", "[]!p", "[<>p <= q]"):
        f = parse_formula(text)
        for check in (lax_check_prop, strict_check_prop, maxsub_prop):
            with pytest.raises(FragmentError):
                check(x, f)


def test_maxsub_rejects_propositions_outside_the_signature():
    m = fig_model()
    for text in ("x", "!x", "[p <= x]"):
        with pytest.raises(UnboundPropError):
            maxsub(m, {"w1"}, parse_formula(text))


# ---------------------------------------------------------------------------
# Differential tests of the mask kernels on models spanning several machine
# words, with world names whose sorted order is not their bit order


def _wide_model(rng, n_worlds, names):
    ids = rng.sample(range(1000), n_worlds)
    worlds = [f"x{i:03d}" for i in ids]
    edges = {(rng.choice(worlds), rng.choice(worlds)) for _ in range(3 * n_worlds)}
    valuation = {p: [w for w in worlds if rng.random() < 0.5] for p in names}
    return KripkeModel(worlds, edges, valuation)


def _stable_core(m, team, lhs, rhs):
    """Per-world reference: drop members whose left row no surviving member
    realizes on the right, until nothing changes."""
    alive = set(team)
    while True:
        realized = {tuple(w in m.valuation[q] for q in rhs) for w in alive}
        kept = {w for w in alive if tuple(w in m.valuation[p] for p in lhs) in realized}
        if kept == alive:
            return frozenset(alive)
        alive = kept


def _reference_labelling(m, team, f):
    """The labelling fixpoint on frozensets of world names, clause by clause;
    literals go through ``maxsub``, which the test below compares with
    ``_stable_core``."""
    nodes = [node for _, node in sub_occurrences(f)]
    params = {p.oid for n in nodes if isinstance(n, Inclusion) for p in n.children()}
    occs = [n for n in nodes if n.oid not in params]
    full = frozenset(m.worlds)
    older, prev = None, {n.oid: full for n in occs}
    for i in range(1, 2 * len(m.worlds) * len(occs) + 5):
        cur = {}
        if i % 2:
            for n in occs:
                if isinstance(n, (Atom, NegAtom, Inclusion)):
                    cur[n.oid] = maxsub(m, prev[n.oid], n)
                elif isinstance(n, (And, Or)):
                    left, right = cur[n.left.oid], cur[n.right.oid]
                    cur[n.oid] = left & right if isinstance(n, And) else left | right
                elif isinstance(n, Diamond):
                    cur[n.oid] = frozenset(w for w in prev[n.oid] if m.succ[w] & cur[n.child.oid])
                else:
                    cur[n.oid] = frozenset(w for w in prev[n.oid] if m.succ[w] <= cur[n.child.oid])
        else:
            cur[f.oid] = prev[f.oid] & team
            for n in reversed(occs):
                if isinstance(n, And):
                    cur[n.left.oid] = cur[n.right.oid] = cur[n.oid]
                elif isinstance(n, Or):
                    cur[n.left.oid] = prev[n.left.oid] & cur[n.oid]
                    cur[n.right.oid] = prev[n.right.oid] & cur[n.oid]
                elif isinstance(n, (Diamond, Box)):
                    cur[n.child.oid] = prev[n.child.oid] & r_image(m, cur[n.oid])
        if older is not None and cur == prev == older:
            return cur, i
        older, prev = prev, cur
    raise AssertionError("reference labelling did not stabilize")


def test_maxsub_inclusion_matches_per_world_stable_core():
    rng = random.Random(43)
    names = ["p", "q", "r", "s", "t", "u"]
    for _ in range(8):
        m = _wide_model(rng, rng.randint(70, 200), names)
        for arity in range(1, 7):
            team = frozenset(rng.sample(m.worlds, rng.randint(0, len(m.worlds))))
            lhs = [rng.choice(names) for _ in range(arity)]
            rhs = [rng.choice(names) for _ in range(arity)]
            atom = parse_formula(f"[{','.join(lhs)} <= {','.join(rhs)}]")
            assert maxsub(m, team, atom) == _stable_core(m, team, lhs, rhs), str(atom)


def test_maxsub_is_the_union_of_lax_satisfying_subteams_on_small_models():
    rng = random.Random(47)
    names = ["p", "q", "r"]
    for _ in range(40):
        m = _wide_model(rng, rng.randint(1, 8), names)
        team = gen_team(rng, m, 8)
        arity = rng.randint(1, 3)
        lhs = ",".join(rng.choice(names) for _ in range(arity))
        rhs = ",".join(rng.choice(names) for _ in range(arity))
        members = sorted(team)
        for lit in (parse_formula(f"[{lhs} <= {rhs}]"), parse_formula(rng.choice(names)),
                    parse_formula("!" + rng.choice(names))):
            union = frozenset()
            for size in range(len(members) + 1):
                for part in itertools.combinations(members, size):
                    if eval_team_modal(m, part, lit, Semantics.LAX):
                        union |= frozenset(part)
            assert maxsub(m, team, lit) == union, f"{lit} over {members}"


def test_lax_labelling_matches_frozenset_reference_on_wide_models():
    rng = random.Random(53)
    names = ["p", "q", "r"]
    for _ in range(24):
        m = _wide_model(rng, rng.randint(70, 200), names)
        team = frozenset(rng.sample(m.worlds, rng.randint(1, len(m.worlds) // 2)))
        f = gen_formula(rng, names, rng.randint(4, 14), max_arity=3)
        labels, rounds = _reference_labelling(m, team, f)
        lab = lax_labelling(m, team, f)
        assert (lab.labels, lab.rounds) == (labels, rounds), str(f)
        assert lax_check(m, team, f) == (labels[f.oid] == team)


def test_labels_and_trace_payload_are_frozensets_by_occurrence_id():
    m = fig_model()
    f = parse_formula("[]" + SPLIT)
    payloads = []
    lab = lax_labelling(m, ["w1", "w2", "w3"], f, trace=lambda i, labels: payloads.append(labels))
    params = {p.oid for _, n in sub_occurrences(f) if isinstance(n, Inclusion) for p in n.children()}
    oids = [oid for oid, _ in sub_occurrences(f) if oid not in params]
    for labels in (lab.labels, *payloads):
        assert type(labels) is dict and list(labels) == oids
        assert all(type(label) is frozenset and label <= set(m.worlds)
                   for label in labels.values())
    assert payloads[-1] == lab.labels and lab.labels[f.oid] == {"w1", "w2", "w3"}

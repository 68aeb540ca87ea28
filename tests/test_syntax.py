"""Parser, renderer, fragments, and formula utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from inclogic import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    Fragment,
    Inclusion,
    NegAtom,
    Or,
    box_power,
    conjoin,
    diamond_power,
    disjoin,
    extended_params,
    fold,
    fragment,
    fresh_props,
    modal_depth,
    nnf_negate,
    parse_formula,
    postorder,
    props,
    rebuild,
    render_formula,
    renumbered,
    sub_occurrences,
    substitute_params,
)
from inclogic.errors import ArityError, NotEmincError, NotMlError, ParseError


def test_parse_atom_and_literals():
    assert parse_formula("p") == Atom("p")
    assert parse_formula("!p") == NegAtom("p")
    assert parse_formula("p_1") == Atom("p_1")


def test_parse_binary_connectives_nest_right_of_parens():
    f = parse_formula("(p & (q | !r))")
    assert f == And(Atom("p"), Or(Atom("q"), NegAtom("r")))


def test_parse_modalities():
    assert parse_formula("<>p") == Diamond(Atom("p"))
    assert parse_formula("[]p") == Box(Atom("p"))
    assert parse_formula("[]<>p") == Box(Diamond(Atom("p")))


def test_parse_inclusion_atoms():
    f = parse_formula("[p,q <= r,s]")
    assert f == Inclusion((Atom("p"), Atom("q")), (Atom("r"), Atom("s")))
    g = parse_formula("[<>p <= q]")
    assert g == Inclusion((Diamond(Atom("p")),), (Atom("q"),))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_formula("p &")
    assert err.value.offset is not None
    with pytest.raises(ParseError):
        parse_formula("!(p & q)")
    with pytest.raises(ParseError):
        parse_formula("[p,q <= r]")
    with pytest.raises(ParseError):
        parse_formula("(p & q")
    with pytest.raises(ParseError):
        parse_formula("")


def test_negation_restricted_to_atoms():
    with pytest.raises(ParseError):
        parse_formula("!!p")
    with pytest.raises(ParseError):
        parse_formula("!<>p")


def test_render_parenthesizes_binaries():
    f = And(Atom("p"), Or(Atom("q"), Atom("r")))
    assert render_formula(f) == "(p & (q | r))"
    assert str(Inclusion((Atom("a"), Atom("b")), (Atom("c"), Atom("d")))) == "[a,b <= c,d]"


_names = st.sampled_from(["p", "q", "r"])
_plain = st.builds(Atom, _names) | st.builds(NegAtom, _names)
_params = _plain | st.builds(Diamond, st.builds(Atom, _names))
_single = st.builds(lambda a, b: Inclusion((a,), (b,)), _params, _params)
_double = st.builds(
    lambda a, b, c, d: Inclusion((a, b), (c, d)), _params, _params, _params, _params
)
_formulas = st.recursive(
    _plain | _single | _double,
    lambda kids: st.builds(And, kids, kids)
    | st.builds(Or, kids, kids)
    | st.builds(Diamond, kids)
    | st.builds(Box, kids),
    max_leaves=8,
)


@given(_formulas)
def test_render_parse_round_trip(f):
    assert parse_formula(render_formula(f)) == f


@given(_formulas)
def test_fragment_is_stable_under_round_trip(f):
    assert fragment(parse_formula(render_formula(f))) is fragment(f)


def test_fragment_classification():
    assert fragment(parse_formula("(p & !q)")) is Fragment.PL
    assert fragment(parse_formula("(p & [p <= q])")) is Fragment.PLINC
    assert fragment(parse_formula("<>(p | !q)")) is Fragment.ML
    assert fragment(parse_formula("[]([p <= q] | p)")) is Fragment.MINC
    assert fragment(parse_formula("[<>p <= q]")) is Fragment.EMINC
    assert fragment(parse_formula("[(p & q) <= r]")) is Fragment.EMINC


def test_inclusion_arity_validation():
    with pytest.raises(ArityError):
        Inclusion((), ())
    with pytest.raises(ArityError):
        Inclusion((Atom("p"),), (Atom("q"), Atom("r")))


def test_nnf_negate_swaps_duals():
    f = parse_formula("((p & !q) | []r)")
    assert nnf_negate(f) == parse_formula("((!p | q) & <>!r)")
    assert nnf_negate(nnf_negate(f)) == f


def test_nnf_negate_rejects_inclusion_atoms():
    with pytest.raises(NotMlError):
        nnf_negate(parse_formula("[p <= q]"))


def test_modal_depth_counts_inclusion_parameters():
    assert modal_depth(parse_formula("p")) == 0
    assert modal_depth(parse_formula("[]<>p")) == 2
    assert modal_depth(parse_formula("[<>p <= q]")) == 1
    assert modal_depth(parse_formula("[]([<>p <= q] & p)")) == 2


def test_renumbered_assigns_postorder_ids():
    f = parse_formula("((p & q) | <>r)")
    ids = [oid for oid, _ in sub_occurrences(f)]
    assert ids == list(range(len(ids)))
    assert ids[-1] == f.oid


def test_renumbered_splits_shared_nodes():
    shared = Atom("p")
    f = renumbered(And(shared, shared))
    assert f.left is not f.right
    assert f.left == f.right
    sub_occurrences(f)


def test_sub_occurrences_rejects_shared_nodes():
    shared = Atom("p")
    with pytest.raises(ValueError):
        sub_occurrences(And(shared, shared))


def test_props_collects_all_names():
    f = parse_formula("([a,<>b <= c,d] & !e)")
    assert props(f) == {"a", "b", "c", "d", "e"}


def test_fresh_props_avoid_collisions():
    assert fresh_props("f", 2, {"f0", "x"}) == ["f1", "f2"]
    assert fresh_props("g", 0, set()) == []


def test_conjoin_disjoin_fold_left():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert conjoin([a, b, c]) == And(And(a, b), c)
    assert disjoin([a]) == a
    with pytest.raises(ValueError):
        conjoin([])


def test_modal_powers():
    p = Atom("p")
    assert box_power(p, 0) == p
    assert box_power(p, 2) == Box(Box(p))
    assert diamond_power(p, 3) == Diamond(Diamond(Diamond(p)))


def test_extended_params_ordered_and_deduplicated():
    f = parse_formula("([<>p <= !q] & [!q <= <>p])")
    assert [str(p) for p in extended_params(f)] == ["<>p", "!q"]
    assert extended_params(parse_formula("[p <= q]")) == []


def test_extended_params_reject_nested_inclusion():
    inner = Inclusion((Atom("p"),), (Atom("q"),))
    bad = Inclusion((And(inner, Atom("p")),), (Atom("q"),))
    with pytest.raises(NotEmincError):
        extended_params(bad)


def test_substitute_params_names_parameters():
    f = parse_formula("([<>p <= q] | <>p)")
    out = substitute_params(f, {"<>p": "f0"})
    assert out == parse_formula("([f0 <= q] | <>p)")
    assert fragment(out) is Fragment.MINC


def test_structural_equality_ignores_identity():
    f = parse_formula("(p & [q <= r])")
    g = parse_formula("(p & [q <= r])")
    assert f == g and hash(f) == hash(g)
    assert f != parse_formula("(p | [q <= r])")


# 10^4 levels of nesting, ten times the default recursion limit
DEEP = {
    "diamonds": ("<>" * 10000 + "p", Fragment.ML, "<>" * 10000 + "p"),
    "conjuncts": (" & ".join(f"p{i}" for i in range(10000)), Fragment.PL,
                  "(" * 9999 + "p0 & p1) & p2) & " + " & ".join(f"p{i})" for i in range(3, 10000))),
}


@pytest.mark.parametrize("text, frag, rendered", DEEP.values(), ids=DEEP.keys())
def test_deep_formulas_need_no_recursion(text, frag, rendered):
    f = parse_formula(text)
    g = parse_formula(text)
    assert f == g and hash(f) == hash(g)
    assert f != parse_formula(text.replace("p", "q", 1))
    assert render_formula(f) == rendered
    assert fragment(f) is frag
    copy = renumbered(f)
    assert copy == f and copy.oid == f.oid
    assert [oid for oid, _ in sub_occurrences(copy)] == list(range(f.oid + 1))
    assert modal_depth(f) == text.count("<>")
    assert nnf_negate(nnf_negate(f)) == f


def test_parser_reads_deep_parentheses():
    chain = conjoin(Atom(f"p{i}") for i in range(10000))
    assert parse_formula(render_formula(chain)) == chain
    assert parse_formula("(" * 5000 + "p" + ")" * 5000) == Atom("p")


def test_postorder_lists_children_before_parents():
    f = parse_formula("([p <= q] | <>r)")
    assert [render_formula(n) for n in postorder(f)] == [
        "p", "q", "[p <= q]", "r", "<>r", "([p <= q] | <>r)"]
    assert postorder(f) is postorder(f)
    shared = Atom("p")
    assert len(postorder(And(shared, shared))) == 3


def test_fold_and_rebuild_copy_every_position():
    shared = Atom("p")
    f = And(shared, Diamond(shared))
    copy = fold(f, rebuild)
    assert copy == f and copy.left is not copy.right.child
    assert fold(f, lambda node, kids: 1 + sum(kids)) == 4


def test_formula_is_base_of_all_nodes():
    for node in (Atom("p"), NegAtom("p"), And(Atom("p"), Atom("q")),
                 Diamond(Atom("p")), Inclusion((Atom("p"),), (Atom("q"),))):
        assert isinstance(node, Formula)

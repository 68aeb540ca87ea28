"""The benchmark's own generators and references."""

import random

import gen
import pytest

from inclogic import evaluate_circuit, load_circuit, parse_formula, render_formula


@pytest.mark.parametrize("layers", [0, 1, 4, 8])
def test_written_circuit_round_trips_through_load_circuit(layers):
    rng = random.Random(layers)
    for _ in range(5):
        gates = gen.layered_circuit(rng, layers)
        circuit = load_circuit(gen.circuit_text(gates))
        assert len(circuit) == len(gates) == 16 * (layers + 2) - 1
        assert circuit.n_inputs == 16
        assert gen.circuit_depth(gates) == layers + 4
        for _ in range(20):
            bits = [rng.randint(0, 1) for _ in range(16)]
            assert evaluate_circuit(circuit, bits) == gen.circuit_value(gates, bits)


def test_rendered_formulas_parse_back_to_the_same_text():
    rng = random.Random(7)
    for _ in range(50):
        node = gen.random_formula(rng, ["p", "q", "r"], 50)
        assert render_formula(parse_formula(gen.render(node))) == gen.render(node)


def test_kripke_data_has_the_requested_out_degree():
    worlds, edges, valuation = gen.kripke_data(random.Random(3), 1000, ["p"])
    assert len(worlds) == 1000
    assert 9000 < len(edges) < 11000
    assert len(set(edges)) == len(edges)
    assert 400 < len(valuation["p"]) < 600


@pytest.mark.parametrize("want", [True, False])
def test_set_families_have_the_requested_splittability(want):
    from inclogic import SetSplitInstance, split_oracle

    rng = random.Random(11)
    for k in (6, 8, 10):
        sets = gen.set_family(rng, k, 4, want)
        members = [e for s in sets for e in s]
        assert all(len(s) >= 2 for s in sets)
        assert {members.count(e) for e in set(members)} <= {1, 2, 3}
        assert len(set(members)) == k
        assert split_oracle(SetSplitInstance(sets)) is want

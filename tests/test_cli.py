"""The command-line front end, driven through main(argv)."""

import json
import pathlib

import pytest

from inclogic import parse_formula
from inclogic.cli import build_parser, main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

MODEL = str(FIXTURES / "model_six_worlds.json")
ROOTS = str(FIXTURES / "team_roots.json")
PROP_TEAM = str(FIXTURES / "prop_team_three_rows.json")
SPLIT = "((p & [p <= r]) | (q & [q <= r]))"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_line(out: str) -> str:
    return out.splitlines()[0]


def payload_of(out: str):
    lines = out.splitlines()
    if len(lines) == 1:
        return None
    return json.loads("\n".join(lines[1:]))


def test_mc_lax_positive(capsys):
    code, out, _ = run(capsys, "mc", "--model", MODEL, "--team", ROOTS,
                       "--formula", "[]" + SPLIT)
    assert code == 0
    assert first_line(out) == "RESULT: true"


def test_mc_strict_negative(capsys):
    code, out, _ = run(capsys, "mc", "--model", MODEL, "--team", ROOTS,
                       "--formula", "[]" + SPLIT, "--semantics", "strict")
    assert code == 1
    assert first_line(out) == "RESULT: false"


def test_mc_trace_goes_to_stderr(capsys):
    code, out, err = run(capsys, "mc", "--model", MODEL, "--team", ROOTS,
                         "--formula", "[]" + SPLIT, "--trace")
    assert code == 0
    assert "round 1:" in err
    assert "round" not in out


def test_mc_stats_goes_to_stderr(capsys):
    code, _, err = run(capsys, "mc", "--model", MODEL, "--team", ROOTS,
                       "--formula", "[]" + SPLIT, "--semantics", "strict",
                       "--stats")
    assert code == 1
    assert "search states" in err


def test_mc_force_oracle_agrees(capsys):
    for semantics, expected in (("lax", 0), ("strict", 1)):
        code, out, _ = run(capsys, "mc", "--model", MODEL, "--team", ROOTS,
                           "--formula", "[]" + SPLIT, "--semantics", semantics,
                           "--force-oracle")
        assert code == expected


def test_mc_extended_formula_is_preprocessed(capsys):
    code, out, _ = run(capsys, "mc", "--model", MODEL, "--team", ROOTS,
                       "--formula", "[<>p <= <>p]")
    assert code == 0 and first_line(out) == "RESULT: true"


def test_mc_prop_modes(capsys):
    code, out, _ = run(capsys, "mc-prop", "--team", PROP_TEAM, "--formula", SPLIT)
    assert code == 0 and first_line(out) == "RESULT: true"
    code, out, _ = run(capsys, "mc-prop", "--team", PROP_TEAM, "--formula", SPLIT,
                       "--semantics", "strict")
    assert code == 1 and first_line(out) == "RESULT: false"


def test_oracle_subcommands(capsys):
    code, out, _ = run(capsys, "oracle", "mc", "--model", MODEL, "--team", ROOTS,
                       "--formula", "[]" + SPLIT, "--semantics", "lax")
    assert code == 0 and first_line(out) == "RESULT: true"
    code, out, _ = run(capsys, "oracle", "mc-prop", "--team", PROP_TEAM,
                       "--formula", SPLIT, "--semantics", "strict")
    assert code == 1 and first_line(out) == "RESULT: false"


def test_validity_valid_formula(capsys):
    code, out, _ = run(capsys, "validity", "--logic", "plinc-strict",
                       "--formula", "[p <= p]")
    assert code == 0
    assert first_line(out) == "RESULT: valid"
    assert payload_of(out) is None


def test_validity_invalid_formula_carries_witness(capsys):
    code, out, _ = run(capsys, "validity", "--logic", "plinc-lax",
                       "--formula", "[p <= q]")
    assert code == 1
    assert first_line(out) == "RESULT: invalid"
    witness = payload_of(out)["witness"]
    assert witness["domain"] == ["p", "q"]
    assert witness["assignments"] == [[0, 1]]


def test_validity_pl_witness_is_an_assignment(capsys):
    code, out, _ = run(capsys, "validity", "--logic", "pl", "--formula", "(p | q)")
    assert code == 1
    assert payload_of(out)["witness"]["assignment"] == {"p": 0, "q": 0}


def test_validity_bounded_search(capsys):
    code, out, _ = run(capsys, "validity", "--logic", "minc-bounded",
                       "--formula", "(p & !p)", "--max-worlds", "2")
    assert code == 1
    assert first_line(out) == "RESULT: invalid"
    data = payload_of(out)
    assert data["bound"] == {"max_worlds": 2, "max_team": 4}
    assert data["witness"]["team"] == ["u0"]
    code, out, _ = run(capsys, "validity", "--logic", "minc-bounded",
                       "--formula", "(p | !p)", "--max-worlds", "2")
    assert code == 1
    assert first_line(out) == "RESULT: unknown"


def test_translate_inclusion_to_pl(capsys):
    code, out, _ = run(capsys, "translate", "inclusion-to-pl",
                       "--formula", "[p <= q]")
    assert code == 0
    text = payload_of(out)["formula"]
    assert text == "((p & q) | (!p & !q))"
    parse_formula(text)


def test_translate_eminc_val_to_minc(capsys):
    code, out, _ = run(capsys, "translate", "eminc-val-to-minc",
                       "--formula", "[<>p <= q]")
    assert code == 0
    text = payload_of(out)["formula"]
    assert "[f0 <= q]" in text
    parse_formula(text)


def test_translate_eminc_to_minc_needs_model(capsys):
    code, _, err = run(capsys, "translate", "eminc-to-minc",
                       "--formula", "[<>p <= q]")
    assert code == 2 and "requires --model" in err
    code, out, _ = run(capsys, "translate", "eminc-to-minc",
                       "--formula", "[<>p <= q]", "--model", MODEL)
    assert code == 0
    data = payload_of(out)
    assert data["formula"] == "[f0 <= q]"
    assert sorted(data["model"]["valuation"]["f0"]) == ["w1", "w2", "w3"]


def test_gen_mcvp_check(capsys):
    circuit = str(FIXTURES / "circuit_or_and.txt")
    for semantics in ("lax", "strict"):
        code, out, err = run(capsys, "gen", "mcvp", "--circuit", circuit,
                             "--input", "10", "--check", semantics)
        assert code == 0 and first_line(out) == "RESULT: true"
        assert "circuit output 1" in err
        data = payload_of(out)
        assert "[p_top <= p0]" in data["formula"]
        assert data["team"]["domain"][0] == "p0"


def test_gen_mcvp_rejects_bad_input_bits(capsys):
    circuit = str(FIXTURES / "circuit_or_and.txt")
    code, _, err = run(capsys, "gen", "mcvp", "--circuit", circuit,
                       "--input", "1x")
    assert code == 2 and "input" in err


def test_gen_setsplit_check(capsys):
    family = str(FIXTURES / "family_triangle.txt")
    code, out, err = run(capsys, "gen", "setsplit", "--family", family,
                         "--check", "strict")
    assert code == 0 and first_line(out) == "RESULT: true"
    assert "split oracle False, strict check False" in err


def test_gen_dqbf_check(capsys):
    instance = str(FIXTURES / "dqbf_identity.txt")
    code, out, err = run(capsys, "gen", "dqbf", "--instance", instance,
                         "--check", "lax")
    assert code == 0 and first_line(out) == "RESULT: true"
    assert "oracle nonvalid False" in err
    data = payload_of(out)
    parse_formula(data["formula"])


def test_gen_without_check_only_prints_encoding(capsys):
    family = str(FIXTURES / "family_triangle.txt")
    code, out, _ = run(capsys, "gen", "setsplit", "--family", family)
    assert code == 0 and first_line(out) == "RESULT: true"
    assert payload_of(out)["team"]["domain"][-1] == "p_d"


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "mc", "--model", "/nonexistent.json",
                       "--team", ROOTS, "--formula", "p")
    assert code == 2 and err.startswith("error:")


def test_bad_formula_exits_2(capsys):
    code, _, err = run(capsys, "mc-prop", "--team", PROP_TEAM, "--formula", "p &")
    assert code == 2 and err.startswith("error:")


def test_foreign_team_exits_2(capsys):
    code, _, err = run(capsys, "mc", "--model", MODEL, "--team", PROP_TEAM,
                       "--formula", "p")
    assert code == 2 and err.startswith("error:")


def test_deep_strict_search_exit_2(capsys, tmp_path):
    model = _json_file(tmp_path, "model.json",
                       {"worlds": ["u"], "edges": [["u", "u"]], "valuation": {"p": ["u"]}})
    team = _json_file(tmp_path, "team.json", {"team": ["u"]})
    code, out, err = run(capsys, "mc", "--model", model, "--team", team,
                         "--formula", "<>" * 600 + "p", "--semantics", "strict")
    assert code == 2 and out == ""
    assert err.startswith("error: formula nested too deeply")


def test_pl_validity_decides_deep_parentheses(capsys):
    code, out, _ = run(capsys, "validity", "--logic", "pl",
                       "--formula", "(" * 5000 + "p" + " | !p)" * 5000)
    assert code == 0 and first_line(out) == "RESULT: valid"


def _json_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_team_file_root_must_be_an_object(capsys, tmp_path):
    team = _json_file(tmp_path, "team.json", [1, 2])
    code, _, err = run(capsys, "mc-prop", "--team", team, "--formula", "p")
    assert code == 2
    assert err.startswith(f"error: {team}: expected a JSON object")


def test_team_file_missing_field_is_named(capsys, tmp_path):
    team = _json_file(tmp_path, "team.json", {"assignments": [[1]]})
    code, _, err = run(capsys, "mc-prop", "--team", team, "--formula", "p")
    assert code == 2
    assert err.startswith(f"error: {team}: missing field 'domain'")


def test_team_file_string_is_not_a_list(capsys, tmp_path):
    team = _json_file(tmp_path, "team.json", {"team": "ab"})
    code, _, err = run(capsys, "mc", "--model", MODEL, "--team", team, "--formula", "p")
    assert code == 2
    assert err.startswith(f"error: {team}: field 'team' must be a list")


def test_mc_prop_rejects_modal_formulas(capsys):
    for extra in ((), ("--semantics", "strict"), ("--force-oracle",)):
        code, out, err = run(capsys, "mc-prop", "--team", PROP_TEAM,
                             "--formula", "<>p", *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: propositional")


def test_guard_team_defaults_to_each_procedures_own(capsys, tmp_path):
    worlds = [f"w{i}" for i in range(13)]
    model = _json_file(tmp_path, "model.json",
                       {"worlds": worlds, "edges": [], "valuation": {"p": worlds}})
    team = _json_file(tmp_path, "team.json", {"team": worlds})
    strict = ("mc", "--model", model, "--team", team, "--formula", "p",
              "--semantics", "strict")
    code, out, _ = run(capsys, *strict)
    assert code == 0 and first_line(out) == "RESULT: true"
    code, _, err = run(capsys, *strict, "--guard-team", "12")
    assert code == 2 and "exceeds the strict guard of 12" in err
    rows = [[i >> k & 1 for k in range(4)] for i in range(13)]
    prop_team = _json_file(tmp_path, "prop.json",
                           {"domain": ["p", "q", "r", "s"], "assignments": rows})
    code, out, _ = run(capsys, "mc-prop", "--team", prop_team, "--formula", "(p | !p)",
                       "--semantics", "strict")
    assert code == 0
    code, _, err = run(capsys, "oracle", "mc-prop", "--team", prop_team,
                       "--formula", "(p | !p)")
    assert code == 2 and "exceeds the oracle guard of 12" in err


def test_guard_team_bounds_the_modal_oracle(capsys):
    for argv in (("oracle", "mc"), ("mc", "--force-oracle")):
        args = (*argv, "--model", MODEL, "--team", ROOTS, "--formula", "[]" + SPLIT)
        code, out, err = run(capsys, *args, "--guard-team", "1")
        assert code == 2 and out == ""
        assert "team of size 3 exceeds the oracle guard of 1" in err
        code, out, _ = run(capsys, *args, "--guard-team", "3")
        assert code == 0 and first_line(out) == "RESULT: true"


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])

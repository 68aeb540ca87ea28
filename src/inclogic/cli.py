"""Command-line front end.

Every invocation prints exactly one ``RESULT: <verdict>`` line on standard
output, optionally followed by a JSON document (witnesses, encodings,
translations).  Human commentary, traces, and statistics go to standard
error.  Exit status is 0 for positive verdicts (true/valid), 1 for negative
ones (false/invalid/unknown), and 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import InclogicError, InputError
from .laxcheck import eminc_preprocess, lax_check, lax_check_prop
from .oracle import Semantics, eval_team_modal, eval_team_prop
from .reductions import (
    NONVALID,
    dqbf_canonical_sweep,
    dqbf_encode_nonvalidity,
    dqbf_oracle,
    evaluate_circuit,
    load_circuit,
    load_dqbf,
    load_setsplit,
    mcvp_encode,
    setsplit_encode,
    split_oracle,
)
from .strictcheck import SearchStats, strict_check, strict_check_prop
from .structures import (
    Assignment,
    PropTeam,
    load_model,
    load_prop_team,
    load_world_team,
    model_to_json,
    prop_team_to_json,
)
from .syntax import parse_formula
from .validity import (
    eminc_val_to_minc,
    minc_bounded_counterexample,
    pl_validity,
    plinc_lax_validity,
    plinc_strict_validity,
    plinc_to_pl,
)

_POSITIVE = ("true", "valid")


def _load(loader, path: str, *args):
    """Run a structures loader on a JSON file, naming the file in input errors."""
    try:
        return loader(json.loads(Path(path).read_text()), *args)
    except (InclogicError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _mode(name: str) -> Semantics:
    return Semantics.LAX if name == "lax" else Semantics.STRICT


def _trace_printer():
    def trace(round_index, labels):
        sizes = " ".join(str(len(labels[oid])) for oid in sorted(labels))
        print(f"round {round_index}: {sizes}", file=sys.stderr)

    return trace


def _verdict_payload(verdict):
    data = {}
    if verdict.witness is not None:
        witness = verdict.witness
        if isinstance(witness, Assignment):
            data["witness"] = {
                "assignment": {p: witness[p] for p in sorted(witness.domain)}
            }
        elif isinstance(witness, PropTeam):
            data["witness"] = prop_team_to_json(witness)
        else:
            model, team = witness
            data["witness"] = {"model": model_to_json(model), "team": sorted(team)}
    if verdict.bound is not None:
        data["bound"] = {
            "max_worlds": verdict.bound[0],
            "max_team": verdict.bound[1],
        }
    return data or None


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_mc(args):
    model = _load(load_model, args.model)
    team = _load(load_world_team, args.team, model)
    formula = parse_formula(args.formula)
    mode = _mode(args.semantics)
    if args.force_oracle:
        result = eval_team_modal(
            model, team, formula, mode, max_worlds=args.guard_worlds
        )
    elif mode is Semantics.LAX:
        work_model, work_formula = eminc_preprocess(model, formula)
        trace = _trace_printer() if args.trace else None
        result = lax_check(work_model, team, work_formula, trace)
    else:
        stats = SearchStats()
        result = strict_check(
            model, team, formula, max_team=args.guard_team, stats=stats
        )
        if args.stats:
            print(f"explored {stats.explored} search states", file=sys.stderr)
    return ("true" if result else "false"), None


def _cmd_mc_prop(args):
    team = _load(load_prop_team, args.team)
    formula = parse_formula(args.formula)
    mode = _mode(args.semantics)
    if args.force_oracle:
        result = eval_team_prop(team, formula, mode, max_team=args.guard_team)
    elif mode is Semantics.LAX:
        result = lax_check_prop(team, formula)
    else:
        stats = SearchStats()
        result = strict_check_prop(
            team, formula, max_team=args.guard_team, stats=stats
        )
        if args.stats:
            print(f"explored {stats.explored} search states", file=sys.stderr)
    return ("true" if result else "false"), None


def _cmd_oracle(args):
    formula = parse_formula(args.formula)
    mode = _mode(args.semantics)
    if args.kind == "mc":
        model = _load(load_model, args.model)
        team = _load(load_world_team, args.team, model)
        result = eval_team_modal(
            model, team, formula, mode, max_worlds=args.guard_worlds
        )
    else:
        team = _load(load_prop_team, args.team)
        result = eval_team_prop(team, formula, mode, max_team=args.guard_team)
    return ("true" if result else "false"), None


def _cmd_validity(args):
    formula = parse_formula(args.formula)
    if args.logic == "pl":
        verdict = pl_validity(formula)
    elif args.logic == "plinc-strict":
        verdict = plinc_strict_validity(formula)
    elif args.logic == "plinc-lax":
        verdict = plinc_lax_validity(formula)
    else:
        verdict = minc_bounded_counterexample(
            formula,
            max_worlds=args.max_worlds,
            max_team=args.max_team,
            mode=_mode(args.semantics),
        )
    return verdict.status, _verdict_payload(verdict)


def _cmd_translate(args):
    formula = parse_formula(args.formula)
    if args.kind == "inclusion-to-pl":
        payload = {"formula": str(plinc_to_pl(formula))}
    elif args.kind == "eminc-val-to-minc":
        payload = {"formula": str(eminc_val_to_minc(formula))}
    else:
        if args.model is None:
            raise ValueError("translate eminc-to-minc requires --model")
        model = _load(load_model, args.model)
        new_model, new_formula = eminc_preprocess(model, formula)
        payload = {"model": model_to_json(new_model), "formula": str(new_formula)}
    return "true", payload


def _cmd_gen(args):
    if args.kind == "mcvp":
        circuit = load_circuit(Path(args.circuit).read_text())
        if not args.input or set(args.input) - {"0", "1"}:
            raise ValueError("--input must be a non-empty string of 0s and 1s")
        bits = [int(ch) for ch in args.input]
        team, formula = mcvp_encode(circuit, bits)
        payload = {"team": prop_team_to_json(team), "formula": str(formula)}
        if args.check:
            expected = bool(evaluate_circuit(circuit, bits))
            if args.check == "lax":
                got = lax_check_prop(team, formula)
            else:
                got = strict_check_prop(team, formula)
            print(
                f"circuit output {int(expected)}, {args.check} check {got}",
                file=sys.stderr,
            )
            return ("true" if got == expected else "false"), payload
        return "true", payload

    if args.kind == "setsplit":
        inst = load_setsplit(Path(args.family).read_text())
        team, formula = setsplit_encode(inst)
        payload = {"team": prop_team_to_json(team), "formula": str(formula)}
        if args.check:
            expected = split_oracle(inst)
            if args.check == "lax":
                got = lax_check_prop(team, formula)
            else:
                got = strict_check_prop(team, formula)
            print(
                f"split oracle {expected}, {args.check} check {got}",
                file=sys.stderr,
            )
            return ("true" if got == expected else "false"), payload
        return "true", payload

    inst = load_dqbf(Path(args.instance).read_text())
    formula = dqbf_encode_nonvalidity(inst)
    payload = {"formula": str(formula)}
    if args.check:
        expected = dqbf_oracle(inst) == NONVALID
        got = dqbf_canonical_sweep(inst, _mode(args.check))
        print(
            f"oracle nonvalid {expected}, body on canonical models {got}",
            file=sys.stderr,
        )
        return ("true" if got == expected else "false"), payload
    return "true", payload


# ---------------------------------------------------------------------------
# Parser


def _add_guards(parser, *, team=True, worlds=True):
    if team:
        parser.add_argument(
            "--guard-team", type=int, default=12, metavar="N",
            help="team-size guard for exhaustive procedures",
        )
    if worlds:
        parser.add_argument(
            "--guard-worlds", type=int, default=12, metavar="N",
            help="world-count guard for exhaustive procedures",
        )


def _add_semantics(parser):
    parser.add_argument(
        "--semantics", choices=("lax", "strict"), default="lax",
        help="disjunction/diamond splitting rule (default: lax)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inclogic",
        description="Model checking and validity for inclusion logics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mc = sub.add_parser("mc", help="modal model checking")
    mc.add_argument("--model", required=True, help="Kripke model JSON file")
    mc.add_argument("--team", required=True, help="world team JSON file")
    mc.add_argument("--formula", required=True)
    _add_semantics(mc)
    mc.add_argument("--force-oracle", action="store_true",
                    help="use the brute-force evaluator instead")
    mc.add_argument("--trace", action="store_true",
                    help="print labelling rounds to stderr")
    mc.add_argument("--stats", action="store_true",
                    help="print strict-search statistics to stderr")
    _add_guards(mc)
    mc.set_defaults(handler=_cmd_mc)

    mcp = sub.add_parser("mc-prop", help="propositional model checking")
    mcp.add_argument("--team", required=True, help="propositional team JSON file")
    mcp.add_argument("--formula", required=True)
    _add_semantics(mcp)
    mcp.add_argument("--force-oracle", action="store_true",
                     help="use the brute-force evaluator instead")
    mcp.add_argument("--stats", action="store_true",
                     help="print strict-search statistics to stderr")
    _add_guards(mcp, worlds=False)
    mcp.set_defaults(handler=_cmd_mc_prop)

    oracle = sub.add_parser("oracle", help="brute-force evaluators")
    okind = oracle.add_subparsers(dest="kind", required=True)
    omc = okind.add_parser("mc", help="modal brute force")
    omc.add_argument("--model", required=True)
    omc.add_argument("--team", required=True)
    omc.add_argument("--formula", required=True)
    _add_semantics(omc)
    _add_guards(omc)
    omc.set_defaults(handler=_cmd_oracle, kind="mc")
    omcp = okind.add_parser("mc-prop", help="propositional brute force")
    omcp.add_argument("--team", required=True)
    omcp.add_argument("--formula", required=True)
    _add_semantics(omcp)
    _add_guards(omcp, worlds=False)
    omcp.set_defaults(handler=_cmd_oracle, kind="mc-prop")

    val = sub.add_parser("validity", help="validity procedures")
    val.add_argument(
        "--logic",
        required=True,
        choices=("pl", "plinc-strict", "plinc-lax", "minc-bounded"),
    )
    val.add_argument("--formula", required=True)
    val.add_argument("--max-worlds", type=int, default=3,
                     help="bounded-search model size (minc-bounded)")
    val.add_argument("--max-team", type=int, default=4,
                     help="bounded-search team size (minc-bounded)")
    _add_semantics(val)
    val.set_defaults(handler=_cmd_validity)

    tr = sub.add_parser("translate", help="formula translations")
    tr.add_argument(
        "kind",
        choices=("eminc-to-minc", "eminc-val-to-minc", "inclusion-to-pl"),
    )
    tr.add_argument("--formula", required=True)
    tr.add_argument("--model", help="model JSON file (eminc-to-minc)")
    tr.set_defaults(handler=_cmd_translate)

    gen = sub.add_parser("gen", help="hardness-encoding generators")
    gkind = gen.add_subparsers(dest="kind", required=True)
    gmcvp = gkind.add_parser("mcvp", help="circuit value encoding")
    gmcvp.add_argument("--circuit", required=True, help="circuit text file")
    gmcvp.add_argument("--input", required=True, help="input bits, e.g. 101")
    gmcvp.add_argument("--check", choices=("lax", "strict"),
                       help="run the check and compare with the circuit oracle")
    gmcvp.set_defaults(handler=_cmd_gen, kind="mcvp")
    gsplit = gkind.add_parser("setsplit", help="set-splitting encoding")
    gsplit.add_argument("--family", required=True, help="family text file")
    gsplit.add_argument("--check", choices=("lax", "strict"),
                        help="run the check and compare with the splitting oracle")
    gsplit.set_defaults(handler=_cmd_gen, kind="setsplit")
    gdqbf = gkind.add_parser("dqbf", help="DQBF non-validity encoding")
    gdqbf.add_argument("--instance", required=True, help="instance text file")
    gdqbf.add_argument("--check", choices=("lax", "strict"),
                       help="sweep canonical models and compare with the oracle")
    gdqbf.set_defaults(handler=_cmd_gen, kind="dqbf")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        verdict, payload = args.handler(args)
    except (InclogicError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply for the recursive parts (parenthesis "
              "depth, strict and oracle searches)", file=sys.stderr)
        return 2
    print(f"RESULT: {verdict}")
    if payload is not None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if verdict in _POSITIVE else 1


if __name__ == "__main__":
    sys.exit(main())

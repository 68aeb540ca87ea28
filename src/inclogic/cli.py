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
from functools import partial
from pathlib import Path

from .errors import InclogicError, InputError, SizeGuardError
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


def _cmd_check(args):
    """mc and mc-prop, and their brute-force twins under oracle."""
    guard = {} if args.guard_team is None else {"max_team": args.guard_team}
    if args.kind == "mc":
        model = _load(load_model, args.model)
        team = _load(load_world_team, args.team, model)
        oracle = partial(_modal_oracle, model, args.guard_worlds, args.guard_team)
        lax = partial(lax_check, model, trace=_trace_printer() if args.trace else None)
        strict = partial(strict_check, model)
    else:
        team = _load(load_prop_team, args.team)
        oracle = partial(eval_team_prop, **guard)
        lax, strict = lax_check_prop, strict_check_prop
    formula = parse_formula(args.formula)
    mode = _mode(args.semantics)
    if args.force_oracle:
        result = oracle(team, formula, mode)
    elif mode is Semantics.LAX:
        result = lax(team, formula)
    else:
        stats = SearchStats()
        result = strict(team, formula, stats=stats, **guard)
        if args.stats:
            print(f"explored {stats.explored} search states", file=sys.stderr)
    return ("true" if result else "false"), None


def _modal_oracle(model, max_worlds, max_team, team, formula, mode):
    """eval_team_modal under the CLI's guards; it has no team guard of its own."""
    if max_team is not None and len(team) > max_team:
        raise SizeGuardError(f"team of size {len(team)} exceeds the oracle guard of {max_team}")
    return eval_team_modal(model, team, formula, mode, max_worlds=max_worlds)


def _cmd_validity(args):
    formula = parse_formula(args.formula)
    if args.logic == "pl":
        verdict = pl_validity(formula)
    elif args.logic in ("plinc-strict", "plinc-lax"):
        verdict = plinc_strict_validity(formula)
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
    if args.kind == "dqbf":
        inst = load_dqbf(Path(args.instance).read_text())
        formula = dqbf_encode_nonvalidity(inst)
        payload = {"formula": str(formula)}
        oracle_name, oracle = "oracle nonvalid", lambda: dqbf_oracle(inst) == NONVALID
        check_name = "body on canonical models"
        check = lambda: dqbf_canonical_sweep(inst, _mode(args.check))
    else:
        if args.kind == "mcvp":
            circuit = load_circuit(Path(args.circuit).read_text())
            if not args.input or set(args.input) - {"0", "1"}:
                raise ValueError("--input must be a non-empty string of 0s and 1s")
            bits = [int(ch) for ch in args.input]
            team, formula = mcvp_encode(circuit, bits)
            oracle_name, oracle = "circuit output", lambda: evaluate_circuit(circuit, bits)
        else:
            inst = load_setsplit(Path(args.family).read_text())
            team, formula = setsplit_encode(inst)
            oracle_name, oracle = "split oracle", lambda: split_oracle(inst)
        payload = {"team": prop_team_to_json(team), "formula": str(formula)}
        check_name = f"{args.check} check"
        checker = lax_check_prop if args.check == "lax" else strict_check_prop
        check = lambda: checker(team, formula)
    if not args.check:
        return "true", payload
    expected, got = oracle(), check()
    print(f"{oracle_name} {expected}, {check_name} {got}", file=sys.stderr)
    return ("true" if got == expected else "false"), payload


# ---------------------------------------------------------------------------
# Parser


def _add_semantics(parser):
    parser.add_argument(
        "--semantics", choices=("lax", "strict"), default="lax",
        help="disjunction/diamond splitting rule (default: lax)",
    )


def _add_check(sub, kind, help, *, oracle=False):
    """An ``mc`` (world team) or ``mc-prop`` (propositional team) subcommand;
    under ``oracle`` it always runs the brute-force evaluator."""
    cmd = sub.add_parser(kind, help=help)
    if kind == "mc":
        cmd.add_argument("--model", required=True, help="Kripke model JSON file")
        cmd.add_argument("--team", required=True, help="world team JSON file")
    else:
        cmd.add_argument("--team", required=True, help="propositional team JSON file")
    cmd.add_argument("--formula", required=True)
    _add_semantics(cmd)
    if not oracle:
        cmd.add_argument("--force-oracle", action="store_true",
                         help="use the brute-force evaluator instead")
        if kind == "mc":
            cmd.add_argument("--trace", action="store_true",
                             help="print labelling rounds to stderr")
        cmd.add_argument("--stats", action="store_true",
                         help="print strict-search statistics to stderr")
    cmd.add_argument("--guard-team", type=int, metavar="N",
                     help="team-size guard for exhaustive procedures (default: the "
                          "procedure's own, 16 strict, 12 propositional oracle, none "
                          "for the modal oracle)")
    if kind == "mc":
        cmd.add_argument("--guard-worlds", type=int, default=12, metavar="N",
                         help="world-count guard for exhaustive procedures")
    cmd.set_defaults(handler=_cmd_check, kind=kind, force_oracle=oracle, trace=False, stats=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inclogic",
        description="Model checking and validity for inclusion logics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_check(sub, "mc", "modal model checking")
    _add_check(sub, "mc-prop", "propositional model checking")
    oracle = sub.add_parser("oracle", help="brute-force evaluators")
    okind = oracle.add_subparsers(dest="kind", required=True)
    _add_check(okind, "mc", "modal brute force", oracle=True)
    _add_check(okind, "mc-prop", "propositional brute force", oracle=True)

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
        print("error: formula nested too deeply for the recursive parts (strict and "
              "oracle searches)", file=sys.stderr)
        return 2
    print(f"RESULT: {verdict}")
    if payload is not None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if verdict in _POSITIVE else 1


if __name__ == "__main__":
    sys.exit(main())

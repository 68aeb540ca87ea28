"""The four benchmark workloads.

A workload turns a seed into a corpus of plain-data items (``corpus``), turns
items into program input objects during the timed set-up (``build``), makes
one timed call per instance (``call``) and checks the outcome against a
reference outside the timed region (``check``, which returns ``None`` or a
message).  ``refresh`` rebuilds the per-instance formula objects before a
corpus is run again, so no instance reuses state the program cached on an
earlier pass.

Calls go through module attributes looked up at call time
(``lib.laxcheck.lax_check``), so the traced run sees its wrappers and the
untimed run sees the program's own functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import gen
from witness import check_lax_witness

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / ".out"


def interleave(strata):
    """Merge lists so every prefix holds each list in proportion to its length."""
    keyed = []
    for s, items in enumerate(strata):
        keyed += [((i + 0.5) / len(items), s, item) for i, item in enumerate(items)]
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [item for _, _, item in keyed]


class Instance:
    """One unit of timed work: the plain-data item and its program objects."""

    __slots__ = ("item", "obj")

    def __init__(self, item, obj=None):
        self.item = item
        self.obj = obj


# ---------------------------------------------------------------------------


class LaxKripke:
    """``lax_check`` on random 1000- and 3000-world models.

    Every run uses all ``MODELS`` pool models of each size; from each model's
    recorded instance pool the seed draws a fixed number of true and of false
    instances, so runs differ in their instances but not in their mix.
    Verdicts recorded in ``expected/lax_kripke.json`` are a regression
    reference taken from the program; true verdicts are also certified by a
    local witness check of the labelling (``witness.py``), which is
    independent of the checker.
    """

    name = "lax_kripke"
    NAMES = ("p", "q", "r")
    MODELS = 6
    POOL = {1000: 200, 3000: 66}
    TAKE = {1000: 25, 3000: 8}  # per model, half true and half false
    FORMULA_SIZE = 50
    EXPECTED = BENCH_DIR / "expected" / "lax_kripke.json"

    @staticmethod
    def model_data(size, j):
        return gen.kripke_data(random.Random(f"lax_kripke:model:{size}:{j}"), size,
                               LaxKripke.NAMES)

    @staticmethod
    def pool(size, j):
        rng = random.Random(f"lax_kripke:pool:{size}:{j}")
        out = []
        for _ in range(LaxKripke.POOL[size]):
            text = gen.render(gen.random_formula(rng, LaxKripke.NAMES, LaxKripke.FORMULA_SIZE))
            team = sorted(rng.sample(range(size), rng.randint(1, size // 2)))
            out.append((text, team))
        return out

    @staticmethod
    def digest(data, pool) -> str:
        blob = json.dumps([data, pool], separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def corpus(self, seed):
        rng = random.Random(f"lax_kripke:{seed}")
        expected = json.loads(self.EXPECTED.read_text())["models"]
        self.models = {}
        strata = []
        for size in sorted(self.POOL):
            for j in range(self.MODELS):
                key = f"{size}/{j}"
                data = self.model_data(size, j)
                pool = self.pool(size, j)
                record = expected[key]
                if record["digest"] != self.digest(data, pool):
                    raise RuntimeError(f"recorded verdicts for model {key} are stale; "
                                       "re-run bench/record_expected.py")
                self.models[key] = data
                worlds = data[0]
                for verdict in ("1", "0"):
                    share = (self.TAKE[size] + (verdict == "1")) // 2
                    matching = [i for i, v in enumerate(record["verdicts"]) if v == verdict]
                    strata.append([
                        (key, pool[i][0], [worlds[w] for w in pool[i][1]], verdict == "1")
                        for i in rng.sample(matching, share)
                    ])
        return interleave(strata)

    def build(self, lib, corpus):
        kripke = lib.structures.KripkeModel
        built = {key: kripke(*data) for key, data in self.models.items()}
        return [Instance(item, (built[item[0]], frozenset(item[2]),
                                lib.syntax.parse_formula(item[1])))
                for item in corpus]

    def refresh(self, lib, insts):
        for inst in insts:
            model, team, _ = inst.obj
            inst.obj = (model, team, lib.syntax.parse_formula(inst.item[1]))

    def call(self, lib, inst):
        model, team, formula = inst.obj
        return lib.laxcheck.lax_check(model, team, formula)

    def check(self, lib, inst, verdict):
        expected = inst.item[3]
        if verdict is not expected:
            return f"lax verdict {verdict}, recorded {expected}"
        if verdict:
            model, team, formula = inst.obj
            labels = lib.laxcheck.lax_labelling(model, team, formula).labels
            return check_lax_witness(model, team, formula, labels)
        return None


# ---------------------------------------------------------------------------


class McvpCli:
    """One ``inclogic gen mcvp --check lax`` process per instance.

    Circuits are layered (16 inputs, 16 gates per layer, a balanced top), so
    the labelling's round count grows with depth; half of the input bits are
    1.  The reference is the circuit value computed by ``gen.circuit_value``.
    """

    name = "mcvp_cli"
    LAYERS = (4, 5)
    PER_LAYER = 15
    CHILD = "import sys\nfrom inclogic.cli import main\nsys.exit(main(sys.argv[1:]))"
    _LINE = re.compile(r"circuit output (\d), lax check (True|False)")

    def corpus(self, seed):
        rng = random.Random(f"mcvp_cli:{seed}")
        folder = OUT / "mcvp" / str(seed)
        folder.mkdir(parents=True, exist_ok=True)
        strata = []
        for layers in self.LAYERS:
            stratum = []
            for k in range(self.PER_LAYER):
                gates = gen.layered_circuit(rng, layers)
                bits = rng.sample([0, 1] * 8, 16)
                path = folder / f"L{layers}_{k}.txt"
                path.write_text(gen.circuit_text(gates))
                rows = sum(g[0] != "INPUT" for g in gates) + sum(bits) + 1
                stratum.append((str(path), "".join(map(str, bits)),
                                gen.circuit_value(gates, bits), rows))
            strata.append(stratum)
        return interleave(strata)

    def argv(self, item):
        return ["gen", "mcvp", "--circuit", item[0], "--input", item[1], "--check", "lax"]

    @staticmethod
    def child_env():
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        return env

    def build(self, lib, corpus):
        return [Instance(item) for item in corpus]

    def refresh(self, lib, insts):
        pass

    def call(self, lib, inst):
        proc = subprocess.run([sys.executable, "-c", self.CHILD, *self.argv(inst.item)],
                              cwd=ROOT, env=self.child_env(), capture_output=True, text=True,
                              timeout=170)
        return proc.returncode, proc.stdout, proc.stderr

    def call_in_process(self, lib, inst):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(self.argv(inst.item))
        return code, out.getvalue(), err.getvalue()

    def check(self, lib, inst, outcome):
        code, out, err = outcome
        value, rows = inst.item[2], inst.item[3]
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        match = self._LINE.search(err)
        if match is None:
            return "no check line on stderr"
        if int(match.group(1)) != value or (match.group(2) == "True") != bool(value):
            return f"stderr says {match.group(0)!r}, circuit value is {value}"
        head, _, body = out.partition("\n")
        if head != "RESULT: true":
            return f"stdout starts {head!r}"
        payload = json.loads(body)
        if len(payload["team"]["assignments"]) != rows:
            return "encoded team has the wrong number of rows"
        if not payload["formula"].startswith("(!p_bot | "):
            return "encoded formula has the wrong shape"
        return None


# ---------------------------------------------------------------------------


class StrictSetsplit:
    """``strict_check_prop`` on set-splitting encodings.

    Fixed strata per corpus: splittable families at 8-11 elements and
    unsplittable ones, where the search must exhaust every bipartition.  The
    32 splittable families decide within a few milliseconds; the 36
    unsplittable 8-element ones take the next ranks, so the median falls in
    the middle of that one stratum, where samples are dense, rather than on
    a step between strata, where it moved by a third from seed to seed.  The
    reference is ``gen.splittable``.
    """

    name = "strict_setsplit"
    SPLITTABLE = {8: 8, 9: 8, 10: 8, 11: 8}
    UNSPLITTABLE = {8: 36, 9: 10, 10: 20, 11: 2}

    def corpus(self, seed):
        rng = random.Random(f"strict_setsplit:{seed}")
        strata = []
        for want, counts in ((True, self.SPLITTABLE), (False, self.UNSPLITTABLE)):
            for k, count in counts.items():
                strata.append([(gen.set_family(rng, k, rng.randint(3, 5), want), want)
                               for _ in range(count)])
        return interleave(strata)

    def _encode(self, lib, item):
        inst = lib.reductions.SetSplitInstance(item[0])
        team, formula = lib.reductions.setsplit_encode(inst)
        return inst, team, formula

    def build(self, lib, corpus):
        return [Instance(item, self._encode(lib, item)) for item in corpus]

    def refresh(self, lib, insts):
        for inst in insts:
            inst.obj = self._encode(lib, inst.item)

    def call(self, lib, inst):
        _, team, formula = inst.obj
        stats = lib.strictcheck.SearchStats()
        return lib.strictcheck.strict_check_prop(team, formula, stats=stats), stats.explored

    def check(self, lib, inst, outcome):
        verdict, _ = outcome
        want = inst.item[1]
        if verdict != want:
            return f"strict verdict {verdict}, family splittable: {want}"
        if lib.reductions.split_oracle(inst.obj[0]) != want:
            return "the program's split_oracle disagrees with the brute-force reference"
        return None


# ---------------------------------------------------------------------------


class BoundedValidity:
    """Bounded counterexample search over formulas of known validity.

    Kinds: ``lax`` and ``strict`` run ``minc_bounded_counterexample`` at 3
    worlds on the formula itself; ``translated`` runs ``eminc_val_to_minc``
    and then the lax search on the translation, at 3 worlds for invalid
    formulas and 2 for valid ones (a valid translation at 3 worlds takes 4-8 s,
    which would leave a handful of samples per run).  Valid formulas must come
    back ``unknown``; every ``invalid`` witness is re-checked with the
    brute-force ``eval_team_modal``.
    """

    name = "bounded_validity"
    STRATA = (
        # (valid?, kind, count per corpus)
        (True, "lax", 30),
        (True, "strict", 14),
        (True, "translated", 24),
        (False, "lax", 10),
        (False, "strict", 10),
        (False, "translated", 10),
    )

    def corpus(self, seed):
        rng = random.Random(f"bounded_validity:{seed}")
        strata = []
        for valid, kind, count in self.STRATA:
            stratum = []
            for i in range(count):
                if valid:
                    shape = ("incl", "flat", "both")[i % 3] if kind != "translated" else "incl"
                    f = gen.valid_formula(rng, shape)
                else:
                    f = gen.invalid_formula(rng)
                stratum.append((gen.render(f), kind, valid))
            strata.append(stratum)
        return interleave(strata)

    def build(self, lib, corpus):
        return [Instance(item, lib.syntax.parse_formula(item[0])) for item in corpus]

    def refresh(self, lib, insts):
        for inst in insts:
            inst.obj = lib.syntax.parse_formula(inst.item[0])

    def call(self, lib, inst):
        validity = lib.validity
        kind, valid = inst.item[1], inst.item[2]
        formula = inst.obj
        if kind == "translated":
            formula = validity.eminc_val_to_minc(formula)
            return formula, validity.minc_bounded_counterexample(
                formula, max_worlds=2 if valid else 3)
        mode = lib.oracle.Semantics.STRICT if kind == "strict" else lib.oracle.Semantics.LAX
        return formula, validity.minc_bounded_counterexample(formula, max_worlds=3, mode=mode)

    def check(self, lib, inst, outcome):
        formula, verdict = outcome
        kind, valid = inst.item[1], inst.item[2]
        want = "unknown" if valid else "invalid"
        if verdict.status != want:
            return f"{kind} search says {verdict.status}, expected {want}"
        if verdict.status == "invalid":
            model, team = verdict.witness
            semantics = lib.oracle.Semantics
            mode = semantics.STRICT if kind == "strict" else semantics.LAX
            if lib.oracle.eval_team_modal(model, team, formula, mode):
                return "the brute-force oracle satisfies the reported witness"
        return None


WORKLOADS = {w.name: w for w in (LaxKripke, McvpCli, StrictSetsplit, BoundedValidity)}

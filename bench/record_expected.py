"""Record the regression reference for the ``lax_kripke`` workload.

Runs ``lax_check`` on every instance of every pool model and writes the
verdicts, with a digest of the inputs, to ``expected/lax_kripke.json``.  The
verdicts come from the program itself, so they catch changes in behaviour, not
defects already present when they were recorded.  True verdicts are certified
by the witness check before they are written.  Takes a few minutes::

    python3 bench/record_expected.py
"""

from __future__ import annotations

import json
import sys

from run import import_program
from witness import check_lax_witness
from workloads import LaxKripke


def main() -> int:
    lib = import_program()
    models = {}
    for size in sorted(LaxKripke.POOL):
        for j in range(LaxKripke.MODELS):
            data = LaxKripke.model_data(size, j)
            pool = LaxKripke.pool(size, j)
            model = lib.structures.KripkeModel(*data)
            worlds = data[0]
            bits = []
            for text, team_indices in pool:
                formula = lib.syntax.parse_formula(text)
                team = frozenset(worlds[w] for w in team_indices)
                verdict = lib.laxcheck.lax_check(model, team, formula)
                if verdict:
                    labels = lib.laxcheck.lax_labelling(model, team, formula).labels
                    problem = check_lax_witness(model, team, formula, labels)
                    if problem:
                        raise SystemExit(f"model {size}/{j}: {problem}")
                bits.append("1" if verdict else "0")
            key = f"{size}/{j}"
            models[key] = {"digest": LaxKripke.digest(data, pool), "verdicts": "".join(bits)}
            print(f"{key}: {bits.count('1')}/{len(bits)} true", file=sys.stderr)
    LaxKripke.EXPECTED.parent.mkdir(exist_ok=True)
    LaxKripke.EXPECTED.write_text(json.dumps({"models": models}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

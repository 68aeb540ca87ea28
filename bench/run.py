"""Seeded benchmark for inclogic: lax, strict, bounded-validity and CLI checking.

Usage, from the repository root::

    python3 bench/run.py --workload lax_kripke --seed 1 --seconds 20 --trace 0

The load is a closed loop in one process: one instance at a time, each timed
alone; the ``mcvp_cli`` workload runs at most one child process at a time.
Every outcome is checked against a reference outside the timed region.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced pass (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from types import SimpleNamespace

from tracing import MODULES, WALKERS, Tracer
from workloads import OUT, ROOT, SRC, WORKLOADS, McvpCli

SETUP_REPS = 15
# Stop drawing instances this long after start, so that the process ends
# within 180 s even on a slow machine; a run of --seconds 20 needs under 60 s.
DEADLINE_S = 150.0
_STARTED = time.perf_counter()


# ---------------------------------------------------------------------------
# Importing the program under test


def _purge():
    for name in [m for m in sys.modules if m == "inclogic" or m.startswith("inclogic.")]:
        del sys.modules[name]


def import_program():
    """Import ``inclogic`` from this checkout's ``src`` and return its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    package = importlib.import_module("inclogic")
    location = getattr(package, "__file__", None) or ""
    if not location.startswith(str(SRC)):
        raise ImportError(f"inclogic was imported from {location!r}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"inclogic.{m}") for m in MODULES})


def child_seconds(code: str) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=McvpCli.child_env(),
                   check=True, timeout=60)
    return time.perf_counter() - started


def set_up(wl, corpus):
    """One fresh set-up: purge ``inclogic``, import it and build the inputs.

    Returns (seconds, lib, insts).  The benchmark's own heap is frozen first,
    so the cyclic collector walks only what the set-up creates.
    """
    _purge()
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        lib = import_program()
        insts = wl.build(lib, corpus)
        elapsed = time.perf_counter() - started
    finally:
        gc.unfreeze()
    return elapsed, lib, insts


def past_deadline() -> bool:
    return time.perf_counter() - _STARTED >= DEADLINE_S


# ---------------------------------------------------------------------------
# The closed loop


def run_one(wl, lib, inst, call, n, tracer=None):
    """Time one call, then check its outcome outside the timed region.

    Returns (seconds, outcome, error message or None).  A call that raises is
    a failed instance.  With a tracer, the call's spans go to group
    ("run", n) and the check's to ("check", n).
    """

    def group(kind):
        return tracer.instance((kind, n)) if tracer else contextlib.nullcontext()

    error = outcome = None
    started = time.perf_counter()
    try:
        with group("run"):
            outcome = call(lib, inst)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    if error is None:
        try:
            with group("check"):
                error = wl.check(lib, inst, outcome)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, outcome, error


def describe(inst):
    return inst.item[:2] if isinstance(inst.item, tuple) else inst.item


def run_loop(wl, corpus, call, seconds):
    """Run instances one at a time until ``seconds`` of timed work.

    The set-up is repeated ``SETUP_REPS`` times, spread evenly over the timed
    work, so that its median samples the machine over the same span as the
    instances.  Each repetition first releases the previous program and
    inputs, then replaces them.  At least one instance runs, even past the
    deadline.  Returns (set-up times, per-instance times, failures, timed
    total).
    """
    setups, samples, failures = [], [], []
    timed = 0.0
    lib = insts = None
    i = 0
    while not samples or (timed < seconds and not past_deadline()):
        if len(setups) < SETUP_REPS and timed >= len(setups) * seconds / SETUP_REPS:
            lib = insts = None
            elapsed, lib, insts = set_up(wl, corpus)
            setups.append(elapsed)
        if i == len(insts):
            wl.refresh(lib, insts)
            i = 0
        elapsed, _, error = run_one(wl, lib, insts[i], call, len(samples))
        if error is not None:
            failures.append((len(samples), describe(insts[i]), error))
        timed += elapsed
        samples.append(elapsed)
        i += 1
    lib = insts = None
    while len(setups) < SETUP_REPS and not past_deadline():
        setups.append(set_up(wl, corpus)[0])
    return setups, samples, failures, timed


# ---------------------------------------------------------------------------
# Metrics


def tail(samples):
    """The highest nearest-rank percentile with at least ten samples above it,
    as (value, percentile, samples above).  With ten or fewer samples, the
    maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 11 if n > 10 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def end_to_end(wl, setups, samples, failures, timed):
    attempted = len(samples)
    decided = attempted - len(failures)
    value, pct, beyond = tail(samples)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if isinstance(wl, McvpCli) else resource.RUSAGE_SELF)
    metrics = {
        "verdict_ms_p50": (statistics.median(samples) * 1000, "ms"),
        "verdict_ms_tail": (value * 1000, "ms"),
        "instances_per_s": (decided / timed, "1/s"),
        "ok_rate": (decided / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
    }
    notes = {
        "verdict_ms_p50": f"median of {attempted} samples",
        "verdict_ms_tail": f"p{pct:.1f} of {attempted} samples, {beyond} beyond",
        "instances_per_s": f"{decided} decided in {timed:.2f} s of timed work",
        "ok_rate": f"fail_rate {len(failures) / attempted:.4f} ({len(failures)}/{attempted})",
        "setup_s": f"median of {len(setups)} set-ups spread over the run",
        "peak_rss_mb": "largest child" if isinstance(wl, McvpCli) else "this process",
    }
    return metrics, notes


def layer_metrics(spans, n_setup, n_run):
    """Per-layer metrics from traced spans, per instance unless noted.

    Set-up spans are divided by the number of instances set up, spans of the
    traced pass by the number of instances run.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    raw = {kind: defaultdict(lambda: [0, 0.0, 0.0, 0]) for kind in ("setup", "run", "check")}
    extras = defaultdict(list)
    for index, (group, name, start, end, parent, extra) in enumerate(spans):
        kind = group[0]
        if kind == "check" and name not in ("reductions.evaluate_circuit",
                                            "reductions.split_oracle"):
            continue
        row = raw[kind][name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[index]
        if parent >= 0 and spans[parent][1] == "validity.minc_bounded_counterexample":
            row[3] += 1
        if extra:
            extras[name].append(extra)

    def per_instance(column):
        table = defaultdict(float)
        for kind, count in (("setup", n_setup), ("run", n_run), ("check", n_run)):
            for name, row in raw[kind].items():
                table[name] += row[column] / max(1, count)
        return table

    calls, total, own, under_search = (per_instance(c) for c in range(4))

    def sum_of(names, table):
        return sum(table[n] for n in names)

    labelling = extras["laxcheck.lax_labelling"]
    rounds = [e["rounds"] for e in labelling if "rounds" in e]
    strict = [e["states"] for e in extras["strictcheck.strict_check"]]
    labelling_total = raw["run"]["laxcheck.lax_labelling"][1]
    strict_total = raw["run"]["strictcheck.strict_check"][1]
    return {
        "syntax.parse_s": (total["syntax.parse_formula"], "s"),
        "syntax.walk_calls": (sum_of(WALKERS, calls), "count"),
        "syntax.walk_s": (sum_of(WALKERS, total), "s"),
        "structures.models_built": (calls["structures.KripkeModel"], "count"),
        "structures.model_build_s": (total["structures.KripkeModel"], "s"),
        "structures.r_image_calls": (calls["structures.r_image"], "count"),
        "structures.r_image_s": (total["structures.r_image"], "s"),
        "oracle.truth_set_calls": (calls["oracle.ml_truth_set"], "count"),
        "oracle.truth_set_s": (total["oracle.ml_truth_set"], "s"),
        "laxcheck.check_calls": (calls["laxcheck.lax_check"], "count"),
        "laxcheck.labelling_s": (own["laxcheck.lax_labelling"], "s"),
        "laxcheck.check_self_s": (own["laxcheck.lax_check"], "s"),
        "laxcheck.eminc_s": (total["laxcheck.eminc_preprocess"], "s"),
        "laxcheck.embed_s": (total["laxcheck.embed_prop_team"], "s"),
        "laxcheck.rounds_mean": (statistics.fmean(rounds) if rounds else 0.0, "count"),
        "laxcheck.rounds_max": (max(rounds, default=0), "count"),
        "laxcheck.round_ms": (1000 * labelling_total / sum(rounds) if rounds else 0.0, "ms"),
        "laxcheck.changed_label_ratio": (
            sum(e["changed"] for e in labelling) / max(1, sum(e["recomputed"] for e in labelling)),
            "ratio"),
        "laxcheck.occurrences": (
            statistics.fmean(e["occurrences"] for e in labelling) if rounds else 0.0, "count"),
        "laxcheck.team_size": (
            statistics.fmean(e["team"] for e in labelling) if rounds else 0.0, "count"),
        "strictcheck.check_calls": (calls["strictcheck.strict_check"], "count"),
        "strictcheck.check_s": (total["strictcheck.strict_check"], "s"),
        "strictcheck.states": (sum(strict) / max(1, n_run), "count"),
        "strictcheck.states_max": (max(strict, default=0), "count"),
        "strictcheck.us_per_state": (1e6 * strict_total / sum(strict) if sum(strict) else 0.0,
                                     "us"),
        "validity.search_self_s": (own["validity.minc_bounded_counterexample"], "s"),
        "validity.models_tried": (under_search["structures.KripkeModel"], "count"),
        "validity.teams_tried": (under_search["laxcheck.lax_check"]
                                 + under_search["strictcheck.strict_check"], "count"),
        "validity.translate_s": (total["validity.eminc_val_to_minc"], "s"),
        "reductions.load_s": (total["reductions.load_circuit"], "s"),
        "reductions.encode_s": (total["reductions.mcvp_encode"]
                                + total["reductions.setsplit_encode"], "s"),
        "reductions.reference_s": (total["reductions.evaluate_circuit"]
                                   + total["reductions.split_oracle"], "s"),
        "cli.main_self_s": (own["cli.main"], "s"),
    }


def traced_run(wl, corpus, seconds):
    """Run each instance once untraced and once traced, alternating which
    goes first, on freshly built inputs, until ``seconds / 2`` of untraced
    work; per-layer metrics come from the traced runs."""
    lib = import_program()
    tracer = Tracer()
    with tracer.install(), tracer.instance(("setup", 0)):
        insts = wl.build(lib, corpus)
    call = wl.call_in_process if isinstance(wl, McvpCli) else wl.call
    timed = {False: 0.0, True: 0.0}
    failures, payload = [], []
    n = 0
    while timed[False] < seconds / 2 and not past_deadline():
        inst = insts[n % len(insts)]
        for traced in (False, True) if n % 2 == 0 else (True, False):
            wl.refresh(lib, [inst])
            with tracer.install() if traced else contextlib.nullcontext():
                elapsed, outcome, error = run_one(wl, lib, inst, call, n,
                                                  tracer if traced else None)
            timed[traced] += elapsed
            if error is not None:
                failures.append((n, describe(inst), error))
            elif traced and isinstance(wl, McvpCli):
                payload.append(len(outcome[1]) / 1024)
        n += 1
    metrics = layer_metrics(tracer.spans, len(corpus), n)
    if isinstance(wl, McvpCli):
        bare = statistics.median(child_seconds("pass") for _ in range(5))
        full = statistics.median(child_seconds("import inclogic.cli") for _ in range(5))
        metrics["cli.import_s"] = (full - bare, "s")
        metrics["cli.payload_kb"] = (statistics.fmean(payload) if payload else 0.0, "KB")
    else:
        metrics["cli.import_s"] = (0.0, "s")
        metrics["cli.payload_kb"] = (0.0, "KB")
    metrics["trace.instances"] = (n, "count")
    metrics["trace.untraced_s"] = (timed[False], "s")
    metrics["trace.overhead_s"] = (timed[True] - timed[False], "s")
    metrics["trace.overhead_ratio"] = (timed[True] / timed[False] - 1, "ratio")
    write_spans(wl.name, tracer.spans)
    return metrics, 2 * n, failures


def write_spans(workload, spans):
    folder = OUT / "trace"
    folder.mkdir(parents=True, exist_ok=True)
    with gzip.open(folder / f"{workload}.jsonl.gz", "wt", compresslevel=1) as fh:
        for group, name, start, end, parent, extra in spans:
            fh.write(json.dumps([group[0], group[1], name, start, end, parent, extra]) + "\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                                 str(args.trace)]).returncode for name in WORKLOADS]
        return max(codes)
    if not (SRC / "inclogic" / "__init__.py").is_file():
        print(f"error: no inclogic sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    corpus = wl.corpus(args.seed)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  corpus {len(corpus)} instances")

    if args.trace:
        metrics, attempted, failures = traced_run(wl, corpus, args.seconds)
        notes = {}
        truncated = metrics["trace.untraced_s"][0] < args.seconds / 2
    else:
        setups, samples, failures, timed = run_loop(wl, corpus, wl.call, args.seconds)
        metrics, notes = end_to_end(wl, setups, samples, failures, timed)
        attempted = len(samples)
        truncated = timed < args.seconds

    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    for n, item, message in failures[:20]:
        print(f"  DEFECT instance {n} {item!r}: {message}")
    if truncated:
        note = (f"NOTE: run cut at the {DEADLINE_S:g} s deadline before {args.seconds:g} s "
                "of timed work; the metrics cover a shorter run")
        print(note)
        print(note, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

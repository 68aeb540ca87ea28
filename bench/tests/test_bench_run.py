"""The command line contract of bench/run.py."""

import json
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))
    value, pct, beyond = run.tail(samples)
    assert (value, pct, beyond) == (90, 90.0, 10)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


class _Inputs:
    pass


class _Counted:
    """A workload stand-in that records how many input sets were alive when
    a set-up started building."""

    def __init__(self):
        self.live = weakref.WeakSet()
        self.overlap = 0

    def build(self, lib, corpus):
        self.overlap = max(self.overlap, len(self.live))
        inputs = _Inputs()
        self.live.add(inputs)
        return [workloads.Instance(item, inputs) for item in corpus]

    def refresh(self, lib, insts):
        pass

    def check(self, lib, inst, outcome):
        return None


@pytest.fixture
def own_inclogic():
    """run_loop re-imports inclogic; give the other tests their modules back."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "inclogic"}
    yield
    run._purge()
    sys.modules.update(saved)


def _sleep(lib, inst):
    time.sleep(0.002)


def test_run_loop_spreads_set_ups_and_keeps_one_copy_alive(own_inclogic):
    wl = _Counted()
    setups, samples, failures, timed = run.run_loop(wl, list(range(5)), _sleep, 0.1)
    assert len(setups) == run.SETUP_REPS
    assert not failures and timed >= 0.1 and len(samples) >= run.SETUP_REPS
    assert wl.overlap == 0


def test_run_loop_past_the_deadline_still_runs_one_instance(own_inclogic, monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.0)
    setups, samples, failures, timed = run.run_loop(_Counted(), [0], _sleep, 10)
    assert len(setups) == 1 and len(samples) == 1 and timed < 10


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_short_run_prints_the_result_line():
    proc = _run(ROOT, "--workload", "strict_setsplit", "--seed", "3", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_declared_layer_metric():
    proc = _run(ROOT, "--workload", "bounded_validity", "--seed", "3", "--seconds", "2",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert result["correct"]
    assert result["metrics"]["laxcheck.check_calls"]["value"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "lax_kripke", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")

"""Traced runs wrap the program's functions only while tracing; untraced runs
call the original function objects."""

import importlib

import pytest
import run
import workloads
from tracing import MODULES, TARGETS, Tracer


def _bindings():
    """Every module attribute that holds a traced target, plus KripkeModel.__init__."""
    mods = [importlib.import_module("inclogic")] + [
        importlib.import_module(f"inclogic.{m}") for m in MODULES]
    originals = {getattr(importlib.import_module(f"inclogic.{home}"), attr, None)
                 for home, attr, _ in TARGETS.values()} - {None}
    out = {(mod.__name__, name): value for mod in mods for name, value in vars(mod).items()
           if any(value is o for o in originals)}
    model_cls = importlib.import_module("inclogic.structures").KripkeModel
    out[("KripkeModel", "__init__")] = model_cls.__dict__["__init__"]
    return out


def test_install_wraps_and_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    homes = {getattr(importlib.import_module(f"inclogic.{home}"), attr, None): home
             for home, attr, wrap_home in TARGETS.values() if not wrap_home}
    with tracer.install():
        for (mod, name), original in before.items():
            holder = importlib.import_module("inclogic.structures").KripkeModel.__dict__ \
                if mod == "KripkeModel" else vars(importlib.import_module(mod))
            skipped = homes.get(original) is not None and mod == f"inclogic.{homes[original]}"
            assert hasattr(holder[name], "__wrapped__") is not skipped, (mod, name)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_install_restores_when_the_body_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().install():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


class _Spy:
    """Records which function objects the workload's calls resolve to."""

    def __init__(self, lib):
        self.lib = lib
        self.seen = []

    def __getattr__(self, module):
        target = getattr(self.lib, module)
        spy = self

        class Proxy:
            def __getattr__(self, name):
                value = getattr(target, name)
                spy.seen.append(value)
                return value

        return Proxy()


@pytest.mark.parametrize("name", ["lax_kripke", "strict_setsplit", "bounded_validity"])
def test_untraced_loop_calls_the_original_functions(name):
    lib = run.import_program()
    before = _bindings()
    originals = list(before.values())
    wl = workloads.WORKLOADS[name]()
    corpus = wl.corpus(0)[:2]
    insts = wl.build(lib, corpus)
    spy = _Spy(lib)
    for n, inst in enumerate(insts):
        _, _, error = run.run_one(wl, spy, inst, wl.call, n)
        assert error is None
    called = [f for f in spy.seen if callable(f) and not isinstance(f, type)
              and getattr(f, "__module__", "").startswith("inclogic")]
    assert called
    assert all(not hasattr(f, "__wrapped__") for f in called)
    assert all(any(f is o for o in originals) or f.__name__ == "SearchStats"
               for f in called)


def test_traced_run_records_spans_per_instance_and_restores():
    before = _bindings()
    wl = workloads.StrictSetsplit()
    corpus = [item for item in wl.corpus(0) if len(item[0]) <= 6][:3]
    metrics, attempted, failures = run.traced_run(wl, corpus, 0.5)
    assert not failures
    assert metrics["strictcheck.check_calls"][0] == 1
    assert metrics["strictcheck.states"][0] > 0
    assert metrics["reductions.encode_s"][0] > 0
    after = _bindings()
    assert all(after[key] is before[key] for key in before)

"""Span tracing by wrapping the program's public names from outside.

``Tracer.install()`` replaces selected functions in the ``inclogic`` modules
that bind them (and ``KripkeModel.__init__``) by wrappers that record a span
(group, name, start, end, parent span, extra counters) while a group is open.
Spans of one instance share the group id.  ``install`` is a context manager
that puts every original object back on exit, also when the body raises.

Wrapping happens in the namespace of each module that imported a name, so a
call such as ``validity.lax_check`` is seen even though ``validity`` holds its
own binding.  A function that recurses through its own module-level name
(``modal_depth``, ``ml_truth_set``) is wrapped only where other modules import
it, so one call yields one span rather than one per formula node.
"""

from __future__ import annotations

import contextlib
import importlib
import time

MODULES = ("syntax", "structures", "oracle", "laxcheck", "strictcheck",
           "validity", "reductions", "cli")

# span name -> (defining module, attribute, also wrap inside the defining module)
TARGETS = {
    "syntax.parse_formula": ("syntax", "parse_formula", True),
    "syntax.fragment": ("syntax", "fragment", False),
    "syntax.props": ("syntax", "props", False),
    "syntax.extended_params": ("syntax", "extended_params", False),
    "syntax.substitute_params": ("syntax", "substitute_params", False),
    "syntax.modal_depth": ("syntax", "modal_depth", False),
    "syntax.nnf_negate": ("syntax", "nnf_negate", False),
    "syntax.sub_occurrences": ("syntax", "sub_occurrences", False),
    "laxcheck._occurrences": ("laxcheck", "_occurrences", True),
    "structures.r_image": ("structures", "r_image", False),
    "oracle.ml_truth_set": ("oracle", "ml_truth_set", False),
    "laxcheck.lax_check": ("laxcheck", "lax_check", True),
    "laxcheck.lax_labelling": ("laxcheck", "lax_labelling", True),
    "laxcheck.lax_check_prop": ("laxcheck", "lax_check_prop", True),
    "laxcheck.eminc_preprocess": ("laxcheck", "eminc_preprocess", True),
    "laxcheck.embed_prop_team": ("laxcheck", "embed_prop_team", True),
    "strictcheck.strict_check": ("strictcheck", "strict_check", True),
    "strictcheck.strict_check_prop": ("strictcheck", "strict_check_prop", True),
    "validity.minc_bounded_counterexample": ("validity", "minc_bounded_counterexample", True),
    "validity.eminc_val_to_minc": ("validity", "eminc_val_to_minc", True),
    "reductions.load_circuit": ("reductions", "load_circuit", True),
    "reductions.mcvp_encode": ("reductions", "mcvp_encode", True),
    "reductions.setsplit_encode": ("reductions", "setsplit_encode", True),
    "reductions.evaluate_circuit": ("reductions", "evaluate_circuit", True),
    "reductions.split_oracle": ("reductions", "split_oracle", True),
    "cli.main": ("cli", "main", True),
}

WALKERS = frozenset(n for n in TARGETS if n.startswith("syntax.") and n != "syntax.parse_formula"
                    ) | {"laxcheck._occurrences"}


class Tracer:
    """In-memory span recorder; spans are written out by the caller at the end."""

    def __init__(self):
        self.spans: list = []  # (group, name, start, end, parent index, extra)
        self.group = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def instance(self, group):
        """Attribute every span recorded inside the block to ``group``."""
        self.group = group
        try:
            yield
        finally:
            self.group = None

    def _record(self, name, fn, args, kwargs, before=None, after=None):
        if self.group is None:
            return fn(*args, **kwargs)
        ctx = None
        if before is not None:
            args, ctx = before(args, kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            extra = after(ctx, args, kwargs, result) if after else None
            self.spans[index] = (self.group, name, start, end, parent, extra)

    def _wrapper(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs, before, after)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            mods = {m: importlib.import_module(f"inclogic.{m}") for m in MODULES}
            package = importlib.import_module("inclogic")
            for name, (home, attr, wrap_home) in TARGETS.items():
                original = getattr(mods[home], attr, None)
                if original is None:
                    continue
                wrapped = self._wrapper(name, original)
                for mod in (package, *mods.values()):
                    if mod is mods[home] and not wrap_home:
                        continue
                    if mod.__dict__.get(attr) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
            model_cls = mods["structures"].KripkeModel
            init = model_cls.__dict__["__init__"]
            saved.append((model_cls, "__init__", init))
            model_cls.__init__ = self._wrapper("structures.KripkeModel", init)
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)


# ---------------------------------------------------------------------------
# Hooks that add counters to spans


def _labelling_before(args, kwargs):
    """Pass ``lax_labelling`` a ``trace`` callback that counts, per round, the
    labels recomputed and those that changed from the previous round."""
    state = {"prev": None, "full": frozenset(args[0].worlds), "changed": 0, "recomputed": 0}
    user_trace = args[3] if len(args) > 3 else kwargs.get("trace")

    def trace(round_index, labels):
        prev = state["prev"]
        for oid, label in labels.items():
            state["recomputed"] += 1
            old = state["full"] if prev is None else prev.get(oid)
            if label is not old and label != old:
                state["changed"] += 1
        state["prev"] = labels
        if user_trace is not None:
            user_trace(round_index, labels)

    if len(args) > 3:
        args = args[:3] + (trace,) + args[4:]
    else:
        kwargs["trace"] = trace
    return args, state


def _labelling_after(state, args, kwargs, result):
    extra = {"changed": state["changed"], "recomputed": state["recomputed"]}
    if result is not None:
        extra["rounds"] = result.rounds
        extra["occurrences"] = len(result.labels)
        extra["team"] = len(frozenset(args[1]))
    return extra


def _strict_before(args, kwargs):
    """Give ``strict_check`` a ``SearchStats`` if the caller passed none."""
    if kwargs.get("stats") is None:
        kwargs["stats"] = importlib.import_module("inclogic.strictcheck").SearchStats()
    return args, kwargs["stats"].explored


def _strict_after(explored_before, args, kwargs, result):
    return {"states": kwargs["stats"].explored - explored_before}


_HOOKS = {
    "laxcheck.lax_labelling": (_labelling_before, _labelling_after),
    "strictcheck.strict_check": (_strict_before, _strict_after),
}

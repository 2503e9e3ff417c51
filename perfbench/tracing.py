"""In-memory span tracing of discfrac's layers, installed from outside.

The tracer wraps public functions of the program's modules.  A wrapped
function is replaced under its name in every ``discfrac`` module that
holds it, so both calls through ``from .kernels import kernel_vector``
names (``operators.kernel_vector``) and calls inside the defining module
go through the wrapper.  Spans are named after the defining module,
e.g. ``kernels.kernel_vector``.

Each call records one span: id, parent span id, request id (one per
``cli.main`` call), name, start and end.  Spans stay in memory until
``write_spans``.  A layer's self time is its span's duration minus the
time covered by its child spans.  ``backends.guard`` is counted only:
it runs once per exact scalar and is too hot to time.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import Counter, defaultdict

# Layer functions whose calls become spans, keyed by defining module.
LAYERS = {
    "monotone": (
        "search_campaign",
        "evaluate_theorem",
        "expanded_hypothesis_rows",
        "make_case",
        "poly_nonneg_on_integer_ray",
    ),
    "dualities": ("run_identity_suite", "check_identity", "random_instance"),
    "operators": (
        "apply_operator",
        "fractional_sum",
        "riemann_difference",
        "caputo_difference",
        "caputo_from_riemann",
        "caputo_inversion_residual",
    ),
    "kernels": ("kernel_vector", "binomial_weight"),
    "grids": ("make_grid_function", "q_reflect"),
}

SPAN_NAMES = ("cli.main",) + tuple(
    f"{home}.{name}" for home, names in LAYERS.items() for name in names
)

# Deterministic counts: equal on every traced pass over the same inputs.
COUNT_NAMES = (
    "monotone.instances",
    "monotone.hypothesis_count",
    "monotone.counterexamples",
    "kernels.kernel_vector.weights",
    "backends.guard.calls",
)


class Tracer:
    """Spans, call counts, self times and work counts of one traced pass."""

    def __init__(self):
        self.spans = []  # (span id, parent id, request id, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.request = 0
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0

    def wrap(self, name, fn, on_call=None, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.spans.append(
                    (span_id, None if parent is None else parent[0], self.request,
                     name, start, end)
                )
            if on_return is not None:
                on_return(self, result)
            return result

        return traced

    def exact_counts(self) -> dict:
        out = {f"{name}.calls": self.calls[name] for name in SPAN_NAMES}
        out.update({name: self.counts[name] for name in COUNT_NAMES})
        return out


def _count_weights(tracer, args, kwargs):
    count = kwargs["count"] if "count" in kwargs else args[1]
    tracer.counts["kernels.kernel_vector.weights"] += count


def _count_search(tracer, results):
    for r in results:
        tracer.counts["monotone.instances"] += r.instances
        tracer.counts["monotone.hypothesis_count"] += r.hypothesis_count
        tracer.counts["monotone.counterexamples"] += len(r.counterexamples)


HOOKS = {
    "kernels.kernel_vector": {"on_call": _count_weights},
    "monotone.search_campaign": {"on_return": _count_search},
}


def package_modules(package) -> dict:
    """Every submodule of ``package``, imported, keyed by short name."""
    mods = {"": package}
    for info in pkgutil.iter_modules(package.__path__):
        mods[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return mods


def install(tracer: Tracer, package) -> tuple:
    """Route the layer functions through ``tracer``.

    Returns (undo, missing): calling ``undo()`` restores every original,
    and ``missing`` names layer functions the program no longer has.
    """
    mods = package_modules(package)
    patches = []
    missing = []
    for home, names in LAYERS.items():
        for name in names:
            original = getattr(mods.get(home), name, None)
            if original is None:
                missing.append(f"{home}.{name}")
                continue
            span = f"{home}.{name}"
            wrapped = tracer.wrap(span, original, **HOOKS.get(span, {}))
            for mod in mods.values():
                if mod.__dict__.get(name) is original:
                    patches.append((mod, name, original))
                    setattr(mod, name, wrapped)
    backends = mods["backends"]
    for cls in (backends.FloatBackend, backends.RationalBackend):
        original = cls.__dict__.get("guard")
        if original is None:
            missing.append(f"backends.{cls.__name__}.guard")
            continue

        def counted(self, value, _original=original):
            tracer.counts["backends.guard.calls"] += 1
            return _original(self, value)

        patches.append((cls, "guard", original))
        cls.guard = counted

    def undo():
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)

    return undo, missing


def write_spans(path: str, tracers) -> int:
    """Write every span of every pass as one JSON array per line."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for pass_index, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps([pass_index, *span]) + "\n")
                n += 1
    return n

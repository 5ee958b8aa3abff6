"""Per-layer spans wrapped from outside around the package's public functions.

The package calls across modules through module attributes (``laws`` calls
``rng.philox4x32`` through ``rng.uniform_words``, ``scenarios`` calls
``dg.translate_sup_profile``), and a module's globals are its attribute
dictionary, so replacing a function on its module also reroutes the calls
made from inside that module.  Names imported with ``from x import f`` are
found by identity and replaced as well.

Each wrapped call is a span.  A layer's self time is the span's duration
minus the time of the spans it encloses; its ``minflt`` is the change in
``getrusage(RUSAGE_SELF).ru_minflt`` over the span, children included.
Spans are aggregated per layer as they close.  Work is serial, so one
stack serves the whole process.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass(frozen=True)
class Layer:
    """One wrapped function.

    attr is a function name, or ``Class.method``.  work maps
    (result, args, kwargs, before, tracer) to work counts, where before is
    what ``before(args, kwargs, tracer)`` returned at span start.  With
    count_on_error the counts are also taken when the call raises, with
    result None.
    """

    module: str
    attr: str
    name: str
    work: Callable | None = None
    before: Callable | None = None
    faults: bool = False
    count_on_error: bool = False


def _series_len(f) -> int:
    return int(f.horizon) if hasattr(f, "horizon") else int(np.size(f))


def _grid_ndim(g) -> int:
    return (g.grid() if hasattr(g, "grid") else np.asarray(g)).ndim


def _sup_pairs(r, a, kw, *_):
    n = _series_len(a[0] if a else kw["f"])
    tau_max = int(a[1] if len(a) > 1 else kw["tau_max"])
    return {"pairs": tau_max * n - tau_max * (tau_max + 1) // 2}


def _stream_tell(a, kw, *_):
    return (a[1] if len(a) > 1 else kw["stream"]).tell()


def _bytes_written(r, a, kw, before, _):
    return {"bytes": _stream_tell(a, kw) - before}


def _keyed_values_drawn(a, kw, tracer):
    return tracer.stats["laws.keyed_values"]["values"]


def _values(r, *_):
    return {"values": int(np.size(r.values if hasattr(r, "values") else r))}


def _arg(a, kw, pos, key):
    return a[pos] if len(a) > pos else kw[key]


IDENTITY_TESTS = ("scaling_identity_test", "increment_stationarity_test", "sublattice_law_test", "projection_probe_test")
DIAGNOSTICS_PLAIN = (
    "padic_modulus",
    "limit_periodic_approx",
    "bohr_translation_set",
    "weyl_profile",
    "besicovitch_profile",
    "running_max",
)
PADIC_FUNCTIONS = (
    "is_prime",
    "checked_modulus",
    "valuation_array",
    "box_points",
    "PadicContext.__post_init__",
    "PadicContext.valuation",
    "PadicContext.norm",
    "PadicContext.least_residue",
)

LAYERS: tuple[Layer, ...] = (
    Layer("rng", "philox4x32", "rng.philox4x32", work=lambda r, *_: {"blocks": int(r[0].size)}, faults=True),
    Layer("laws", "keyed_values", "laws.keyed_values", work=_values),
    *(Layer("tree", f, f"tree.{f}", work=_values) for f in ("level_values", "lazy_path", "path_values", "field")),
    Layer(
        "tree",
        "build_levels",
        "tree.build_levels",
        # entries drawn inside the call, also when it refuses part-way
        work=lambda r, a, kw, before, tracer: {"entries": int(_keyed_values_drawn(a, kw, tracer) - before)},
        before=_keyed_values_drawn,
        faults=True,
        count_on_error=True,
    ),
    *(Layer("tree", f, f"tree.{f}", work=_bytes_written, before=_stream_tell) for f in ("write_path_csv", "write_binary")),
    Layer("diagnostics", "translate_sup_profile", "diagnostics.translate_sup_profile", work=_sup_pairs, faults=True),
    *(Layer("diagnostics", f, f"diagnostics.{f}") for f in DIAGNOSTICS_PLAIN),
    Layer(
        "diagnostics",
        "padic_modulus_field",
        "diagnostics.padic_modulus_field",
        work=lambda r, a, kw, *_: {
            "vectors": (_arg(a, kw, 1, "ctx").p ** int(_arg(a, kw, 2, "K"))) ** _grid_ndim(_arg(a, kw, 0, "grid_values"))
        },
    ),
    Layer(
        "diagnostics",
        "translation_vectors_field",
        "diagnostics.translation_vectors_field",
        work=lambda r, *_: {"vectors": (int(r.h_max) + 1) ** int(r.dim)},
    ),
    *(Layer("identity", f, f"identity.{f}", work=lambda r, *_: {"seeds": int(r.m + r.n)}) for f in IDENTITY_TESTS),
    Layer("identity", "ks_statistic", "identity.ks_statistic"),
    Layer("scenarios", "resolve_config", "scenarios.resolve_config"),
    Layer("scenarios", "run_scenario", "scenarios.run_scenario", faults=True),
    Layer("cli", "main", "cli.main"),
    *(Layer("padic", f, "padic") for f in PADIC_FUNCTIONS),
)


class Tracer:
    """Installs spans on the package and aggregates them per layer."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, fn):
        tracer = self
        stack = self._stack
        stats = self.stats[layer.name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = layer.before(args, kwargs, tracer) if layer.before else None
            flt0 = minflt() if layer.faults else 0
            stack.append(0.0)
            t0 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats["calls"] += 1
                stats["self_s"] += dt - child
                if layer.faults:
                    stats["minflt"] += minflt() - flt0
                if layer.work and (ok or layer.count_on_error):
                    for key, value in layer.work(result if ok else None, args, kwargs, before, tracer).items():
                        stats[key] += value

        return wrapper

    def install(self) -> None:
        """Replace every reference to each layer's function with its span."""
        modules = [m for n, m in list(sys.modules.items()) if n == "padic_sssi" or n.startswith("padic_sssi.")]
        for layer in LAYERS:
            owner = sys.modules[f"padic_sssi.{layer.module}"]
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, original))
                continue
            original = getattr(owner, layer.attr)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

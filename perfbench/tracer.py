"""Per-layer spans for the traced benchmark run, installed from outside ``pathgap``.

Every public function of each ``pathgap`` module is wrapped, and the wrapper
is bound in every ``pathgap`` namespace that holds the original, because
modules bind their imports by name (``estimators`` calls its own
``batch_increments``, not ``sampling.batch_increments``).  The kernel module's
walk and propagator functions are wrapped on the kernel module, which callers
reach as an attribute.  Functionals returned by the family factories get
wrapped ``value``/``slot_gradients`` callbacks.

A span's self time is its duration minus that of the spans it encloses.  Self
times and work counts are summed per bucket as the spans close; individual
spans are not kept.  Each bucket belongs to one layer, named after its module.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "estimators", "gradients", "sampling", "geometry", "bounds", "config")

# Functions whose time is split out of their layer's self time, by "<layer>.<name>".
BUCKETS = {
    "sampling.path_increments": "sampling.increments",
    "sampling.batch_increments": "sampling.increments",
    "sampling.simulate_increments": "sampling.walk",
    "sampling.simulate_paths": "sampling.walk",
    "gradients.linear_gradient_batch": "gradients.linear_field",
    "gradients.resolvent": "gradients.resolvent",
    "gradients.resolvent_on_grid": "gradients.resolvent",
    "gradients.resolvent_propagator": "gradients.resolvent",
    "gradients.resolvent_triangle": "gradients.resolvent",
    "gradients.resolvent_column": "gradients.resolvent",
    "estimators.damped_energy_pairwise": "estimators.damped_energy",
    "estimators._damped_energy_trapezoid": "estimators.damped_energy",
    "estimators.functional": "estimators.functional",
}

# Kernel functions, by the layer that calls them.
KERNELS = {
    "simulate_paths": "sampling",
    "resolvent_triangle": "gradients",
    "resolvent_column": "gradients",
}

FUNCTIONAL_FACTORIES = (
    "random_two_point_family",
    "exponential_functional",
    "truncated_exponential_functional",
)


def _count_generators(counts, args, result):
    counts["sampling.generators_built"] += 1


def _count_walk(counts, args, result):
    increments = args[5]
    counts["sampling.walk_path_steps"] += increments.shape[0] * increments.shape[1]
    counts["sampling.paths_run"] += increments.shape[0]


def _count_linear_field(counts, args, result):
    counts["gradients.linear_field_out_mb"] += result.nbytes / 1e6
    counts["sampling.paths_run"] += result.shape[0]


def _count_pairs(counts, args, result):
    counts["gradients.resolvent_pairs"] += result.shape[0]


def _count_functional(counts, args, result):
    counts["estimators.functional_calls"] += 1


COUNTERS = {
    "sampling.path_increments": _count_generators,
    "sampling.simulate_paths": _count_walk,
    "gradients.linear_gradient_batch": _count_linear_field,
    "gradients.resolvent_triangle": _count_pairs,
    "gradients.resolvent_column": _count_pairs,
    "estimators.functional": _count_functional,
}


class Tracer:
    """Accumulates per-bucket self time, per-layer entries and work counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.first_span = None  # time.monotonic() when the first span opened
        self._child_s = []  # per open span: time covered by its closed children
        self._layers = []  # per open span: its layer

    def wrap(self, fn, key: str, post=None):
        bucket = BUCKETS.get(key, key.split(".")[0])
        layer = bucket.split(".")[0]
        count = COUNTERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.first_span is None:
                self.first_span = time.monotonic()
            outer = self._layers[-1] if self._layers else None
            self._child_s.append(0.0)
            self._layers.append(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._layers.pop()
                self.self_s[bucket] += elapsed - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
            if outer != layer:
                self.counts[layer + ".entries"] += 1
            if count is not None:
                count(self.counts, args, result)
            return result if post is None else post(result)

        return traced

    def wrap_functional(self, F):
        return dataclasses.replace(
            F,
            value=self.wrap(F.value, "estimators.functional"),
            slot_gradients=self.wrap(F.slot_gradients, "estimators.functional"),
        )

    def install(self):
        """Wrap every public pathgap function where its callers look it up."""
        import pathgap
        from pathgap import _backend

        modules = {layer: importlib.import_module("pathgap." + layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                key = f"{layer}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or key in BUCKETS)
                    and not inspect.isgeneratorfunction(obj)
                ):
                    post = None
                    if name in FUNCTIONAL_FACTORIES:
                        post = self._functional_post
                    wrapped[obj] = self.wrap(obj, key, post)
        for mod in [pathgap, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        for name, layer in KERNELS.items():
            setattr(_backend.kernels, name, self.wrap(getattr(_backend.kernels, name), f"{layer}.{name}"))

    def _functional_post(self, result):
        if isinstance(result, list):
            return [self.wrap_functional(F) for F in result]
        return self.wrap_functional(result)

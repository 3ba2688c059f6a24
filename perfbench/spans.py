"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps the public functions of each `sspdo` module from outside the
package.  A function is patched in every `sspdo` module that binds it, so a
call made inside the package resolves to the wrapper through that module's
globals.  A binding in another module than the one that defines the function
can carry its own layer name: `construct`'s `monotonicity_feasible_dense` is
the candidate check of the LP search, while `certify`'s is a dense probe.

Each call records a span (name, start, end, parent, job id).  Spans are kept
in memory; counts are taken from return values at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import time
from collections import Counter
from dataclasses import dataclass

# (layer, module that binds the function, attribute)
LAYERS = (
    ("certify.bisect_method", "certify", "ssp_coefficient_detailed"),
    ("certify.bisect_dense", "certify", "dense_ssp_coefficient_detailed"),
    ("certify.probe_method", "certify", "monotonicity_feasible_method"),
    ("certify.probe_dense", "certify", "monotonicity_feasible_dense"),
    ("certify.resolvent", "certify", "resolvent"),
    ("certify.bernstein", "certify", "poly_nonneg_on_unit"),
    ("certify.to_bernstein", "certify", "monomial_to_bernstein"),
    ("construct.lp_search", "construct", "lp_search"),
    ("construct.build_lp", "construct", "build_lp"),
    ("construct.candidate_check", "construct", "monotonicity_feasible_dense"),
    ("construct.family_tableau", "construct", "family_tableau"),
    ("simplex.phase1", "simplex", "phase1_feasible"),
    ("integrate.integrate_fixed", "integrate", "integrate_fixed"),
    ("integrate.step", "integrate", "step"),
    ("integrate.dense_eval_grid", "integrate", "dense_eval_grid"),
    ("experiments.figure1", "experiments", "run_figure1"),
    ("experiments.sweep", "experiments", "run_certification_sweep"),
    ("cli.main", "cli", "main"),
    ("cli.build_parser", "cli", "build_parser"),
    ("cli.emit", "cli", "_emit"),
    ("registry.get", "registry", "get"),
)


def _count_bernstein(counts, args, kwargs, result):
    depth = getattr(result, "depth", None)
    if depth is not None:
        counts["certify.bernstein.root"] += depth == 0
        counts["certify.bernstein.max_depth"] = max(counts["certify.bernstein.max_depth"], depth)
    status = getattr(getattr(result, "certified", None), "name", None)
    counts["certify.bernstein.inconclusive"] += status == "INCONCLUSIVE"


def _count_build_lp(counts, args, kwargs, result):
    for name in ("A_eq", "A_ub"):
        shape = getattr(getattr(result, name, None), "shape", None)
        if shape:
            counts["construct.lp_rows"] += shape[0]


def _count_lp_search(counts, args, kwargs, result):
    counts["construct.rounds"] += getattr(result, "rounds", 0)


def _count_candidate(counts, args, kwargs, result):
    counts["construct.certified"] += getattr(result, "feasible", False) is True


def _count_phase1(counts, args, kwargs, result):
    counts["simplex.iterations"] += getattr(result, "iterations", 0)


def _count_dense_grid(counts, args, kwargs, result):
    counts["integrate.dense_values"] += getattr(result, "size", 0)


def _count_figure1(counts, args, kwargs, result):
    out_dir = kwargs.get("out_dir", args[1] if len(args) > 1 else None)
    if out_dir is None:
        return
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            counts["experiments.csv_bytes"] += os.path.getsize(os.path.join(out_dir, name))


COUNTERS = {
    "certify.bernstein": _count_bernstein,
    "construct.build_lp": _count_build_lp,
    "construct.lp_search": _count_lp_search,
    "construct.candidate_check": _count_candidate,
    "simplex.phase1": _count_phase1,
    "integrate.dense_eval_grid": _count_dense_grid,
    "experiments.figure1": _count_figure1,
}


@dataclass(frozen=True, slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int


class Tracer:
    """Span recorder plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job = 0
        self._stack: list[int] = []

    def reset(self, job: int) -> None:
        self.spans, self.counts, self.job, self._stack = [], Counter(), job, []

    def wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer.counts[name + ".calls"] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(name, start, end, parent, tracer.job)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return wrapper


def _sspdo_modules(package) -> list:
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        try:
            modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
        except ImportError:
            continue
    return modules


class Patcher:
    """Installs and removes the tracer's wrappers in the `sspdo` modules.

    A layer whose module or function no longer exists is listed in `absent`
    instead of failing the run."""

    def __init__(self, package, tracer: Tracer, layers=LAYERS):
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        # Keyed by id(): the originals stay bound in their modules, so the ids
        # cannot be reused while the patcher lives.
        default_name: dict[int, str] = {}
        binding_name: dict[tuple[str, int], str] = {}
        for layer, module_name, attr in layers:
            try:
                module = importlib.import_module(f"{package.__name__}.{module_name}")
            except ImportError:
                self.absent.append(layer)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(layer)
                continue
            if getattr(fn, "__module__", None) == module.__name__:
                default_name[id(fn)] = layer
            else:
                binding_name[(module.__name__, id(fn))] = layer
        for module in _sspdo_modules(package):
            for attr, value in list(vars(module).items()):
                layer = binding_name.get((module.__name__, id(value)), default_name.get(id(value)))
                if layer is not None:
                    self._patches.append((module, attr, value, tracer.wrap(layer, value)))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its child spans.  Spans
    come from one synchronous call stack, so children lie inside their parent
    and never overlap."""
    result = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.end - span.start
    return result


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals

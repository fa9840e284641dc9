"""Outside-in tracing of cpa_sim: spans around calls into each module.

The tracer replaces named functions and methods on their module or class with
wrappers that record spans.  cpa_sim looks these names up at call time
(``fock.full_pipeline(...)``, ``hadamard_block(total)`` inside ``fock``,
``self.__post_init__()`` from a dataclass ``__init__``), so the wrappers see
the calls the package makes to itself.  Nothing in the package is edited.

A span is (name, start, end, parent span, op id); spans stay in memory until
the run writes them out.  A span's self time is its duration minus the time
its child spans cover.  Names that no longer exist are reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from collections import Counter, defaultdict

PACKAGE = "cpa_sim"

# (module, attribute path on the module, metric name).  Spanned calls report
# <name>.calls and <name>.self_s.
SPANNED = [
    ("fock", "hadamard_block", "fock.hadamard_block"),
    ("fock", "bs_transform", "fock.bs_transform"),
    ("fock", "cpa_channel", "fock.cpa_channel"),
    ("fock", "full_pipeline", "fock.full_pipeline"),
    ("fock", "PureState.__post_init__", "fock.PureState.validate"),
    ("fock", "squeezed_coherent_state", "fock.squeezed_coherent_state"),
    ("fock", "superposition", "fock.superposition"),
    ("fock", "tensor", "fock.tensor"),
    ("fock", "absorption_coefficients", "fock.absorption_coefficients"),
    ("fock", "total_occupation_distribution", "fock.total_occupation_distribution"),
    ("fock", "conditional_output", "fock.conditional_output"),
    ("fock", "partial_trace", "fock.partial_trace"),
    ("fock", "DensityOperator.__post_init__", "fock.DensityOperator.validate"),
    ("fock", "DensityOperator.purity", "fock.DensityOperator.purity"),
    ("fock", "DensityOperator.expectation_with_pure", "fock.DensityOperator.expectation_with_pure"),
    ("fock", "DensityOperator.entropy", "fock.DensityOperator.entropy"),
    ("fock", "mode_moments", "fock.mode_moments"),
    ("gaussian", "GaussianState.__post_init__", "gaussian.GaussianState.validate"),
    ("gaussian", "squeezed_coherent_state", "gaussian.squeezed_coherent_state"),
    ("gaussian", "epr_state", "gaussian.epr_state"),
    ("gaussian", "bs_transform", "gaussian.bs_transform"),
    ("gaussian", "cpa_channel", "gaussian.cpa_channel"),
    ("gaussian", "full_pipeline", "gaussian.full_pipeline"),
    ("gaussian", "absorption_coefficients", "gaussian.absorption_coefficients"),
    ("gaussian", "duan_inseparability", "gaussian.duan_inseparability"),
    ("gaussian", "run_squeezed_pair", "gaussian.run_squeezed_pair"),
    ("gaussian", "run_epr", "gaussian.run_epr"),
    ("sweeps", "run_preset", "sweeps.run_preset"),
    ("sweeps", "write_csv", "sweeps.write_csv"),
    ("scenario_io", "load_scenario_file", "scenario_io.load_scenario_file"),
    ("scenario_io", "parse_scenario_dict", "scenario_io.parse_scenario_dict"),
    ("scenario_io", "run_scenario_file", "scenario_io.run_scenario_file"),
    ("scenario_io", "run_bridged_fock", "scenario_io.run_bridged_fock"),
    ("dv", "build_input", "dv.build_input"),
    ("dv", "run_scenario", "dv.run_scenario"),
    ("nongaussian", "build_cat", "nongaussian.build_cat"),
    ("nongaussian", "run_cat_cat", "nongaussian.run_cat_cat"),
    ("nongaussian", "run_asymmetric", "nongaussian.run_asymmetric"),
    ("results", "ScenarioResult.to_dict", "results.ScenarioResult.to_dict"),
    ("cli", "main", "cli.main"),
]

# Called per cell or per nested value: counted, not spanned.
COUNTED = [
    ("sweeps", "format_cell", "sweeps.format_cell"),
    ("results", "clean", "results.clean"),
]

# Reductions whose transient allocations the tracemalloc pass measures.
REDUCTIONS = [
    ("fock", "partial_trace"),
    ("fock", "conditional_output"),
    ("fock", "mode_moments"),
    ("fock", "DensityOperator.partial_trace"),
    ("fock", "DensityOperator.purity"),
    ("fock", "DensityOperator.expectation_with_pure"),
    ("fock", "DensityOperator.entropy"),
]


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when the name is gone."""
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if parts[-1] not in vars(owner):
        return None
    return owner, parts[-1], vars(owner)[parts[-1]]


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module: str, path: str, make_wrapper) -> object | None:
        """Wrap one attribute; returns the original, or None when absent."""
        found = _resolve(module, path)
        if found is None:
            return None
        owner, attr, original = found
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return original

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def wrapped_names() -> list[str]:
    """Traced names whose current attribute is a tracer wrapper."""
    out = []
    for module, path, name in SPANNED + COUNTED:
        found = _resolve(module, path)
        if found is not None and getattr(found[2], "_cpabench_wrapper", False):
            out.append(name)
    return out


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op = ""  # id of the op being run; set by the caller
        self._stack: list[int] = []
        self._patcher = Patcher()
        self._hadamard = None

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "sweeps.run_preset":
                self.counts["sweeps.points"] += len(result[1])
            return result

        wrapper._cpabench_wrapper = True
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper._cpabench_wrapper = True
        return wrapper

    def install(self) -> None:
        self.absent = []
        for module, path, name in SPANNED:
            original = self._patcher.patch(
                module, path, functools.partial(self._span, name)
            )
            if original is None:
                self.absent.append(name)
            elif name == "fock.hadamard_block":
                self._hadamard = original
        for module, path, name in COUNTED:
            if self._patcher.patch(module, path, functools.partial(self._counter, name)) is None:
                self.absent.append(name)

    def uninstall(self) -> None:
        self._patcher.restore()

    def hadamard_misses(self) -> int:
        """Cache misses of hadamard_block so far, while it has a cache."""
        info = getattr(self._hadamard, "cache_info", None)
        return info().misses if info is not None else 0

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, list]:
        """name -> [calls, self seconds] over spans[first:last]."""
        spans = self.spans[first:last]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(spans, start=first):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start - child[i]
        return dict(totals)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def peak_reduction_alloc(run_ops) -> float:
    """Largest transient allocation (MB) inside one outermost reduction call.

    Runs `run_ops()` with tracemalloc on and the reductions wrapped.  Kept
    apart from the span run so allocation tracking does not distort timings.
    """
    patcher = Patcher()
    depth = [0]
    peak = [0]

    def measure(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = depth[0] == 0
            if outermost:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if outermost:
                    peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1] - base)

        wrapper._cpabench_wrapper = True
        return wrapper

    for module, path in REDUCTIONS:
        patcher.patch(module, path, measure)
    tracemalloc.start()
    try:
        run_ops()
    finally:
        tracemalloc.stop()
        patcher.restore()
    return peak[0] / 2**20

"""Per-layer tracing of milnoralg from outside the library.

A ``Tracer`` replaces every reference to a traced public function in the
namespace of every ``milnoralg.*`` module with one wrapper, because
callers import names directly (``from .ideals import ideal_piece``) and
patching only the defining module would miss their calls. The wrapper
records a span (name, start, end, parent) in memory; self time is a
span's duration minus the durations of its direct children.
``SpanBuilder.insert`` is patched on the class and only counted: it runs
far too often for a span per call.

Work the tracer does for its own counters (matrix sizes, coefficient bit
lengths) runs on a paused clock, so it lands in no span's time; it still
shows in the traced wall time, and so in the reported tracing overhead.

This module imports nothing from milnoralg at import time, so the CLI
entry script can time the library import before loading it.
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
from time import perf_counter

# The public functions timed per module, in report order.
LAYERS = {
    "monomials": ("mono_basis", "product_index_table", "derivative_table", "factorial_weights"),
    "polynomials": ("parse_poly", "format_poly"),
    "linalg": ("nullspace", "solve_columns", "orthogonal_complement"),
    "ideals": ("multiples_span", "ideal_piece", "is_complete_intersection", "is_smooth"),
    "inverse_systems": ("apolar_piece", "associated_form", "verify_inverse_system"),
    "reconstruction": ("lift_piece", "recover_generators", "fiber"),
    "deformation": (
        "membership_solutions",
        "multiplication_matrix",
        "tangent_kernel_at_tuple",
        "tangent_kernel_at_poly",
    ),
    "st_analysis": ("st_report",),
    "cli": ("main",),
}

# Caches whose hit ratio is reported, as (module, function).
HIT_RATIO_CACHES = (
    ("ideals", "ideal_piece"),
    ("ideals", "is_smooth"),
    ("deformation", "membership_solutions"),
)

# Every per-layer metric as (name, unit, better), in report order.
METRICS = []
for _module, _names in LAYERS.items():
    for _name in _names:
        METRICS += [
            (f"{_module}.{_name}.calls", "count", "lower"),
            (f"{_module}.{_name}.busy_s", "s", "lower"),
            (f"{_module}.{_name}.self_s", "s", "lower"),
        ]
METRICS += [
    ("cli.import_s", "s", "lower"),
    ("linalg.insert.calls", "count", "lower"),
    ("linalg.insert.useful_ratio", "ratio", "higher"),
    ("linalg.nullspace.max_cells", "count", "lower"),
    ("linalg.max_coeff_bits", "bits", "lower"),
]
METRICS += [(f"{m}.{f}.hit_ratio", "ratio", "higher") for m, f in HIT_RATIO_CACHES]
METRICS += [("trace.overhead_s", "s", "lower")]
UNITS = {name: unit for name, unit, _ in METRICS}


def library_modules() -> dict:
    """Import and return every ``milnoralg`` module, keyed by short name."""
    package = importlib.import_module("milnoralg")
    modules = {"": package}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"milnoralg.{info.name}")
    return modules


def find_caches(modules: dict) -> dict:
    """Every ``lru_cache`` reachable from the library's modules and classes.

    Found by walking namespaces for objects with ``cache_clear``, so a
    cache added later is covered without listing it here. Keyed by the
    defining module and qualified name; re-exported names are the same
    object and appear once.
    """
    found = {}
    for module in modules.values():
        spaces = [vars(module)]
        spaces += [
            vars(obj)
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for space in spaces:
            for obj in space.values():
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                    name = f"{obj.__module__}.{getattr(obj, '__qualname__', obj.__name__)}"
                    found[name] = obj
    return dict(sorted(found.items()))


def coeff_bits(values) -> int:
    """Largest numerator or denominator bit length among rationals."""
    best = 0
    for x in values:
        if x is None:
            continue
        best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    """Spans and counters for one process; install, run, then read ``raw``."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list = []
        self.paused = 0.0  # seconds the span clock has been stopped
        self.insert_calls = 0
        self.insert_grew = 0
        self.max_cells = 0
        self.max_bits = 0
        self._restore: list = []

    def clock(self) -> float:
        return perf_counter() - self.paused

    # -- counters ---------------------------------------------------------

    def _nullspace_before(self, args, kwargs):
        args = list(args)
        rows = args[0] if args else kwargs["rows"]
        ncols = args[1] if len(args) > 1 else kwargs["ncols"]
        if not isinstance(rows, list):
            rows = list(rows)  # an iterator would be consumed by counting
            if args:
                args[0] = rows
            else:
                kwargs["rows"] = rows
        self.max_cells = max(self.max_cells, len(rows) * ncols)
        return tuple(args), kwargs

    def _rows_after(self, result):
        if hasattr(result, "rows"):  # Subspace
            result = result.rows
        for row in result:
            if row is not None:
                self.max_bits = max(self.max_bits, coeff_bits(row))

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if before is not None:
                t0 = perf_counter()
                args, kwargs = before(args, kwargs)
                self.paused += perf_counter() - t0
            index = len(spans)
            record = [name, self.clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                stack.pop()
            if after is not None:
                t0 = perf_counter()
                after(result)
                self.paused += perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, modules: dict) -> None:
        hooks = {
            "linalg.nullspace": (self._nullspace_before, self._rows_after),
            "linalg.solve_columns": (None, self._rows_after),
            "linalg.orthogonal_complement": (None, self._rows_after),
        }
        for module_name, names in LAYERS.items():
            home = modules.get(module_name)
            if home is None:
                continue
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:  # a removed function reports zero
                    continue
                key = f"{module_name}.{fname}"
                before, after = hooks.get(key, (None, None))
                wrapper = self.wrap(key, original, before, after)
                for module in modules.values():
                    space = vars(module)
                    for attr, value in list(space.items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

        builder = modules["linalg"].SpanBuilder
        original_insert = builder.insert

        def counted_insert(span_builder, vec):
            grew = original_insert(span_builder, vec)
            self.insert_calls += 1
            self.insert_grew += grew
            return grew

        self._restore.append((builder, "insert", original_insert))
        builder.insert = counted_insert

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def raw(self) -> dict:
        """Mergeable per-layer totals computed from the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict = {}
        busy: dict = {}
        self_time: dict = {}
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + duration - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:  # outermost span of this name: busy time is a union
                busy[name] = busy.get(name, 0.0) + duration
        out = empty_raw()
        out.update(
            calls=calls,
            busy=busy,
            self=self_time,
            insert_calls=self.insert_calls,
            insert_grew=self.insert_grew,
            max_cells=self.max_cells,
            max_bits=self.max_bits,
        )
        return out


def empty_raw() -> dict:
    """Per-layer totals of a process that ran nothing; see ``Tracer.raw``."""
    return {
        "calls": {},  # span name -> count
        "busy": {},  # span name -> seconds inside its outermost spans
        "self": {},  # span name -> seconds minus direct children
        "insert_calls": 0,
        "insert_grew": 0,
        "max_cells": 0,
        "max_bits": 0,
        "cache": {},  # cache name -> [hits, misses]
        "import_s": [],  # library import time of each CLI process
    }


def cache_counts(modules: dict) -> dict:
    """(hits, misses) since the last clear for each hit-ratio cache."""
    out = {}
    for module_name, fname in HIT_RATIO_CACHES:
        cached = getattr(modules[module_name], fname, None)
        if hasattr(cached, "cache_info"):
            info = cached.cache_info()
            out[f"{module_name}.{fname}"] = [info.hits, info.misses]
    return out


def merge(raws: list) -> dict:
    """Combine the raw totals of several processes into one."""
    total = empty_raw()
    for raw in raws:
        for key in ("calls", "busy", "self"):
            for name, value in raw[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for key in ("insert_calls", "insert_grew"):
            total[key] += raw[key]
        for key in ("max_cells", "max_bits"):
            total[key] = max(total[key], raw[key])
        for name, (hits, misses) in raw["cache"].items():
            old = total["cache"].get(name, [0, 0])
            total["cache"][name] = [old[0] + hits, old[1] + misses]
        total["import_s"] += raw["import_s"]
    return total


def metrics(raw: dict) -> dict:
    """Flat per-layer metric values for one pass (overhead excluded)."""
    out = {}
    for module_name, names in LAYERS.items():
        for fname in names:
            key = f"{module_name}.{fname}"
            out[f"{key}.calls"] = raw["calls"].get(key, 0)
            out[f"{key}.busy_s"] = raw["busy"].get(key, 0.0)
            out[f"{key}.self_s"] = raw["self"].get(key, 0.0)
    out["cli.import_s"] = statistics.median(raw["import_s"]) if raw["import_s"] else 0.0
    out["linalg.insert.calls"] = raw["insert_calls"]
    out["linalg.insert.useful_ratio"] = (
        raw["insert_grew"] / raw["insert_calls"] if raw["insert_calls"] else 0.0
    )
    out["linalg.nullspace.max_cells"] = raw["max_cells"]
    out["linalg.max_coeff_bits"] = raw["max_bits"]
    for module_name, fname in HIT_RATIO_CACHES:
        key = f"{module_name}.{fname}"
        hits, misses = raw["cache"].get(key, (0, 0))
        out[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


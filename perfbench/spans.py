"""Span recording from outside the library, and per-layer aggregation.

`Recorder.install()` replaces the public functions listed in TARGETS with
timing wrappers: in the defining module, in every other `wcc` module that
re-imported the same object (such as `lattice.cartan_vector`), and on the
class for `RootSystemA` methods.  Nothing under `src/` is edited.

Each span is `[name, start, end, parent]`, where `parent` is the index of
the enclosing span in the same process (-1 at top level) and every span of
one process shares the recorder's run id.  Spans stay in memory until the
process ends, when `dump()` writes them out; `summarize()` turns the dumps
of one traced job into per-layer metrics.

This module uses the standard library only, so the launcher can import it
before it times `import wcc`.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

TARGETS = {
    "lattice": ("enumerate_elements", "save_cache", "load_cache"),
    "projections": ("cartan_vector", "jordan_project", "angular_points", "cartan_at"),
    "flagmetric": ("flat_distance", "fixed_points"),
    "loxodromy": ("fitted_constants", "certify", "jordan_cartan_gap"),
    "rootsys": ("RootSystemA.delta_zero", "RootSystemA.c_gap", "RootSystemA.c_a"),
    "volume": ("domain_volume", "slab_volume", "box_volume", "ball_volume"),
    "bqf": ("form_classes", "primitive_split", "pell4_fundamental"),
    "survey": (
        "angular_sweep",
        "angular_statistics",
        "conjugacy_classes_sl2",
        "torus_census",
        "conjugacy_growth",
        "flat_bound_survey",
    ),
}
# memoized library functions whose cache_info() is read at the end
CACHED = ("bqf.form_classes", "loxodromy.fitted_constants")
WARNING_CATEGORIES = ("DeprecationWarning", "RuntimeWarning")


def span_name(module: str, target: str) -> str:
    return f"{module}.{target.split('.')[-1]}"


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.checks: dict[str, str] = {}
        self.warnings: Counter = Counter()
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, observe=None):
        """Return `fn` wrapped in a span named `name`.

        `observe(recorder, args, kwargs, result)` runs after the span closes,
        so counting work never adds to the span's time.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target, including re-imported copies of it."""
        import importlib

        modules = {m: importlib.import_module(f"wcc.{m}") for m in TARGETS}
        loaded = [m for k, m in sys.modules.items() if k.startswith("wcc.") and m is not None]
        for module, targets in TARGETS.items():
            for target in targets:
                name = span_name(module, target)
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(modules[module], cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self.wrap(name, original))
                else:
                    original = getattr(modules[module], target)
                    wrapper = self.wrap(name, original, _OBSERVERS.get(name))
                    for mod in loaded:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapper)
                self._originals[name] = original

    @contextlib.contextmanager
    def capture_warnings(self):
        """Count every warning raised inside the block by category."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                yield
            finally:
                self.warnings.update(type(w.message).__name__ for w in caught)

    def cache_info(self) -> dict:
        out = {}
        for name in CACHED:
            fn = self._originals.get(name)
            if fn is not None:
                info = fn.cache_info()
                out[name] = {"hits": info.hits, "misses": info.misses}
        return out

    def dump(self, path, **extra) -> None:
        doc = {
            "run_id": self.run_id,
            "wrapper_cost_s": wrapper_cost(),
            "spans": self.spans,
            "counters": self.counters,
            "checks": self.checks,
            "cache_info": self.cache_info(),
            "warnings": dict(self.warnings),
        }
        doc.update(extra)
        Path(path).write_text(json.dumps(doc, separators=(",", ":")))


def wrapper_cost(n: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""

    def noop():
        return None

    wrapped, clock = Recorder("calibration").wrap("noop", noop), time.perf_counter
    start = clock()
    for _ in range(n):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(n):
        wrapped()
    return max(clock() - start - bare, 0.0) / n


# ---------------------------------------------------------------- observers


def _observe_enumerate(rec: Recorder, args, kwargs, result) -> None:
    records, meta = result
    rec.count("lattice.records", len(records))
    rec.count("lattice.candidates", meta.candidates or 0)


def _directory_bytes(directory: Path, manifest: dict) -> int:
    names = ["manifest.json"] + list(manifest["shards"])
    return sum((directory / n).stat().st_size for n in names)


def _observe_save(rec: Recorder, args, kwargs, result) -> None:
    directory = Path(result)
    manifest = json.loads((directory / "manifest.json").read_text())
    rec.count("lattice.bytes_written", _directory_bytes(directory, manifest))


def matrices_digest(mats) -> str:
    """sha256 of integer matrices as sorted int64 rows; order-free."""
    import numpy as np

    rows = sorted(tuple(int(x) for row in m for x in row) for m in mats)
    return hashlib.sha256(np.array(rows, dtype="<i8").tobytes()).hexdigest()


def _observe_load(rec: Recorder, args, kwargs, result) -> None:
    _, _, records, manifest = result
    rec.count("lattice.bytes_read", _directory_bytes(Path(args[0]), manifest))
    rec.checks["load_cache_digest"] = matrices_digest(r.matrix for r in records)


def _observe_certify(rec: Recorder, args, kwargs, result) -> None:
    rec.count("loxodromy.certified", int(result.certified))


_OBSERVERS = {
    "lattice.enumerate_elements": _observe_enumerate,
    "lattice.save_cache": _observe_save,
    "lattice.load_cache": _observe_load,
    "loxodromy.certify": _observe_certify,
}


# -------------------------------------------------------------- aggregation


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, ()), start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def inclusive_times(spans) -> dict[str, float]:
    """Per-name duration of the spans not nested in a span of the same name."""
    out: dict[str, float] = {}
    for name, start, end, parent in spans:
        p, nested = parent, False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in a fixed order."""
    names = ["cli.import_s", "cli.dispatch_s", "cli.dispatch_self_s", "cli.stdout_bytes"]
    names += [
        "lattice.candidates",
        "lattice.records",
        "lattice.records_per_candidate",
        "lattice.bytes_written",
        "lattice.bytes_read",
        "loxodromy.certified_ratio",
        "bqf.calls",
    ]
    for module, targets in TARGETS.items():
        for target in targets:
            name = span_name(module, target)
            names += [f"{name}_s", f"{name}_calls"]
    for name in CACHED:
        names += [f"{name}_hits", f"{name}_misses"]
    names += [f"{layer}.self_s" for layer in TARGETS]
    names += [f"warnings.{c}" for c in WARNING_CATEGORIES] + ["warnings.other"]
    names += ["trace.spans", "trace.wrapper_s", "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.startswith("lattice.bytes"):
        return "B"
    if name.endswith("_ratio") or name.endswith("_per_candidate"):
        return "ratio"
    return "count"


def summarize(docs, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics over the span dumps of one traced job."""
    values = {name: 0.0 for name in per_layer_names()}
    counters: dict[str, float] = {}
    for doc in docs:
        spans = doc["spans"]
        for name, value in inclusive_times(spans).items():
            values[f"{name}_s"] += value
        for (name, *_), self_s in zip(spans, self_times(spans)):
            layer = name.split(".")[0]
            if layer == "cli":  # one dispatch per command
                values["cli.dispatch_self_s"] += self_s
            else:
                values[f"{layer}.self_s"] += self_s
                values[f"{name}_calls"] += 1
        for name, n in doc["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for name, info in doc["cache_info"].items():
            values[f"{name}_hits"] += info["hits"]
            values[f"{name}_misses"] += info["misses"]
        for category, n in doc.get("warnings", {}).items():
            key = f"warnings.{category}"
            values[key if key in values else "warnings.other"] += n
        values["cli.import_s"] += doc.get("import_s", 0.0)
        values["cli.stdout_bytes"] += doc.get("stdout_bytes", 0)
        values["trace.spans"] += len(spans)
        values["trace.wrapper_s"] += len(spans) * doc.get("wrapper_cost_s", 0.0)
    for name in ("lattice.candidates", "lattice.records", "lattice.bytes_written",
                 "lattice.bytes_read"):
        values[name] = counters.get(name, 0)
    if values["lattice.candidates"]:
        values["lattice.records_per_candidate"] = (
            values["lattice.records"] / values["lattice.candidates"]
        )
    if values["loxodromy.certify_calls"]:
        values["loxodromy.certified_ratio"] = (
            counters.get("loxodromy.certified", 0) / values["loxodromy.certify_calls"]
        )
    values["bqf.calls"] = sum(values[f"{span_name('bqf', t)}_calls"] for t in TARGETS["bqf"])
    values["trace.overhead_s"] = overhead_s
    return values

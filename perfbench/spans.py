"""In-memory span tracer that times glocal's layers from outside the package.

A traced pass replaces each function in ``TARGETS`` under the name its
calling module binds (``glocal.coupling.condense``, not
``glocal.condensation.condense``), so every call a layer makes into the
next one is recorded as a span: layer name, start, end, parent span and
pass id.  Nothing under ``src/`` changes; ``Tracer.installed`` puts every
original back when the pass ends and ``untouched`` proves it.

Spans stay in memory and are written once, by ``Tracer.write``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import itertools
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

MB = 1e6
FLOAT_BYTES = 8


def _elements(args, kwargs, result):
    return {"elements": args[0].element_count}


def _condensed(args, kwargs, result):
    n_i, n_g = len(result.interior_dofs), result.interface_count
    return {"interior_dofs": n_i,
            "dense_bytes": FLOAT_BYTES * (n_i * n_i + n_i * n_g + n_g * n_g)}


def _transfer_candidates(args, kwargs, result):
    # build_transfer tests every fine node against every pair of global
    # interface nodes (its all-pairs segment search).
    n_global, n_fine = len(args[0]), len(args[1])
    return {"candidates": n_fine * n_global * (n_global - 1) // 2}


def _companion_dim(args, kwargs, result):
    return {"companion_dim": result.matrix.shape[0]}


def _embedded_bytes(args, kwargs, result):
    return {"embedded_bytes": FLOAT_BYTES * args[0] * args[0]}


@dataclass(frozen=True)
class Target:
    """One binding to wrap: ``owner.attr`` is timed as span ``layer``.

    ``owner`` is a dotted module path, optionally ending in a class name.
    ``count`` turns (args, kwargs, result) into named counts on the span.
    """

    owner: str
    attr: str
    layer: str
    count: Callable | None = None


_MESH = "model_problems.mesh"

TARGETS: tuple[Target, ...] = (
    # scenario generators, called by the benchmark through glocal.scenarios
    Target("glocal.scenarios", "imbalanced_grid", "scenarios.generator"),
    Target("glocal.scenarios", "two_patch_2d", "scenarios.generator"),
    Target("glocal.scenarios", "build_structured_mesh", _MESH),
    Target("glocal.scenarios", "extract_submesh", _MESH),
    Target("glocal.scenarios", "nodes_on_plane", _MESH),
    Target("glocal.scenarios", "scale_coefficient_in_ball", _MESH),
    Target("glocal.scenarios", "with_dirichlet", _MESH),
    Target("glocal.scenarios", "build_scenario", "coupling.build_scenario"),
    # what build_scenario calls
    Target("glocal.coupling", "extract_submesh", _MESH),
    Target("glocal.coupling", "assemble", "model_problems.assemble",
           _elements),
    Target("glocal.coupling", "condense", "condensation.condense",
           _condensed),
    Target("glocal.coupling", "build_transfer", "coupling.build_transfer",
           _transfer_candidates),
    Target("glocal.coupling", "embedded_fine_schur",
           "coupling.embedded_fine_schur", _embedded_bytes),
    # the iteration kernel
    Target("glocal.coupling", "dirichlet_to_neumann",
           "condensation.dirichlet_to_neumann"),
    Target("glocal.coupling", "interface_reaction",
           "coupling.interface_reaction"),
    Target("glocal.solvers", "interface_reaction",
           "coupling.interface_reaction"),
    Target("glocal.async_engine", "interface_reaction",
           "coupling.interface_reaction"),
    Target("glocal.coupling.CouplingScenario", "solve_interface",
           "coupling.solve_interface"),
    Target("glocal.solvers", "compute_residual", "solvers.compute_residual"),
    # solver entry points, called by the benchmark through their modules
    Target("glocal.solvers", "richardson_sync", "solvers.richardson_sync"),
    Target("glocal.solvers", "monolithic_reference",
           "solvers.monolithic_reference"),
    Target("glocal.async_engine", "run_async_simulated",
           "async_engine.run_async_simulated"),
    Target("glocal.async_engine", "run_sync_concurrent",
           "async_engine.run_sync_concurrent"),
    Target("glocal.async_engine", "run_async_concurrent",
           "async_engine.run_async_concurrent"),
    Target("glocal.spectral", "generalized_alphas",
           "spectral.generalized_alphas"),
    Target("glocal.spectral", "certify_paracontraction",
           "spectral.certify_paracontraction"),
    Target("glocal.spectral", "build_companion", "spectral.build_companion",
           _companion_dim),
    Target("glocal.spectral", "spectral_radius", "spectral.spectral_radius"),
    Target("glocal.cli", "write_history", "cli.write"),
    Target("glocal.cli", "write_trace", "cli.write"),
    Target("glocal.cli", "write_summary", "cli.write"),
    Target("glocal.cli", "write_certificate", "cli.write"),
)


def _resolve(path: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def _defined(fn):
    """The object found where ``fn`` says it was defined."""
    obj = importlib.import_module(fn.__module__)
    for part in fn.__qualname__.split("."):
        obj = getattr(obj, part)
    return obj


def snapshot() -> dict[tuple[str, str], object]:
    """Current object behind every target binding."""
    return {(t.owner, t.attr): getattr(_resolve(t.owner), t.attr)
            for t in TARGETS}


def untouched(originals: dict) -> list[str]:
    """Names of target bindings that no longer hold the original function.

    A binding passes when it is the object recorded in ``originals`` and
    that object is the one its defining module exports, e.g.
    ``glocal.coupling.condense is glocal.condensation.condense``.
    """
    bad = []
    for t in TARGETS:
        current = getattr(_resolve(t.owner), t.attr)
        if current is not originals[(t.owner, t.attr)] \
                or _defined(current) is not current:
            bad.append(f"{t.owner}.{t.attr}")
    return bad


@dataclass
class Tracer:
    """Records spans while installed and ``recording``.

    A span is ``(id, name, start, end, parent id, pass id, counts)``; the
    parent is the innermost open span of the same thread, or 0 at the top.
    """

    spans: list = field(default_factory=list)
    pass_id: int = 0
    recording: bool = True
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, parent, counts):
        end = perf_counter()
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, self.pass_id,
                           counts))

    def _record(self, name, fn, args, kwargs, count):
        sid, parent = self._open()
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
        finally:
            counts = count(args, kwargs, result) \
                if count and result is not None else None
            self._close(sid, name, start, parent, counts)
        return result

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start, parent, None)

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            return self._record(target.layer, fn, args, kwargs, target.count)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for t in TARGETS:
                owner = _resolve(t.owner)
                original = getattr(owner, t.attr)
                saved.append((owner, t.attr, original))
                setattr(owner, t.attr, self._wrap(t, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def suspended(self):
        """Run a block (the benchmark's checks) without recording spans."""
        before, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = before

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "pass",
                             "counts"])
            for sid, name, start, end, parent, pass_id, counts in self.spans:
                text = ";".join(f"{k}={v}" for k, v in counts.items()) \
                    if counts else ""
                writer.writerow([sid, name, repr(start), repr(end), parent,
                                 pass_id, text])


@dataclass
class LayerTotal:
    """Aggregate of one span name within one pass."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    sums: dict = field(default_factory=dict)
    maxima: dict = field(default_factory=dict)


def layer_totals(spans, pass_id: int) -> dict[str, LayerTotal]:
    """Calls, inclusive time, self time and counts per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans run on one thread at a time, so children never
    overlap.
    """
    mine = [s for s in spans if s[5] == pass_id]
    child_time: dict[int, float] = {}
    for sid, _, start, end, parent, _, _ in mine:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, LayerTotal] = {}
    for sid, name, start, end, _, _, counts in mine:
        agg = out.setdefault(name, LayerTotal())
        agg.calls += 1
        agg.total_s += end - start
        agg.self_s += end - start - child_time.get(sid, 0.0)
        for key, value in (counts or {}).items():
            agg.sums[key] = agg.sums.get(key, 0) + value
            agg.maxima[key] = max(agg.maxima.get(key, value), value)
    return out

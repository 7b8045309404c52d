"""In-memory span tracing of randhull's layer boundaries, from outside the package.

The layers are randhull's modules.  A module calls another layer through a
name it imported (``from .nets import blocked_max_dot``), and Python looks
that name up in the caller's module globals on every call.  The tracer
replaces each such imported binding with a wrapper that records a span, so
the program's source stays untouched.  Calls inside one module are not layer
boundaries and are not wrapped: ``nets.build_net`` calling its own
``blocked_max_dot`` stays inside the ``nets.build_net`` span.

Spans live in memory until ``take()``; the caller writes them out at the end.
Spans opened on a worker thread with no open span of their own are children
of the innermost open span of the thread that installed the tracer, which is
the experiment that started the pool.  A span opened by ``sampling.sample``
under an ``experiments`` span starts a new replication id on its thread;
later spans on that thread share it until the next one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("geometry", "nets", "sampling", "estimators", "bounds", "experiments", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str  # "<layer>.<function>"
    t0: float
    t1: float = 0.0
    thread: int = 0
    rep: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _max_dot_attrs(args, result) -> dict:
    (m, d), n = args[0].shape, len(args[1])
    # computed from shapes, not counted by hardware
    return {
        "m": m,
        "n": n,
        "d": d,
        "flop": 2 * m * n * d,
        "bytes": 16 * m * n + 8 * n * d,
    }


def _build_net_attrs(args, result) -> dict:
    return {
        "size": len(result),
        "cover_radius": result.cover_radius,
        "certified": result.certified,
    }


def _sample_attrs(args, result) -> dict:
    return {"n": result.n}


def _contains_attrs(args, result) -> dict:
    return {"rows": len(result), "accepted": int(result.sum())}


# what each span records about its call, by span name
ATTRS = {
    "nets.blocked_max_dot": _max_dot_attrs,
    "nets.build_net": _build_net_attrs,
    "sampling.sample": _sample_attrs,
    "geometry.contains_batch": _contains_attrs,
}


class Tracer:
    """Wraps cross-layer bindings while installed; records one Span per call."""

    def __init__(self):
        self._ids = itertools.count()
        self._reps = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home: list[Span] = []
        self._rep_of: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every function one randhull layer imported from another."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._home
        modules = {name: importlib.import_module(f"randhull.{name}") for name in LAYERS}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if owner == mod.__name__.rpartition(".")[2] or owner not in modules:
                    continue
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(f"{owner}.{obj.__name__}", obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                self._local.stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, result)
            return result

        return traced

    def _open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            # a pool worker: attribute it to the span that is waiting on it
            parent = self._home[-1] if self._home else None
        thread = threading.get_ident()
        rep = None
        if parent is not None and parent.layer == "experiments":
            if name == "sampling.sample":
                self._rep_of[thread] = next(self._reps)
            rep = self._rep_of.get(thread)
        with self._lock:
            span = Span(
                id=next(self._ids),
                parent=None if parent is None else parent.id,
                name=name,
                t0=0.0,
                thread=thread,
                rep=rep,
            )
            self.spans.append(span)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
            self._rep_of.clear()
        return spans


# ---------------------------------------------------------------------------
# span-tree arithmetic


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children on parallel threads overlap; the union counts each instant once.
    """
    kids: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            kids.setdefault(p.id, []).append((max(s.t0, p.t0), min(s.t1, p.t1)))
    return {s.id: s.duration - covered(kids.get(s.id, ())) for s in spans}


# ---------------------------------------------------------------------------
# per-layer metrics of one traced workload call

# spans whose time a named per-layer metric reports (bounds: the outermost)
NAMED = (
    "nets.blocked_max_dot",
    "nets.build_net",
    "sampling.sample",
    "geometry.contains_batch",
    "geometry.support",
    "geometry.support_batch",
)


def call_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer numbers of one call, from its spans and its harness wall time."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    parent = {s.id: by_id.get(s.parent) for s in spans}

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(group: list[Span]) -> float:
        return sum(s.duration for s in group)

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        out[f"{s.layer}.self_s"] += selfs[s.id]

    dots = named("nets.blocked_max_dot")
    flop = sum(s.attrs["flop"] for s in dots)
    out["nets.max_dot_s"] = total(dots)
    out["nets.max_dot_calls"] = len(dots)
    out["nets.max_dot_gflop"] = flop / 1e9
    out["nets.max_dot_gbyte"] = sum(s.attrs["bytes"] for s in dots) / 1e9
    out["nets.max_dot_gflop_per_s"] = flop / 1e9 / out["nets.max_dot_s"] if dots else 0.0

    built = named("nets.build_net")
    out["nets.build_s"] = total(built)
    out["nets.size"] = sum(s.attrs["size"] for s in built)
    out["nets.cover_radius"] = max((s.attrs["cover_radius"] for s in built), default=0.0)
    out["nets.certified"] = float(bool(built) and all(s.attrs["certified"] for s in built))

    draws = named("sampling.sample")
    tests: dict[int, list[Span]] = {}
    for s in named("geometry.contains_batch"):
        tests.setdefault(s.parent, []).append(s)
    proposed = accepted = 0
    for s in draws:
        inner = tests.get(s.id)
        # a sampler without a containment test keeps every point it draws
        proposed += sum(t.attrs["rows"] for t in inner) if inner else s.attrs["n"]
        accepted += sum(t.attrs["accepted"] for t in inner) if inner else s.attrs["n"]
    out["sampling.sample_s"] = total(draws)
    out["sampling.points"] = sum(s.attrs["n"] for s in draws)
    out["sampling.proposed"] = proposed
    out["sampling.accept_ratio"] = accepted / proposed if proposed else 0.0
    out["geometry.contains_s"] = total(named("geometry.contains_batch"))
    out["geometry.support_s"] = total(named("geometry.support") + named("geometry.support_batch"))

    def outermost(layer: str) -> list[Span]:
        return [
            s for s in spans
            if s.layer == layer and (parent[s.id] is None or parent[s.id].layer != layer)
        ]

    out["bounds.check_s"] = total(outermost("bounds"))
    children_of_experiments = [
        s for s in spans if parent[s.id] is not None and parent[s.id].layer == "experiments"
    ]
    # every workload runs one thread under experiments
    out["experiments.busy_frac"] = total(children_of_experiments) / wall

    # the spans behind the named layer metrics above; union, as they nest
    # (contains_batch in sample) and run in parallel on the thread pool
    named_spans = [s for s in spans if s.name in NAMED] + outermost("bounds")
    accounted = covered((s.t0, s.t1) for s in named_spans)
    accounted += out["experiments.self_s"] + out["cli.self_s"]
    out["trace.spans"] = len(spans)
    out["trace.accounted_frac"] = accounted / wall
    return out


def replication_ms(spans: list[Span]) -> list[float]:
    """Replication times at the largest n: sample span plus metric span, in ms."""
    by_rep: dict[int, list[Span]] = {}
    for s in spans:
        if s.rep is not None:
            by_rep.setdefault(s.rep, []).append(s)
    sizes = {
        rep: max(s.attrs["n"] for s in group if s.name == "sampling.sample")
        for rep, group in by_rep.items()
    }
    if not sizes:
        return []
    largest = max(sizes.values())
    return [
        1e3 * sum(s.duration for s in by_rep[rep])
        for rep, n in sizes.items()
        if n == largest
    ]

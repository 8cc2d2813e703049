"""Outside-in per-layer tracer.

Wraps the public functions and methods of the library's modules from
outside (nothing under ``src/`` changes), records one span per wrapped
call, and attributes each span's *self* time -- its duration minus the
time its child spans cover -- to the layer that owns the code.

Spans are kept in memory and written once, at the end of the traced
run, as Chrome/Perfetto ``traceEvents`` JSON.  Each span records its
name, start, end, parent span, rank (the simulator thread) and job id.

Self times use two clocks per span: wall (``time.perf_counter``) and
the calling thread's CPU (``time.thread_time``).  ``wait`` is self
wall minus self CPU: blocked receives plus waits for the interpreter
lock, since the simulator's rank threads share it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import itertools
import json
import sys
import threading
import time

#: Layer -> module prefixes whose code it owns.  The first matching
#: entry wins, so a specific module is listed before its package.
LAYERS = (
    ("chaos.partition", ("repro.chaos.partition",)),
    ("chaos.array", ("repro.chaos.array", "repro.chaos.translation",
                     "repro.chaos.interface", "repro.distrib.irregular")),
    ("chaos.sweep", ("repro.chaos",)),
    ("blockparti", ("repro.blockparti",)),
    ("hpf", ("repro.hpf",)),
    ("distrib", ("repro.distrib",)),
    ("core.schedule", ("repro.core.schedule", "repro.core.region",
                       "repro.core.setofregions", "repro.core.linearization",
                       "repro.core.runs", "repro.core.validate")),
    ("core.plan", ("repro.core.plan", "repro.core.dataplane",
                   "repro.core.wire", "repro.core.cache")),
    ("core.move", ("repro.core",)),
    ("vmachine.window", ("repro.vmachine.window",)),
    ("vmachine.comm", ("repro.vmachine.comm",)),
    ("containers", ("repro.containers",)),
    ("service", ("repro.service", "repro.dobj")),
    ("apps", ("repro.apps",)),
)

#: Functions of ``repro.core.api`` that belong to another core layer than
#: the move API they sit beside.
OVERRIDES = {
    "repro.core.api.mc_new_set_of_regions": "core.schedule",
    "repro.core.api.mc_add_region_to_set": "core.schedule",
    "repro.core.api.mc_compute_schedule": "core.schedule",
    "repro.core.api.mc_compute_plan": "core.plan",
}

LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Spans kept for the trace file; later spans still count toward the
#: per-layer totals.  Bounds the tracer's memory on message-heavy jobs.
MAX_SPANS = 100_000


def layer_of(qualname: str) -> str | None:
    if qualname in OVERRIDES:
        return OVERRIDES[qualname]
    for layer, prefixes in LAYERS:
        for p in prefixes:
            if qualname == p or qualname.startswith(p + "."):
                return layer
    return None


class Tracer:
    """Span recorder with per-thread stacks and per-layer self totals."""

    def __init__(self):
        self.job = 0
        self._tls = threading.local()
        self._threads: list[dict] = []  # one record per thread seen
        self._ids = itertools.count(1)
        self._tids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> dict:
        st = getattr(self._tls, "state", None)
        if st is None:
            st = {
                "rank": threading.current_thread().name,
                "tid": next(self._tids),
                "stack": [],
                "totals": {},  # layer -> [self_cpu, self_wall, calls]
                "spans": [],
            }
            self._tls.state = st
            self._threads.append(st)
        return st

    def wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st["stack"]
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            # [id, child_wall, child_cpu]
            frame = [sid, 0.0, 0.0]
            stack.append(frame)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                wall = t1 - t0
                cpu = c1 - c0
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
                tot = st["totals"].get(layer)
                if tot is None:
                    tot = st["totals"][layer] = [0.0, 0.0, 0]
                tot[0] += cpu - frame[2]
                tot[1] += wall - frame[1]
                tot[2] += 1
                if sid <= MAX_SPANS:
                    st["spans"].append((name, layer, t0, t1, sid, parent,
                                        tracer.job))

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installing / removing the wrappers -----------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every public function/method of the layer modules.

        Module-level functions are also rebound wherever another module
        imported them by name (``from x import f``), including the
        benchmark's own ``extra_modules``.
        """
        replaced: dict[int, object] = {}  # id(original) -> wrapper
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("repro") and m is not None]
        for mod in modules:
            if layer_of(mod.__name__) is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._wrap_function(mod, attr, obj, replaced)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj)
        # Rebind by-name imports of the wrapped module-level functions.
        for mod in modules + list(extra_modules):
            d = vars(mod)
            for attr, obj in list(d.items()):
                w = replaced.get(id(obj))
                if w is not None and d[attr] is not w:
                    self._patch(mod, attr, w)

    def _wrap_function(self, mod, attr, fn, replaced) -> None:
        if not _plain(fn):
            return
        qual = f"{mod.__name__}.{attr}"
        layer = layer_of(qual)
        w = self.wrap(fn, layer, f"{mod.__name__.removeprefix('repro.')}.{attr}")
        replaced[id(fn)] = w
        self._patch(mod, attr, w)

    def _wrap_class(self, cls) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        layer = layer_of(f"{cls.__module__}.{cls.__name__}")
        short = f"{cls.__module__.removeprefix('repro.')}.{cls.__name__}"
        # A dataclass's generated __init__ only stores fields.
        init = "" if dataclasses.is_dataclass(cls) else "__init__"
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != init:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if not _plain(fn):
                    continue
                w = type(raw)(self.wrap(fn, layer, f"{short}.{attr}"))
            elif inspect.isfunction(raw):
                if not _plain(raw):
                    continue
                w = self.wrap(raw, layer, f"{short}.{attr}")
            else:
                continue
            self._patch(cls, attr, w)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Layer -> [self_cpu_s, self_wall_s, calls], summed over threads."""
        out = {layer: [0.0, 0.0, 0] for layer in LAYER_NAMES}
        for st in self._threads:
            for layer, (cpu, wall, calls) in st["totals"].items():
                acc = out[layer]
                acc[0] += cpu
                acc[1] += wall
                acc[2] += calls
        return out

    def span_count(self) -> int:
        """Spans recorded so far, kept or not."""
        return sum(calls for _, _, calls in self.totals().values())

    def write_perfetto(self, path) -> None:
        """Chrome/Perfetto JSON: one complete ("X") event per span."""
        events = []
        origin = min(
            (s[2] for st in self._threads for s in st["spans"]), default=0.0
        )
        for st in self._threads:
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": st["tid"], "args": {"name": st["rank"]}})
            for name, layer, t0, t1, sid, parent, job in st["spans"]:
                events.append({
                    "name": name, "cat": layer, "ph": "X", "pid": 1,
                    "tid": st["tid"],
                    "ts": round((t0 - origin) * 1e6, 3),
                    "dur": round((t1 - t0) * 1e6, 3),
                    "args": {"span": sid, "parent": parent,
                             "rank": st["rank"], "job": job},
                })
        dropped = max(0, self.span_count() - MAX_SPANS)
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"spans_dropped": dropped}}, f)


def _plain(fn) -> bool:
    """Only synchronous, non-generator callables get spans: wrapping a
    coroutine or generator function would time its creation only."""
    return not (inspect.iscoroutinefunction(fn)
                or inspect.isgeneratorfunction(fn)
                or inspect.isasyncgenfunction(fn)
                or getattr(fn, "__wrapped_by_tracer__", False))

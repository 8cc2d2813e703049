"""Run-scoped sharing of rank-invariant computation.

In an SPMD program every rank often computes the same value from the
same inputs: each Chaos rank runs the partitioner and builds the same
replicated translation table.  On real hardware that duplication is the
price of having no shared memory; in this simulator the ranks are
threads of one process, so the host work can be done once per run.

:func:`replicated` is the single entry point.  Inside a run the first
rank to ask for a value builds it and every other rank blocks until it is
ready; outside a run (the host thread, or a process with no store) it is
a direct call.  The store charges nothing: a shared function must be
pure and free of communication and clock charges, so the logical clock
of every rank is the same whether the value was built or shared.  Any
logical cost of building the value is charged by the caller, on every
rank, outside the shared function.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Callable

import numpy as np

from repro.vmachine.process import current_process

__all__ = ["ReplicaStore", "replicated"]


class _Entry:
    __slots__ = ("arrays", "static", "ready", "value", "error")

    def __init__(self, arrays: tuple, static: dict):
        self.arrays = arrays
        self.static = static
        self.ready = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None

    def matches(self, arrays: tuple, static: dict) -> bool:
        return static == self.static and all(
            a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes()
            for a, b in zip(arrays, self.arrays)
        )


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    c = a.copy()
    c.flags.writeable = False
    return c


def _key(fn: Callable, arrays: tuple, static: dict) -> tuple:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).data)
    return (fn, len(arrays), repr(sorted(static.items())), h.digest())


class ReplicaStore:
    """One run's shared values, keyed by function and input content.

    Created by :meth:`~repro.vmachine.machine.VirtualMachine.run` and
    :func:`~repro.vmachine.program.run_programs`, hung on every rank's
    :class:`~repro.vmachine.process.Process` and dropped with the run.
    ``builds`` counts computations made for the store, ``hits`` the calls
    served from it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple, _Entry] = {}
        self.builds = 0
        self.hits = 0

    def get(self, fn: Callable, *arrays: np.ndarray, **static: Any) -> Any:
        arrays = tuple(np.asarray(a) for a in arrays)
        key = _key(fn, arrays, static)
        with self._lock:
            entry = self._entries.get(key)
            building = entry is None
            if building:
                # Private read-only snapshot: the value is a function of
                # exactly these bytes, whatever the caller does later.
                entry = _Entry(tuple(_frozen_copy(a) for a in arrays), static)
                self._entries[key] = entry
                self.builds += 1
        if building:
            try:
                entry.value = fn(*entry.arrays, **static)
            except BaseException as exc:
                entry.error = exc
                with self._lock:
                    del self._entries[key]
                raise
            finally:
                entry.ready.set()
            return entry.value
        entry.ready.wait()
        if entry.error is not None:
            raise entry.error
        if not entry.matches(arrays, static):
            # Digest collision: never alias different inputs.
            return fn(*arrays, **static)
        with self._lock:
            self.hits += 1
        return entry.value


def replicated(fn: Callable, *arrays: np.ndarray, **static: Any) -> Any:
    """``fn(*arrays, **static)``, computed once per run across all ranks.

    ``fn`` must be pure: no communication, no clock charge, no dependence
    on the calling rank.  The result is shared by reference, so callers
    must treat it as immutable (copy it, or have ``fn`` freeze it).
    """
    try:
        store = current_process().replicas
    except RuntimeError:  # host thread, outside any run
        store = None
    if store is None:
        return fn(*arrays, **static)
    return store.get(fn, *arrays, **static)

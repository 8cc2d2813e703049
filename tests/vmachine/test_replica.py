"""Run-scoped replica store: rank-invariant values built once per run."""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro.vmachine.replica as replica
from repro.chaos import ChaosArray, TranslationTable, rcb_owners
from repro.vmachine import (
    ProgramSpec,
    ReplicaStore,
    SPMDError,
    VirtualMachine,
    replicated,
    run_programs,
)


def _coords(n=400, seed=0):
    return np.random.default_rng(seed).random((n, 2))


class _Counting:
    """A pure function that records how often it really ran."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, a, *, k=1):
        with self._lock:
            self.calls += 1
        return a.sum() * k


def test_sixteen_ranks_build_once():
    coords = _coords()

    def spmd(comm):
        return rcb_owners(coords, comm.size), comm.process.replicas

    res = VirtualMachine(16).run(spmd)
    store = res.values[0][1]
    assert isinstance(store, ReplicaStore)
    assert all(v[1] is store for v in res.values)
    assert (store.builds, store.hits) == (1, 15)
    expected = rcb_owners(coords, 16)
    for owners, _ in res.values:
        np.testing.assert_array_equal(owners, expected)


def test_clocks_and_stats_unchanged_by_sharing(monkeypatch):
    coords = _coords()

    def spmd(comm):
        owners = rcb_owners(coords, comm.size)
        x = ChaosArray.zeros(comm, owners)
        table = TranslationTable.from_distribution(x.table.dist, x.table.size)
        ranks, _ = table.dereference(np.arange(table.size))
        return comm.allreduce(int(ranks.sum()), lambda p, q: p + q)

    shared = VirtualMachine(8).run(spmd)
    # Every rank builds its own values, as without a store.
    monkeypatch.setattr(
        ReplicaStore, "get", lambda self, fn, *a, **s: fn(*a, **s)
    )
    private = VirtualMachine(8).run(spmd)
    assert shared.values == private.values
    assert shared.clocks == private.clocks
    assert shared.stats == private.stats


def test_concurrent_callers_build_each_key_once():
    """Many more threads than cores, switching every microsecond: each
    key is built exactly once and every call is a build or a hit."""
    calls = {}
    lock = threading.Lock()

    def fn(a):
        with lock:
            calls[int(a[0])] = calls.get(int(a[0]), 0) + 1
        return a.copy()

    store = ReplicaStore()
    keys = [np.full(8, k) for k in range(4)]
    wrong = []

    def worker(i):
        for j in range(50):
            a = keys[(i + j) % len(keys)]
            if not np.array_equal(store.get(fn, a.copy()), a):
                wrong.append((i, j))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert calls == {k: 1 for k in range(4)}
    assert (store.builds, store.builds + store.hits) == (4, 32 * 50)


def test_contents_and_static_arguments_never_alias():
    fn = _Counting()
    store = ReplicaStore()
    a = np.arange(6, dtype=np.int64)
    b = a + 1
    assert store.get(fn, a, k=1) == 15
    assert store.get(fn, b, k=1) == 21
    assert store.get(fn, a, k=2) == 30
    # Same bytes under another dtype or shape is another key.
    assert store.get(fn, a.view(np.float64), k=1) == a.view(np.float64).sum()
    assert store.get(fn, a.reshape(2, 3), k=1) == 15
    assert store.get(fn, a, k=1) == 15
    assert (store.builds, store.hits, fn.calls) == (5, 1, 5)


def test_digest_collision_recomputes(monkeypatch):
    monkeypatch.setattr(replica, "_key", lambda fn, arrays, static: "same")
    fn = _Counting()
    store = ReplicaStore()
    assert store.get(fn, np.array([1, 2])) == 3
    assert store.get(fn, np.array([5, 5])) == 10
    assert store.get(fn, np.array([1, 2])) == 3
    assert (store.builds, store.hits) == (1, 1)


def test_mutated_coords_recompute():
    def spmd(comm):
        coords = _coords()  # private to this rank
        first = rcb_owners(coords, comm.size)
        coords[:, 0] = 1.0 - coords[:, 0]
        second = rcb_owners(coords, comm.size)
        return first, second, coords, comm.process.replicas

    res = VirtualMachine(4).run(spmd)
    store = res.values[0][3]
    assert (store.builds, store.hits) == (2, 6)
    for first, second, coords, _ in res.values:
        np.testing.assert_array_equal(first, rcb_owners(_coords(), 4))
        np.testing.assert_array_equal(second, rcb_owners(coords, 4))


def test_rcb_results_are_private_and_tables_shared_read_only():
    coords = _coords()

    def spmd(comm):
        owners = rcb_owners(coords, comm.size)
        owners[0] = owners[0]  # writable
        return owners, TranslationTable.from_owners(owners, comm.size)

    res = VirtualMachine(4).run(spmd)
    owners = [v[0] for v in res.values]
    tables = [v[1] for v in res.values]
    for i, o in enumerate(owners):
        assert o.flags.writeable
        for p in owners[i + 1:]:
            assert not np.shares_memory(o, p)
        assert not np.shares_memory(o, tables[0].dist.owners)
    dist = tables[0].dist
    assert all(t.dist is dist for t in tables)
    for a in (dist.owners, dist._offsets, dist._counts,
              *dist._local_to_global):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        dist.owners[0] = 0


def test_builder_error_reaches_every_waiter_promptly():
    started = threading.Event()

    def boom(a):
        started.set()
        time.sleep(0.2)
        raise ValueError("builder failed")

    def spmd(comm):
        return replicated(boom, np.zeros(3))

    t0 = time.perf_counter()
    with pytest.raises(SPMDError) as info:
        VirtualMachine(8).run(spmd)
    assert time.perf_counter() - t0 < 1.0
    assert started.is_set()
    assert len(info.value.errors) == 8
    for e in info.value.errors:
        assert isinstance(e.exception, ValueError)
        assert "builder failed" in str(e.exception)


def test_store_is_reclaimed_after_the_run():
    def spmd(comm):
        rcb_owners(_coords(), comm.size)
        return weakref.ref(comm.process.replicas)

    res = VirtualMachine(4).run(spmd)
    gc.collect()
    assert all(ref() is None for ref in res.values)


def test_host_thread_calls_directly():
    fn = _Counting()
    a = np.arange(4)
    assert replicated(fn, a, k=3) == 18
    assert replicated(fn, a, k=3) == 18
    assert fn.calls == 2
    owners = rcb_owners(_coords(), 4)
    assert owners.flags.writeable
    table = TranslationTable.from_owners(owners, 4)
    assert not table.dist.owners.flags.writeable
    assert not np.shares_memory(owners, table.dist.owners)


def test_both_programs_of_a_coupled_run_share_one_store():
    coords = _coords()

    def prog(ctx):
        owners = rcb_owners(coords, 4)
        return owners, ctx.comm.process.replicas

    res = run_programs(
        [ProgramSpec("a", 3, prog), ProgramSpec("b", 5, prog)]
    )
    values = res.programs["a"].values + res.programs["b"].values
    store = values[0][1]
    assert all(v[1] is store for v in values)
    assert (store.builds, store.hits) == (1, 7)
    for owners, _ in values:
        np.testing.assert_array_equal(owners, rcb_owners(coords, 4))

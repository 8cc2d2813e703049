"""The benchmark's four workloads.

Each workload class generates its inputs from the seed in ``__init__``
(the timed set-up), runs one complete job of its program in ``run``, and
checks that job's outputs against a reference in ``check``.  ``run``
returns a :class:`JobOut` whose ``counts`` are the simulator's exact
outputs (logical clock, messages, bytes, one-sided operations, cache
hits and misses): they must repeat exactly from job to job.

All four run at P=16 simulator ranks (service: 2 gateway + 3 server
ranks hosting 1024 tenant coroutines); ``run.py`` runs one job at a
time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import repro.blockparti  # noqa: F401  (registers the library adapters)
import repro.chaos  # noqa: F401
import repro.hpf  # noqa: F401
from repro.apps.cp_als import cp_als_serial, cp_als_spmd
from repro.apps.meshes import delaunay_mesh, full_remap_mapping
from repro.apps.service_demo import DemoVectors
from repro.blockparti import (
    BlockPartiArray,
    build_ghost_schedule,
    jacobi_sweep,
    parti_region,
)
from repro.chaos import ChaosArray, EdgeSweep, rcb_owners
from repro.core import (
    IndexRegion,
    ScheduleMethod,
    SectionRegion,
    mc_compute_plan,
    mc_compute_schedule,
    mc_copy,
    mc_copy_many,
    mc_new_set_of_regions,
)
from repro.distrib.section import Section
from repro.service import (
    ArraySpec,
    ServiceConfig,
    TenantSpec,
    run_service_gateway,
    serve_service,
)
from repro.vmachine import IBM_SP2, ProgramSpec, VirtualMachine, run_programs

NPROCS = 16


@dataclass
class JobOut:
    """What one job produced."""

    #: exact simulator outputs; identical for every job of one seed
    counts: dict
    #: per-op wall latencies in seconds; None where the op is the job
    latencies: list | None = None
    #: workload-specific data for ``check``
    data: object = None
    #: per-op-kind latencies (service only), in seconds
    by_kind: dict = field(default_factory=dict)


def _add(p, q):
    return p + q


def _counts(results) -> dict:
    """Exact counters summed over every rank of every program."""
    stats = [s for r in results for s in r.stats]

    def total(pred):
        return int(sum(v for s in stats for k, v in s.items() if pred(k)))

    return {
        "logical_ms": max(r.elapsed_ms for r in results),
        "messages": total(lambda k: k == "messages_sent"),
        "bytes": total(lambda k: k == "bytes_sent"),
        "window_ops": total(lambda k: k in (
            "rma_puts", "rma_gets", "rma_accs", "rma_fetch_ops")),
        "cache_hits": total(
            lambda k: k.startswith("cache_") and k.endswith("_hits")),
        "cache_misses": total(
            lambda k: k.startswith("cache_") and k.endswith("_misses")),
    }


# ---------------------------------------------------------------------------
# coupled_mesh: the paper's section 5.1 program
# ---------------------------------------------------------------------------

MESH_SHAPE = (256, 256)
MESH_POINTS = MESH_SHAPE[0] * MESH_SHAPE[1]
MESH_TIMESTEPS = 2


def _mesh_init(i, j):
    return (i + 2.0 * j) / (i + j + 1.0)


def _coupled_spmd(comm, mesh, irreg):
    """Structured mesh (Multiblock Parti) coupled to an RCB-partitioned
    Delaunay mesh (Chaos) by an ``mc-coop`` remap schedule; the same
    calls, in the same order, as ``run_coupled_single_program``."""
    owners = rcb_owners(mesh.coords, comm.size)
    a = BlockPartiArray.from_function(comm, MESH_SHAPE, _mesh_init)
    x = ChaosArray.zeros(comm, owners)
    y = ChaosArray.like(x)
    mine = np.flatnonzero(owners[mesh.ia] == comm.rank)
    ghost = build_ghost_schedule(a)
    sweep = EdgeSweep(x, mesh.ia[mine], mesh.ib[mine])
    sched = mc_compute_schedule(
        comm,
        "blockparti", a,
        mc_new_set_of_regions(SectionRegion(Section.full(MESH_SHAPE))),
        "chaos", x, mc_new_set_of_regions(IndexRegion(irreg)),
        ScheduleMethod.COOPERATION,
    )
    for _ in range(MESH_TIMESTEPS):
        jacobi_sweep(a, ghost)
        mc_copy(comm, sched, a, x)
        sweep.execute(x, y)
        mc_copy(comm, sched.reverse(), x, a)
    return comm.allreduce(
        float(a.local.sum() + x.local.sum() + y.local.sum()), _add)


class CoupledMesh:
    """256x256 BlockParti mesh <-> 65,536-point Delaunay mesh."""

    rtol = 1e-9

    def __init__(self, seed: int):
        mesh_seed, map_seed = np.random.default_rng(seed).integers(2**31, size=2)
        self.mesh = delaunay_mesh(MESH_POINTS, seed=int(mesh_seed))
        self.irreg, _, _ = full_remap_mapping(
            MESH_SHAPE, MESH_POINTS, seed=int(map_seed))

    def reference(self) -> float:
        """Serial NumPy version of the same two timesteps."""
        n0, n1 = MESH_SHAPE
        i, j = np.meshgrid(np.arange(n0), np.arange(n1), indexing="ij")
        a = _mesh_init(i, j)
        x = np.zeros(MESH_POINTS)
        y = np.zeros(MESH_POINTS)
        ia, ib = self.mesh.ia, self.mesh.ib
        for _ in range(MESH_TIMESTEPS):
            inner = a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:]
            a = a.copy()
            a[1:-1, 1:-1] = inner
            x[self.irreg] = a.ravel()
            flux = (x[ia] + x[ib]) / 4.0
            y += (np.bincount(ia, flux, MESH_POINTS)
                  + np.bincount(ib, flux, MESH_POINTS))
            a = x[self.irreg].reshape(MESH_SHAPE)
        return float(a.sum() + x.sum() + y.sum())

    def run(self) -> JobOut:
        res = VirtualMachine(NPROCS, IBM_SP2).run(
            _coupled_spmd, self.mesh, self.irreg)
        return JobOut(counts=_counts([res]), data=res.values)

    def check(self, out: JobOut, expected: float) -> str:
        for c in out.data:
            if not np.isclose(c, expected, rtol=self.rtol, atol=0.0):
                return f"checksum {c!r} != serial reference {expected!r}"
        return ""


# ---------------------------------------------------------------------------
# section_copy: the Table-5 pattern
# ---------------------------------------------------------------------------

SECTION_N = 1000
SECTION_ARRAYS = 4
SECTION_ITERS = 200
SECTION_SRC = parti_region((0, 0), (SECTION_N // 2 - 1, SECTION_N - 1))
SECTION_DST = parti_region((SECTION_N // 2, 0), (SECTION_N - 1, SECTION_N - 1))


def _section_spmd(comm, sources):
    A = [BlockPartiArray.from_global(comm, g) for g in sources]
    B = [BlockPartiArray.zeros(comm, g.shape) for g in sources]
    sched = mc_compute_schedule(
        comm,
        "blockparti", A[0], mc_new_set_of_regions(SECTION_SRC),
        "blockparti", B[0], mc_new_set_of_regions(SECTION_DST),
        ScheduleMethod.COOPERATION,
    )
    plan = mc_compute_plan([sched] * len(A))
    for _ in range(SECTION_ITERS):
        mc_copy(comm, sched, A[0], B[0])
        mc_copy_many(comm, plan, A, B)
    return B[0].owned_block(), [b.local_nd for b in B]


class SectionCopy:
    """A[0:500,:] -> B[500:1000,:] on 1000x1000 (block,block) arrays."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.sources = [rng.standard_normal((SECTION_N, SECTION_N))
                        for _ in range(SECTION_ARRAYS)]

    def reference(self) -> list:
        half = SECTION_N // 2
        out = []
        for src in self.sources:
            dst = np.zeros_like(src)
            dst[half:] = src[:half]
            out.append(dst)
        return out

    def run(self) -> JobOut:
        res = VirtualMachine(NPROCS, IBM_SP2).run(_section_spmd, self.sources)
        return JobOut(counts=_counts([res]), data=res.values)

    def check(self, out: JobOut, expected: list) -> str:
        for rank, (block, locals_) in enumerate(out.data):
            idx = tuple(slice(lo, hi) for lo, hi in block)
            for m, (local, dst) in enumerate(zip(locals_, expected)):
                if not np.array_equal(local, dst[idx]):
                    return f"rank {rank}: member {m} destination != source"
        return ""


# ---------------------------------------------------------------------------
# cp_als: one-sided sparse CP-ALS
# ---------------------------------------------------------------------------

CP_SHAPE = (60, 50, 40)
CP_NNZ = 5000
CP_RANK = 4
CP_ITERS = 3


def _cp_spmd(comm, seed):
    return cp_als_spmd(comm, shape=CP_SHAPE, R=CP_RANK, nnz=CP_NNZ,
                       iters=CP_ITERS, seed=seed, use_queue=False).factors


class CPALS:
    """(60,50,40) tensor, 5,000 raw nonzeros, R=4, 3 sweeps, accumulate.

    ``cp_als_spmd`` generates its nonzeros from a seed inside the job, so
    the program receives the seed and set-up only derives it.
    """

    rtol = 1e-10
    atol = 1e-12

    def __init__(self, seed: int):
        self.seed = int(np.random.default_rng(seed).integers(2**31))

    def reference(self) -> list:
        return cp_als_serial(CP_SHAPE, CP_RANK, CP_NNZ, CP_ITERS, self.seed)

    def run(self) -> JobOut:
        res = VirtualMachine(NPROCS, IBM_SP2).run(_cp_spmd, self.seed)
        return JobOut(counts=_counts([res]), data=res.values)

    def check(self, out: JobOut, expected: list) -> str:
        for rank, factors in enumerate(out.data):
            for m, (got, want) in enumerate(zip(factors, expected)):
                if not np.allclose(got, want, rtol=self.rtol, atol=self.atol):
                    return f"rank {rank}: factor {m} differs from cp_als_serial"
        return ""


# ---------------------------------------------------------------------------
# service_fleet: the multi-tenant coupling service
# ---------------------------------------------------------------------------

SVC_TENANTS = 1024
SVC_SHAPES = 8
SVC_SIZE = 64
SVC_ITERS = 2
SVC_GATEWAY = 2
SVC_SERVER = 3
#: awaited ops per tenant: create, bind, ITERS x (push, call, pull),
#: unbind, close
SVC_OPS = 4 + 3 * SVC_ITERS


def _tenant(attr: str, size: int, fill: float):
    """``demo_tenant``'s op sequence, timing each await by kind."""

    async def body(session):
        lat = []

        async def timed(kind, op, *args):
            t0 = time.perf_counter()
            out = await op(*args)
            lat.append((kind, time.perf_counter() - t0))
            return out

        await timed("create", session.create_array, "x",
                    ArraySpec("blockparti", size, fill=("value", fill)))
        binding = await timed("bind", session.bind, "vec", attr, "x")
        totals = []
        for _ in range(SVC_ITERS):
            await timed("move", session.push, binding)
            totals.append(await timed("call", session.call, "vec", "total",
                                      attr))
            await timed("move", session.pull, binding)
        await timed("unbind", session.unbind, binding)
        await timed("close", session.close)
        return totals, lat

    return body


class ServiceFleet:
    """1024 tenants over 8 shape classes against one server group.

    Every tenant of a shape class pushes the same seeded fill, so each
    ``total`` the class vector returns is ``fill * size`` whatever order
    the rounds interleave the tenants in.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.sizes = [SVC_SIZE + 8 * c for c in range(SVC_SHAPES)]
        self.fills = [float(v) for v in rng.integers(1, 1000, SVC_SHAPES)]
        self.config = ServiceConfig(max_queue_depth=max(1024, SVC_TENANTS))

    def reference(self) -> list:
        return [f * n for f, n in zip(self.fills, self.sizes)]

    def run(self) -> JobOut:
        sizes, fills, config = self.sizes, self.fills, self.config

        def gateway(ctx):
            fleet = [
                TenantSpec(f"tenant{i}", _tenant(
                    f"v{i % SVC_SHAPES}", sizes[i % SVC_SHAPES],
                    fills[i % SVC_SHAPES]))
                for i in range(SVC_TENANTS)
            ]
            return run_service_gateway(ctx, "server", fleet, config)

        def server(ctx):
            return serve_service(
                ctx, "gateway", {"vec": DemoVectors(ctx.comm, sizes)}, config)

        res = run_programs([
            ProgramSpec("gateway", SVC_GATEWAY, gateway),
            ProgramSpec("server", SVC_SERVER, server),
        ])
        report = res["gateway"].values[0]
        counts = _counts([res["gateway"], res["server"]])
        counts["rounds"] = report.rounds
        counts["shed"] = (report.admission["shed_queue_full"]
                          + report.admission["shed_tenant_cap"])
        counts["ops_served"] = res["server"].values[0]["ops_served"]
        lat, by_kind = [], {}
        for t in report.tenants:
            for kind, dt in (t.result[1] if t.ok else ()):
                lat.append(dt)
                by_kind.setdefault(kind, []).append(dt)
        return JobOut(counts=counts, latencies=lat, data=report,
                      by_kind=by_kind)

    def check(self, out: JobOut, expected: list) -> str:
        report = out.data
        if report.peer_lost:
            return f"server lost: {report.peer_lost}"
        if len(report.tenants) != SVC_TENANTS:
            return f"{len(report.tenants)} of {SVC_TENANTS} tenants reported"
        for i, t in enumerate(report.tenants):
            if not t.ok or t.result is None:
                return f"{t.name} did not complete: {t.error}"
            want = expected[i % SVC_SHAPES]
            if t.result[0] != [want] * SVC_ITERS:
                return f"{t.name}: totals {t.result[0]} != {want}"
            if len(t.result[1]) != SVC_OPS:
                return f"{t.name}: {len(t.result[1])} of {SVC_OPS} ops ran"
        return ""


WORKLOADS = {
    "coupled_mesh": CoupledMesh,
    "section_copy": SectionCopy,
    "cp_als": CPALS,
    "service_fleet": ServiceFleet,
}

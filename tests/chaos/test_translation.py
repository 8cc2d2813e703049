"""Translation-table tests (replicated and paged)."""

import numpy as np
import pytest

from repro.chaos import ChaosArray, PagedTranslationTable, TranslationTable
from repro.distrib.cartesian import CartesianDist

from helpers import run_spmd

OWNERS = np.random.default_rng(12).integers(0, 4, 64)


class TestReplicatedTable:
    def test_dereference_matches_dist(self):
        def spmd(comm):
            t = TranslationTable.from_owners(OWNERS % comm.size, comm.size)
            g = np.arange(64)
            r, o = t.dereference(g)
            r2, o2 = t.dist.owner_of_flat(g)
            return bool((r == r2).all() and (o == o2).all())

        assert all(run_spmd(4, spmd).values)

    def test_dereference_charges_per_element(self):
        def spmd(comm):
            t = TranslationTable.from_owners(OWNERS % comm.size, comm.size)
            t0 = comm.process.clock
            t.dereference(np.arange(64))
            per_elem = (comm.process.clock - t0) / 64
            return per_elem

        per_elem = run_spmd(2, spmd).values[0]
        assert per_elem == pytest.approx(30e-6)  # IBM_SP2 deref

    def test_memory_footprint_is_data_sized(self):
        def spmd(comm):
            t = TranslationTable.from_owners(OWNERS % comm.size, comm.size)
            return t.nbytes

        assert run_spmd(2, spmd).values[0] == 16 * 64

    def test_local_indices_partition(self):
        def spmd(comm):
            t = TranslationTable.from_owners(OWNERS % comm.size, comm.size)
            return t.local_indices(comm.rank)

        res = run_spmd(4, spmd)
        allidx = np.concatenate(res.values)
        assert sorted(allidx.tolist()) == list(range(64))

    def test_from_distribution_pointwise_wraps_regular(self):
        """The Table 2 baseline step: wrapping a regular mesh costs O(n)."""

        def spmd(comm):
            dist = CartesianDist.block_nd((8, 8), comm.size)
            t0 = comm.process.clock
            t = TranslationTable.from_distribution(dist, 64)
            cost = comm.process.clock - t0
            r1, _ = t.dist.owner_of_flat(np.arange(64))
            r2, _ = dist.owner_of_flat(np.arange(64))
            return bool((r1 == r2).all()) and cost > 0

        assert all(run_spmd(4, spmd).values)


class TestPagedTable:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_collective_dereference_matches_replicated(self, nprocs):
        def spmd(comm):
            owners = OWNERS % comm.size
            replicated = TranslationTable.from_owners(owners, comm.size)
            paged = PagedTranslationTable(comm, owners)
            # every rank queries a different, overlapping slice
            q = np.arange(64)[comm.rank::2] if comm.size > 1 else np.arange(64)
            r1, o1 = paged.dereference(q)
            r2, o2 = replicated.dist.owner_of_flat(q)
            return bool((r1 == r2).all() and (o1 == o2).all())

        assert all(run_spmd(nprocs, spmd).values)

    def test_memory_scales_down(self):
        def spmd(comm):
            paged = PagedTranslationTable(comm, OWNERS % comm.size)
            return paged.nbytes

        res = run_spmd(4, spmd)
        assert all(v <= 16 * 64 / 4 + 16 for v in res.values)

    def test_dereference_requires_communication(self):
        def spmd(comm):
            paged = PagedTranslationTable(comm, OWNERS % comm.size)
            comm.barrier()
            before = comm.process.stats["messages_sent"]
            paged.dereference(np.arange(64))
            return comm.process.stats["messages_sent"] - before

        res = run_spmd(4, spmd)
        assert sum(res.values) > 0

    def test_local_sizes_match(self):
        def spmd(comm):
            owners = OWNERS % comm.size
            paged = PagedTranslationTable(comm, owners)
            expected = int(np.sum(owners == comm.rank))
            return paged.local_size(comm.rank) == expected

        assert all(run_spmd(4, spmd).values)


def test_table2_chaos_over_regular_mesh_clocks_pinned(monkeypatch):
    """Paper Table 2's "Chaos alone" path wraps the regular mesh in a
    pointwise table (``from_distribution``) on every rank.  Building the
    owner map once per run must leave every rank's clock where the
    per-rank construction put it."""
    import repro.apps.coupled as coupled
    from repro.apps.meshes import delaunay_mesh, full_remap_mapping
    from repro.vmachine import VirtualMachine

    runs = []

    class Recording(VirtualMachine):
        def run(self, fn, *args, **kwargs):
            runs.append(super().run(fn, *args, **kwargs))
            return runs[-1]

    monkeypatch.setattr(coupled, "VirtualMachine", Recording)
    timings = coupled.run_coupled_single_program(
        4, (12, 12), delaunay_mesh(144, seed=3),
        full_remap_mapping((12, 12), 144, seed=5),
        timesteps=1, remap="chaos",
    )
    assert runs[0].clocks == [
        0.006193540214285716,
        0.006263558214285716,
        0.006263558214285716,
        0.0063335762142857155,
    ]
    assert timings.sched_ms == 2.1168491428571437
    assert timings.total_messages == 89

"""Irregular (owner-map) distribution tests."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.distrib.irregular import IrregularDist


class TestConstruction:
    def test_simple(self):
        d = IrregularDist(np.array([0, 1, 0, 1, 2]), 3)
        assert d.local_size(0) == 2
        assert d.local_size(1) == 2
        assert d.local_size(2) == 1
        d.check_valid()

    def test_offsets_follow_global_order(self):
        d = IrregularDist(np.array([1, 0, 1, 0]), 2)
        # rank 0 owns globals 1, 3 -> offsets 0, 1
        ranks, offsets = d.owner_of_flat(np.array([1, 3]))
        np.testing.assert_array_equal(offsets, [0, 1])

    def test_owner_out_of_range(self):
        with pytest.raises(ValueError):
            IrregularDist(np.array([0, 5]), 2)
        with pytest.raises(ValueError):
            IrregularDist(np.array([-1]), 2)

    def test_2d_owner_map_rejected(self):
        with pytest.raises(ValueError):
            IrregularDist(np.zeros((2, 2), dtype=int), 2)

    def test_empty(self):
        d = IrregularDist(np.zeros(0, dtype=int), 2)
        assert d.size == 0
        assert d.local_size(0) == 0

    def test_from_local_lists(self):
        d = IrregularDist.from_local_lists(
            [np.array([3, 0]), np.array([1, 2])], size=4
        )
        ranks, _ = d.owner_of_flat(np.arange(4))
        np.testing.assert_array_equal(ranks, [0, 1, 1, 0])

    def test_from_local_lists_duplicate(self):
        with pytest.raises(ValueError, match="two owners"):
            IrregularDist.from_local_lists([np.array([0]), np.array([0])], size=1)

    def test_from_local_lists_missing(self):
        with pytest.raises(ValueError, match="no owner"):
            IrregularDist.from_local_lists([np.array([0])], size=2)


class TestLookups:
    @pytest.fixture
    def dist(self):
        rng = np.random.default_rng(11)
        return IrregularDist(rng.integers(0, 4, 50), 4)

    def test_local_to_global_roundtrip(self, dist):
        for r in range(dist.nprocs):
            g = dist.local_to_global(r, np.arange(dist.local_size(r)))
            ranks, offs = dist.owner_of_flat(g)
            assert (ranks == r).all()
            np.testing.assert_array_equal(offs, np.arange(dist.local_size(r)))

    def test_offset_within_owner(self, dist):
        g = np.arange(dist.size)
        _, offs = dist.owner_of_flat(g)
        np.testing.assert_array_equal(dist.offset_within_owner(g), offs)

    def test_owned_global_ascending(self, dist):
        for r in range(dist.nprocs):
            g = dist.owned_global(r)
            assert (np.diff(g) > 0).all()

    def test_descriptor_roundtrip(self, dist):
        d2 = dist.descriptor().materialize()
        assert d2 == dist

    def test_descriptor_is_data_sized(self, dist):
        # The paper's duplication-method caveat: the descriptor is as big
        # as the data itself.
        assert dist.descriptor().nbytes == dist.size * 8

    def test_equality(self, dist):
        same = IrregularDist(dist.owners.copy(), dist.nprocs)
        assert same == dist
        other = IrregularDist((dist.owners + 1) % dist.nprocs, dist.nprocs)
        assert other != dist


@given(
    owners=st.lists(st.integers(0, 3), min_size=1, max_size=80),
)
def test_property_irregular_is_partition(owners):
    d = IrregularDist(np.array(owners, dtype=np.int64), 4)
    d.check_valid()


@given(owners=st.lists(st.integers(0, 2), min_size=1, max_size=50))
def test_property_descriptor_roundtrip(owners):
    d = IrregularDist(np.array(owners, dtype=np.int64), 3)
    assert d.descriptor().materialize() == d


class TestLocalToGlobal:
    """The per-rank local→global lists are the stable sort's owner groups."""

    @given(
        n=st.integers(0, 60),
        nprocs=st.integers(1, 80),
        seed=st.integers(0, 2**16),
    )
    @example(n=3, nprocs=8, seed=0)  # P > N: some ranks are always empty
    @example(n=0, nprocs=2, seed=0)
    def test_matches_per_rank_scan(self, n, nprocs, seed):
        # nprocs ranges past n, so P > N and empty ranks are both drawn.
        owners = np.random.default_rng(seed).integers(0, nprocs, size=n)
        d = IrregularDist(owners, nprocs)
        assert len(d._local_to_global) == nprocs
        for r in range(nprocs):
            expected = np.flatnonzero(owners == r).astype(np.int64)
            got = d._local_to_global[r]
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)

    def test_freeze_makes_every_array_read_only(self):
        d = IrregularDist(np.array([1, 0, 1]), 2).freeze()
        for a in (d.owners, d._offsets, d._counts, *d._local_to_global):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            d.owners[0] = 0

"""Irregular distributions: explicit owner maps.

The Chaos library distributes one-dimensional arrays pointwise: a
*translation table* records, for every global index, the owning processor
and the local offset there.  :class:`IrregularDist` is the pure owner-map
part of that machinery (the Chaos analogue adds replicated vs. paged table
storage and the per-lookup cost accounting on top).
"""

from __future__ import annotations

import numpy as np

from repro.distrib.base import DistDescriptor, Distribution

__all__ = ["IrregularDist"]


class IrregularDist(Distribution):
    """Distribution defined by an explicit per-element owner array.

    Local offsets are assigned by ascending global index within each owner
    (the standard Chaos convention: a processor stores its elements in
    global-index order).
    """

    def __init__(self, owners: np.ndarray, nprocs: int):
        owners = np.asarray(owners, dtype=np.int64)
        if owners.ndim != 1:
            raise ValueError("owner map must be one-dimensional")
        if len(owners) and (owners.min() < 0 or owners.max() >= nprocs):
            raise ValueError("owner rank out of range")
        self.owners = owners
        self.nprocs = nprocs
        self.size = len(owners)
        # offsets[g] = position of g within its owner's local storage
        self._offsets = np.zeros(self.size, dtype=np.int64)
        self._counts = np.bincount(owners, minlength=nprocs).astype(np.int64)
        # Stable per-owner running count, vectorized: sort by owner (stable),
        # number within each group, scatter back.
        order = np.argsort(owners, kind="stable")
        grouped = owners[order]
        within = np.arange(self.size, dtype=np.int64)
        if self.size:
            group_starts = np.zeros(self.size, dtype=np.int64)
            new_group = np.empty(self.size, dtype=bool)
            new_group[0] = True
            new_group[1:] = grouped[1:] != grouped[:-1]
            starts = within[new_group]
            group_id = np.cumsum(new_group) - 1
            group_starts = starts[group_id]
            self._offsets[order] = within - group_starts
        # local -> global lookup: for each rank, its global indices
        # ascending — exactly the stable sort's per-owner groups.
        self._local_to_global: list[np.ndarray] = np.split(
            order, np.cumsum(self._counts)[:-1]
        )

    def freeze(self) -> "IrregularDist":
        """Make every array read-only, so one instance can be shared by
        reference between ranks; returns ``self``."""
        for a in (self.owners, self._offsets, self._counts,
                  *self._local_to_global):
            a.flags.writeable = False
        return self

    @classmethod
    def from_local_lists(cls, locals_: list[np.ndarray], size: int) -> "IrregularDist":
        """Build from each rank's list of owned global indices.

        Within a rank, storage order follows ascending global index
        regardless of the input order (Chaos convention).
        """
        owners = np.full(size, -1, dtype=np.int64)
        for r, gl in enumerate(locals_):
            gl = np.asarray(gl, dtype=np.int64)
            if (owners[gl] != -1).any():
                raise ValueError("element assigned to two owners")
            owners[gl] = r
        if (owners == -1).any():
            raise ValueError("some elements have no owner")
        return cls(owners, len(locals_))

    # -- Distribution API ------------------------------------------------------

    def owner_of_flat(self, gidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gidx = np.asarray(gidx, dtype=np.int64)
        return self.owners[gidx], self._offsets[gidx]

    def offset_within_owner(self, gidx: np.ndarray) -> np.ndarray:
        """Local offset of each global index on its owning rank."""
        return self._offsets[np.asarray(gidx, dtype=np.int64)]

    def local_size(self, rank: int) -> int:
        return int(self._counts[rank])

    def local_to_global(self, rank: int, offsets: np.ndarray) -> np.ndarray:
        return self._local_to_global[rank][np.asarray(offsets, dtype=np.int64)]

    def descriptor(self) -> DistDescriptor:
        # The owner map is as large as the data itself — this is exactly why
        # the duplication schedule method is impractical across programs
        # when one side is Chaos (paper section 5.1).
        return DistDescriptor(
            kind="irregular",
            payload=(self.owners.copy(), self.nprocs),
            nbytes=int(self.owners.nbytes),
        )

    @classmethod
    def from_descriptor_payload(cls, payload) -> "IrregularDist":
        owners, nprocs = payload
        return cls(owners, nprocs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IrregularDist)
            and self.nprocs == other.nprocs
            and np.array_equal(self.owners, other.owners)
        )

    def __hash__(self) -> int:
        return hash((self.nprocs, self.size, int(self.owners.sum())))

    def __repr__(self) -> str:
        return f"IrregularDist(size={self.size}, nprocs={self.nprocs})"

"""Irregular partitioners.

Chaos programs choose data distributions with domain partitioners; the
output is a per-element *owner map* feeding a translation table.  Besides
the trivial block/cyclic/random maps, :func:`rcb_owners` implements
recursive coordinate bisection, the standard geometric partitioner for
unstructured meshes — it is what keeps the irregular sweep's halo (and
hence executor communication) proportional to partition surface rather
than volume.
"""

from __future__ import annotations

import numpy as np

from repro.vmachine.replica import replicated

__all__ = [
    "block_owners",
    "cyclic_owners",
    "random_owners",
    "rcb_owners",
    "bfs_owners",
]


def block_owners(n: int, nprocs: int) -> np.ndarray:
    """Contiguous equal blocks of global indices."""
    b = -(-n // nprocs)
    return np.arange(n, dtype=np.int64) // b


def cyclic_owners(n: int, nprocs: int) -> np.ndarray:
    """Round-robin assignment."""
    return np.arange(n, dtype=np.int64) % nprocs


def random_owners(n: int, nprocs: int, seed: int = 0) -> np.ndarray:
    """Uniform random owners (worst-case locality; every rank non-empty
    for n >= nprocs, by construction)."""
    rng = np.random.default_rng(seed)
    owners = rng.integers(0, nprocs, size=n).astype(np.int64)
    if n >= nprocs:
        # Guarantee no empty rank so local_size invariants hold trivially.
        owners[rng.permutation(n)[:nprocs]] = np.arange(nprocs)
    return owners


def rcb_owners(
    coords: np.ndarray, nprocs: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Recursive coordinate bisection of points into ``nprocs`` parts.

    ``coords`` is (n, d).  Splits the current point set at the (weighted)
    median of its widest coordinate axis, sending a
    ``ceil(parts/2)/parts`` share of the total *weight* to the first half
    — handling non-power-of-two processor counts and per-point work
    weights (e.g. node degree) with balanced part loads.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2:
        raise ValueError("coords must be (n, d)")
    n = len(coords)
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError("weights must have one entry per point")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
    # Every rank partitions the same points: build once per run, and give
    # each caller its own writable copy.
    return replicated(_rcb, coords, w, nprocs=nprocs).copy()


def _rcb(coords: np.ndarray, w: np.ndarray, *, nprocs: int) -> np.ndarray:
    n = len(coords)
    owners = np.zeros(n, dtype=np.int64)

    def split(index: np.ndarray, first: int, parts: int) -> None:
        if parts == 1:
            owners[index] = first
            return
        pts = coords[index]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        left_parts = (parts + 1) // 2
        order = np.argsort(pts[:, axis], kind="stable")
        cum = np.cumsum(w[index][order])
        target = cum[-1] * left_parts / parts
        k = int(np.searchsorted(cum, target))
        k = min(max(k, 1), len(index) - 1)
        split(index[order[:k]], first, left_parts)
        split(index[order[k:]], first + left_parts, parts - left_parts)

    split(np.arange(n, dtype=np.int64), 0, nprocs)
    return owners


def bfs_owners(
    npoints: int,
    ia: np.ndarray,
    ib: np.ndarray,
    nparts: int,
    seed: int = 0,
) -> np.ndarray:
    """Graph-based partitioner: capacity-bounded multi-source BFS growth.

    Grows ``nparts`` regions over the mesh *connectivity* (rather than
    coordinates, which :func:`rcb_owners` uses): random seeds claim
    unassigned neighbors breadth-first until each part reaches its
    capacity ``ceil(npoints/nparts)``.  Leftover (disconnected) points go
    to the smallest parts.  Produces contiguous parts with small edge cut
    for well-shaped meshes — a stand-in for the graph partitioners Chaos
    applications used.
    """
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    if nparts < 1:
        raise ValueError("nparts must be positive")
    if nparts == 1:
        return np.zeros(npoints, dtype=np.int64)

    # CSR adjacency (undirected).
    heads = np.concatenate([ia, ib])
    tails = np.concatenate([ib, ia])
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    starts = np.searchsorted(heads, np.arange(npoints + 1))

    rng = np.random.default_rng(seed)
    owners = np.full(npoints, -1, dtype=np.int64)
    capacity = -(-npoints // nparts)
    sizes = np.zeros(nparts, dtype=np.int64)
    seeds = rng.permutation(npoints)[:nparts]
    from collections import deque

    queues = [deque([int(s)]) for s in seeds]
    for part, s in enumerate(seeds):
        if owners[s] == -1:
            owners[s] = part
            sizes[part] += 1
    active = True
    while active:
        active = False
        for part in range(nparts):
            q = queues[part]
            # Claim one frontier node per round (keeps growth balanced).
            while q and sizes[part] < capacity:
                v = q.popleft()
                if owners[v] != -1 and owners[v] != part:
                    continue
                grew = False
                for u in tails[starts[v] : starts[v + 1]]:
                    if owners[u] == -1:
                        owners[u] = part
                        sizes[part] += 1
                        q.append(int(u))
                        grew = True
                        if sizes[part] >= capacity:
                            break
                if grew:
                    active = True
                    break
    # Disconnected leftovers: round-robin onto the smallest parts.
    leftover = np.flatnonzero(owners == -1)
    for v in leftover:
        part = int(np.argmin(sizes))
        owners[v] = part
        sizes[part] += 1
    return owners

"""Cluster assignment backends: codebook lookup, Lloyd k-means with
k-means++ seeding, and agglomerative hierarchical clustering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cvqvae

BACKENDS = ("codebook", "kmeans", "hierarchical")
LINKAGES = ("ward", "average", "complete")


@dataclass(frozen=True)
class ClusterConfig:
    backends: tuple[str, ...] = BACKENDS
    linkage: str = "ward"  # hierarchical backend
    max_iter: int = 300    # k-means Lloyd iterations

    def __post_init__(self):
        if (not self.backends or any(b not in BACKENDS for b in self.backends)
                or len(set(self.backends)) != len(self.backends)):
            raise ValueError(f"backends {list(self.backends)} must be distinct, some of {list(BACKENDS)}")
        if self.linkage not in LINKAGES:
            raise ValueError(f"unknown linkage {self.linkage!r}; expected one of {list(LINKAGES)}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


def assign(
    backend: str,
    base_latents: np.ndarray,
    held_out_latents: np.ndarray,
    codebook: np.ndarray,
    cfg: ClusterConfig,
    seed: int,
) -> np.ndarray:
    """Labels of the base rows, then of the held-out rows, in
    [0, len(codebook)). ``codebook`` labels every row by its nearest code.
    ``kmeans`` and ``hierarchical`` cluster the base rows alone into
    len(codebook) clusters; a held-out row takes the label of its nearest
    k-means centroid, or of its nearest base row."""
    if backend == "codebook":
        return _nearest(np.concatenate([base_latents, held_out_latents]), codebook)
    k = len(codebook)
    if backend == "kmeans":
        labels, centers = kmeans(base_latents, k, seed=seed, max_iter=cfg.max_iter)
        center_labels = np.arange(k)
    elif backend == "hierarchical":
        labels, _ = hierarchical(base_latents, k, linkage=cfg.linkage)
        centers, center_labels = base_latents, labels
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return np.concatenate([labels, center_labels[_nearest(held_out_latents, centers)]])


# ---------------------------------------------------------------------------
# k-means (Lloyd, k-means++ init)
# ---------------------------------------------------------------------------

# (latents, centers) -> index of each latent's nearest center, ties to the
# lowest index: the codebook quantizer, shared by assign and kmeans.
_nearest = cvqvae._quantize_batch


def _kmeans_pp_init(latents: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = latents.shape[0]
    centroids = np.empty((k, latents.shape[1]))
    centroids[0] = latents[int(rng.integers(n))]
    d2 = np.sum((latents - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i] = latents[int(rng.integers(n))]
        else:
            centroids[i] = latents[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((latents - centroids[i]) ** 2, axis=1))
    return centroids


def _checked_latents(latents: np.ndarray, k: int) -> np.ndarray:
    latents = np.asarray(latents, dtype=float)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if latents.shape[0] < k:
        raise ValueError(f"need at least k={k} latents, got {latents.shape[0]}")
    if not np.isfinite(latents).all():
        raise ValueError("latents must be finite")
    return latents


def kmeans(
    latents: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = ClusterConfig.max_iter,
) -> tuple[np.ndarray, np.ndarray]:
    """Labels in [0, k) and centroids after Lloyd iterations to an
    assignment fixed point (or max_iter); empty clusters are re-seeded from
    the point farthest from its centroid."""
    latents = _checked_latents(latents, k)
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(latents, k, rng)
    labels = _nearest(latents, centroids)
    for _ in range(max_iter):
        for c in range(k):
            members = labels == c
            if members.any():
                centroids[c] = latents[members].mean(axis=0)
            else:
                dists = np.sum((latents - centroids[labels]) ** 2, axis=1)
                far = int(np.argmax(dists))
                centroids[c] = latents[far]
                labels[far] = c
        new_labels = _nearest(latents, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centroids


# ---------------------------------------------------------------------------
# Agglomerative hierarchical clustering
# ---------------------------------------------------------------------------

def hierarchical(
    latents: np.ndarray, k: int, linkage: str = ClusterConfig.linkage
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Agglomerative merging until k clusters remain.

    Ward linkage merges the pair with the minimum variance increase
    |A||B|/(|A|+|B|) * ||mu_A - mu_B||^2; ties (costs within 1e-15 of the
    minimum) break to the lowest pair of active-cluster positions. Returns
    labels in [0, k) and the merge sequence as (i, j) positions into the
    then-active cluster list (i < j).
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    latents = _checked_latents(latents, k)
    members: list[list[int]] = [[i] for i in range(latents.shape[0])]
    merges = [pair for pair, _ in _merge_steps(latents, k, linkage, members)]

    labels = np.empty(latents.shape[0], dtype=np.int64)
    # Clusters numbered by their smallest member index for determinism.
    for new_label, cluster in enumerate(sorted((m for m in members if m), key=min)):
        for idx in cluster:
            labels[idx] = new_label
    return labels, merges


def _merge_steps(latents: np.ndarray, k: int, linkage: str, members: list[list[int]]):
    """Merges the slots of ``members`` (merged in place; a merged-away slot
    is left empty) until k are non-empty, yielding after each merge its
    (i, j) active-list positions and the cost matrix.

    ``cost[a, b]`` for active slots a < b is ``_linkage_cost(members[a],
    members[b])``, bit for bit; every other entry is +inf. Merging b into a
    recomputes only row/column a. Active slots keep their order, so a
    slot's active-list position is the number of active slots before it.
    """
    n = latents.shape[0]
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    mus = latents.copy()  # ward: per-slot centroids
    cost = np.full((n, n), np.inf)
    # Singletons: the mean of one point is the point and the mean or max of
    # one distance is that distance, so these rows equal _linkage_cost's.
    for a in range(n - 1):
        sq = np.sum((latents[a + 1:] - latents[a]) ** 2, axis=1)
        cost[a, a + 1:] = 0.5 * sq if linkage == "ward" else np.sqrt(sq)
    if linkage == "average":
        # Point distances, symmetric: the sign of a difference vanishes in
        # its square, so dist[j, i] is dist[i, j] bit for bit.
        dist = np.triu(cost, 1)
        dist += dist.T
    for _ in range(n - k):
        floor = cost.min()
        if floor == np.inf:  # every remaining cost overflowed: lowest pair
            a, b = (int(s) for s in np.flatnonzero(active)[:2])
        else:
            a, b = divmod(int(np.argmax(cost <= floor + 1e-15)), n)
        i, j = int(np.count_nonzero(active[:a])), int(np.count_nonzero(active[:b]))
        if linkage == "complete":  # the costs of a and b to every slot
            prev = np.minimum(cost[[a, b]], cost[:, [a, b]].T)
        members[a] = members[a] + members[b]
        members[b] = []
        active[b] = False
        cost[b] = cost[:, b] = np.inf
        others = np.flatnonzero(active)
        others = others[others != a]
        sizes[a] = len(members[a])
        if linkage == "ward":
            mus[a] = latents[members[a]].mean(axis=0)
            # The operations of _linkage_cost: the sign of the difference
            # vanishes in the square, and a sum along the contiguous last
            # axis is the same pairwise sum as its 1-d sum.
            na, nb = sizes[a], sizes[others]
            row = (na * nb / (na + nb)) * np.sum((mus[others] - mus[a]) ** 2, axis=1)
        elif linkage == "complete":
            # The max over the merged block is the larger of the two old
            # maxima, exactly.
            row = prev[:, others].max(axis=0)
        else:
            # The mean is the sum of _linkage_cost's distance block over its
            # size. The block has the lower slot's points as rows and must be
            # in C order, which fixes the summation order; np.take and row
            # indexing both return C order. A singleton slot o holds point
            # o, and its block is the row cols_a[o] either way round.
            rows_a = dist[members[a]]
            cols_a = np.take(dist, members[a], axis=1)
            lone = sizes[others] == 1
            sums = np.empty(len(others))
            sums[lone] = np.add.reduce(cols_a[others[lone]], axis=1)
            sums[~lone] = [
                np.add.reduce(
                    np.take(rows_a, members[o], axis=1) if a < o else cols_a[members[o]], axis=None
                )
                for o in others[~lone]
            ]
            row = sums / (sizes[a] * sizes[others])
        before = others < a
        cost[others[before], a] = row[before]
        cost[a, others[~before]] = row[~before]
        yield (i, j), cost


def _linkage_cost(latents: np.ndarray, a: list[int], b: list[int], linkage: str) -> float:
    if linkage == "ward":
        mu_a = latents[a].mean(axis=0)
        mu_b = latents[b].mean(axis=0)
        na, nb = len(a), len(b)
        return na * nb / (na + nb) * float(np.sum((mu_a - mu_b) ** 2))
    diffs = latents[a][:, None, :] - latents[b][None, :, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=2))
    return float(dists.mean() if linkage == "average" else dists.max())

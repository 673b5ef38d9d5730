"""Cluster assignment backends: codebook lookup, Lloyd k-means with
k-means++ seeding, and agglomerative hierarchical clustering.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import cvqvae
from .types import ScenarioRecord

BACKENDS = ("codebook", "kmeans", "hierarchical")
LINKAGES = ("ward", "average", "complete")


@dataclass(frozen=True)
class ClusterAssignment:
    backend: str
    labels: np.ndarray  # per-record cluster index in [0, k)
    k: int
    record_ids: tuple[str, ...] = ()

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ValueError("cluster labels must lie in [0, k)")

    def as_mapping(self) -> dict[str, int]:
        return {rid: int(lbl) for rid, lbl in zip(self.record_ids, self.labels)}


def encode_latents(records: Sequence[ScenarioRecord], params: cvqvae.ModelParams) -> np.ndarray:
    """(M, d) continuous latents from the trained encoder."""
    inputs, masks, _, _ = cvqvae._record_arrays(records)
    x = cvqvae._standardize(inputs, masks, params)
    z, _ = cvqvae._mlp_forward(x.reshape(x.shape[0], -1), params.enc_w, params.enc_b)
    return z


def assign_codebook(
    records: Sequence[ScenarioRecord], params: cvqvae.ModelParams
) -> ClusterAssignment:
    """Nearest-codebook-entry assignment: the model's intrinsic clustering."""
    z = encode_latents(records, params)
    labels = cvqvae._quantize_batch(z, params.codebook)
    return ClusterAssignment(
        backend="codebook",
        labels=labels,
        k=params.codebook_size,
        record_ids=tuple(r.record_id for r in records),
    )


# ---------------------------------------------------------------------------
# k-means (Lloyd, k-means++ init)
# ---------------------------------------------------------------------------

def _nearest(latents: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(latents * latents, axis=1, keepdims=True)
        - 2.0 * latents @ centroids.T
        + np.sum(centroids * centroids, axis=1)
    )
    return np.argmin(d2, axis=1)


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
    seed: int = 0,
    max_iter: int = 300,
    record_ids: tuple[str, ...] = (),
) -> tuple[ClusterAssignment, np.ndarray]:
    """Lloyd iterations to an assignment fixed point (or max_iter); empty
    clusters are re-seeded from the point farthest from its centroid."""
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
    assignment = ClusterAssignment(
        backend="kmeans", labels=labels, k=k, record_ids=record_ids
    )
    return assignment, centroids


def kmeans_inertia(latents: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    return float(np.sum((latents - centroids[labels]) ** 2))


# ---------------------------------------------------------------------------
# Agglomerative hierarchical clustering
# ---------------------------------------------------------------------------

def hierarchical(
    latents: np.ndarray,
    k: int,
    linkage: str = "ward",
    record_ids: tuple[str, ...] = (),
) -> ClusterAssignment:
    assignment, _ = hierarchical_with_merges(latents, k, linkage, record_ids)
    return assignment


def hierarchical_with_merges(
    latents: np.ndarray,
    k: int,
    linkage: str = "ward",
    record_ids: tuple[str, ...] = (),
) -> tuple[ClusterAssignment, list[tuple[int, int]]]:
    """Agglomerative merging until k clusters remain.

    Ward linkage merges the pair with the minimum variance increase
    |A||B|/(|A|+|B|) * ||mu_A - mu_B||^2; ties (costs within 1e-15 of the
    minimum) break to the lowest pair of active-cluster positions. Returns
    the assignment and the merge sequence as (i, j) positions into the
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
    assignment = ClusterAssignment(
        backend="hierarchical", labels=labels, k=k, record_ids=record_ids
    )
    return assignment, merges


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
    for _ in range(n - k):
        floor = cost.min()
        if floor == np.inf:  # every remaining cost overflowed: lowest pair
            a, b = (int(s) for s in np.flatnonzero(active)[:2])
        else:
            a, b = divmod(int(np.argmax(cost <= floor + 1e-15)), n)
        i, j = int(np.count_nonzero(active[:a])), int(np.count_nonzero(active[:b]))
        members[a] = members[a] + members[b]
        members[b] = []
        active[b] = False
        cost[b] = cost[:, b] = np.inf
        others = np.flatnonzero(active)
        others = others[others != a]
        if linkage == "ward":
            sizes[a] = len(members[a])
            mus[a] = latents[members[a]].mean(axis=0)
            # The operations of _linkage_cost: the sign of the difference
            # vanishes in the square, and a sum along the contiguous last
            # axis is the same pairwise sum as its 1-d sum.
            na, nb = sizes[a], sizes[others]
            row = (na * nb / (na + nb)) * np.sum((mus[others] - mus[a]) ** 2, axis=1)
        else:  # argument order fixes the summation order of the mean
            row = np.array([
                _linkage_cost(latents, members[min(a, o)], members[max(a, o)], linkage)
                for o in others
            ])
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


def assign_to_centroids(latents: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels for held-out latents (k-means inference)."""
    return _nearest(np.asarray(latents, dtype=float), centroids)


def assign_to_nearest_member(
    latents: np.ndarray, train_latents: np.ndarray, train_labels: np.ndarray
) -> np.ndarray:
    """Label held-out latents by their nearest training latent (used for the
    hierarchical backend, which has no centroid model)."""
    d2 = (
        np.sum(latents * latents, axis=1, keepdims=True)
        - 2.0 * latents @ train_latents.T
        + np.sum(train_latents * train_latents, axis=1)
    )
    return train_labels[np.argmin(d2, axis=1)]

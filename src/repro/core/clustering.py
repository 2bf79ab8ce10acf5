"""Clustering of busy radios by concurrent-car profile (Figure 11).

The paper selects all cells whose average PRB utilization over a week is at
least 70% — very busy cells where FOTA downloads hurt most — builds a vector
of concurrent-car counts per 15-minute bin for each, and runs classic k-means,
which yields two clusters: nearly identical diurnal shape, but one cluster's
concurrency level is about five times the other's, and the low-concurrency
cluster is about four times larger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.algorithms.kmeans import KMeans, KMeansResult, silhouette_score
from repro.algorithms.timebins import StudyClock
from repro.cdr.records import CDRBatch
from repro.core.concurrency import weekly_concurrency
from repro.network.load import CellLoadModel

#: The paper's selection threshold: mean weekly U_PRB of at least 70%.
BUSY_MEAN_THRESHOLD = 0.70


@dataclass(frozen=True)
class BusyCellClusters:
    """Outcome of the Figure 11 clustering."""

    cell_ids: list[int]
    vectors: npt.NDArray[np.float64]  # (n_cells, 672) mean weekly concurrency
    result: KMeansResult
    #: Cluster indices ordered by ascending mean concurrency level, so
    #: ``ordering[0]`` is the paper's Cluster 1 (low) and ``ordering[-1]``
    #: its Cluster 2 (high).
    ordering: tuple[int, ...]

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self.result.k

    def cluster_cells(self, rank: int) -> list[int]:
        """Cell ids in the cluster with the ``rank``-th lowest level."""
        label = self.ordering[rank]
        return [cid for cid, lab in zip(self.cell_ids, self.result.labels) if lab == label]

    def cluster_mean_vector(self, rank: int) -> npt.NDArray[np.float64]:
        """Mean weekly concurrency vector of the ``rank``-th cluster.

        All zeros for a cluster k-means left empty, whose level
        :func:`cluster_vectors` also scores as 0.
        """
        label = self.ordering[rank]
        members = self.vectors[self.result.labels == label]
        if not len(members):
            return np.zeros(self.vectors.shape[1])
        out: npt.NDArray[np.float64] = members.mean(axis=0)
        return out

    def level(self, rank: int) -> float:
        """Mean concurrency level (over all bins) of the ``rank``-th cluster."""
        return float(self.cluster_mean_vector(rank).mean())

    def size(self, rank: int) -> int:
        """Number of cells in the ``rank``-th cluster."""
        label = self.ordering[rank]
        return int((self.result.labels == label).sum())

    def level_ratio(self) -> float:
        """Highest cluster level over lowest (the paper reports ~5x)."""
        low = self.level(0)
        high = self.level(self.k - 1)
        return float("inf") if low == 0 else high / low

    def size_ratio(self) -> float:
        """Lowest-level cluster size over highest's (the paper reports ~4x)."""
        high_size = self.size(self.k - 1)
        return float("inf") if high_size == 0 else self.size(0) / high_size

    def shape_correlation(self) -> float:
        """Pearson correlation between the two extreme clusters' shapes.

        The paper notes both clusters are "very similar in shape"; values
        near 1 confirm it.
        """
        a = self.cluster_mean_vector(0)
        b = self.cluster_mean_vector(self.k - 1)
        if a.std() == 0 or b.std() == 0:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])

    def silhouette(self) -> float:
        """Silhouette score of the clustering (requires k >= 2)."""
        return silhouette_score(self.vectors, self.result.labels)


def select_busy_cells(
    model: CellLoadModel, mean_threshold: float = BUSY_MEAN_THRESHOLD
) -> list[int]:
    """Cells whose mean weekly utilization meets the paper's 70% bar."""
    return model.busy_cell_ids(mean_threshold)


def require_clusterable(
    n_cells: int, k: int, mean_threshold: float = BUSY_MEAN_THRESHOLD
) -> None:
    """Raise unless ``n_cells`` busy cells can form ``k`` clusters."""
    if n_cells < k:
        raise ValueError(
            f"only {n_cells} busy cells at threshold {mean_threshold}; "
            f"cannot form {k} clusters"
        )


def cluster_vectors(
    cell_ids: list[int],
    vectors: npt.NDArray[np.float64],
    k: int = 2,
    seed: int = 0,
) -> BusyCellClusters:
    """k-means over per-cell weekly concurrency vectors (Figure 11).

    ``vectors`` row ``i`` belongs to ``cell_ids[i]``; clusters are ordered
    by ascending mean concurrency level.
    """
    result = KMeans(k, seed=seed).fit(vectors)
    levels: list[float] = [
        float(vectors[result.labels == label].mean())
        if (result.labels == label).any()
        else 0.0
        for label in range(k)
    ]
    ordering = tuple(int(i) for i in np.argsort(levels))
    return BusyCellClusters(
        cell_ids=cell_ids, vectors=vectors, result=result, ordering=ordering
    )


def cluster_busy_cells(
    batch: CDRBatch,
    model: CellLoadModel,
    clock: StudyClock,
    k: int = 2,
    mean_threshold: float = BUSY_MEAN_THRESHOLD,
    seed: int = 0,
) -> BusyCellClusters:
    """Run the full Figure 11 pipeline over records: the reference.

    Selects busy cells, builds their mean-weekly concurrent-car vectors from
    aggregated sessions with the record-based :func:`weekly_concurrency`,
    and k-means-clusters the vectors.  Cells with no recorded car
    connections contribute all-zero vectors, exactly as they would in the
    paper's data.  The fused engine builds the same vectors from columns
    (:class:`repro.core.fused.BusyCellKernel`).
    """
    cell_ids = select_busy_cells(model, mean_threshold)
    require_clusterable(len(cell_ids), k, mean_threshold)
    by_cell = batch.by_cell()
    vectors = np.stack(
        [weekly_concurrency(by_cell.get(cid, []), clock) for cid in cell_ids]
    )
    return cluster_vectors(cell_ids, vectors, k, seed)

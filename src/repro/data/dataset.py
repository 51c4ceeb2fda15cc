"""Dataset container with optional projected-clustering ground truth.

Conventions (used across the whole library):

* points are a float64 matrix of shape ``(n_points, n_dims)``;
* labels are integers, cluster ids ``0..k-1`` and ``-1`` for outliers;
* per-cluster dimension sets are sorted tuples of dimension indices,
  keyed by cluster id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..exceptions import DataError
from ..validation import check_array

__all__ = ["Dataset", "OUTLIER_LABEL"]

#: Label value reserved for outlier points everywhere in the library.
OUTLIER_LABEL: int = -1


@dataclass
class Dataset:
    """Points plus (optional) projected-clustering ground truth.

    Attributes
    ----------
    points:
        Float matrix ``(n_points, n_dims)``.
    labels:
        Optional integer array ``(n_points,)``; ``-1`` marks outliers.
    cluster_dimensions:
        Optional mapping ``cluster id -> sorted tuple of dimension
        indices`` giving the subspace each ground-truth cluster lives in.
    name:
        Free-form identifier used in reports.
    allow_nonfinite:
        Accept NaN/inf cells in ``points`` instead of raising.  Meant
        for data destined for the sanitization pipeline
        (:func:`repro.robustness.sanitize`); the algorithms themselves
        still require finite input.
    """

    points: np.ndarray
    labels: Optional[np.ndarray] = None
    cluster_dimensions: Optional[Dict[int, Tuple[int, ...]]] = None
    name: str = "dataset"
    metadata: dict = field(default_factory=dict)
    allow_nonfinite: bool = False

    def __post_init__(self) -> None:
        self.points = check_array(
            self.points, name="points", allow_nonfinite=self.allow_nonfinite
        )
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.ndim != 1 or labels.shape[0] != self.points.shape[0]:
                raise DataError(
                    "labels must be a 1-D array with one entry per point; "
                    f"got shape {labels.shape} for {self.points.shape[0]} points"
                )
            self.labels = labels.astype(np.int64)
        if self.cluster_dimensions is not None:
            try:
                pairs = [(int(cid), tuple(sorted(int(j) for j in dims)))
                         for cid, dims in self.cluster_dimensions.items()]
            except (AttributeError, TypeError, ValueError) as exc:
                raise DataError("cluster_dimensions must map cluster ids to "
                                f"dimension indices: {exc}")
            for cid, dims in pairs:
                if dims and (dims[0] < 0 or dims[-1] >= self.n_dims):
                    raise DataError(
                        f"cluster {cid}: dimension indices {dims} out of "
                        f"range for d={self.n_dims}"
                    )
            self.cluster_dimensions = dict(pairs)

    # ------------------------------------------------------------------
    # Shape and ground-truth accessors
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Number of points ``N``."""
        return int(self.points.shape[0])

    @property
    def n_dims(self) -> int:
        """Dimensionality ``d`` of the data space."""
        return int(self.points.shape[1])

    @property
    def has_ground_truth(self) -> bool:
        """True when labels are available."""
        return self.labels is not None

    @property
    def cluster_ids(self) -> Tuple[int, ...]:
        """Sorted ground-truth cluster ids (outlier label excluded)."""
        if self.labels is None:
            return ()
        ids = np.unique(self.labels)
        return tuple(int(i) for i in ids if i != OUTLIER_LABEL)

    @property
    def n_clusters(self) -> int:
        """Number of ground-truth clusters."""
        return len(self.cluster_ids)

    @property
    def n_outliers(self) -> int:
        """Number of ground-truth outlier points."""
        if self.labels is None:
            return 0
        return int(np.count_nonzero(self.labels == OUTLIER_LABEL))

    def cluster_points(self, cluster_id: int) -> np.ndarray:
        """The points belonging to ground-truth cluster ``cluster_id``."""
        if self.labels is None:
            raise DataError("dataset has no ground-truth labels")
        return self.points[self.labels == cluster_id]

    def cluster_sizes(self) -> Dict[int, int]:
        """Mapping cluster id -> number of points (outliers excluded)."""
        return {
            cid: int(np.count_nonzero(self.labels == cid))
            for cid in self.cluster_ids
        }

    def iter_clusters(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(cluster_id, points)`` pairs for each ground-truth cluster."""
        for cid in self.cluster_ids:
            yield cid, self.cluster_points(cid)

    # ------------------------------------------------------------------
    # Derived datasets
    # ------------------------------------------------------------------
    def subset(self, indices: np.ndarray, name: Optional[str] = None) -> "Dataset":
        """A new dataset restricted to the given point indices."""
        indices = np.asarray(indices, dtype=np.intp)
        labels = self.labels[indices] if self.labels is not None else None
        return Dataset(
            points=self.points[indices],
            labels=labels,
            cluster_dimensions=self.cluster_dimensions,
            name=name or f"{self.name}[subset:{indices.size}]",
            metadata=dict(self.metadata),
            allow_nonfinite=self.allow_nonfinite,
        )

    def without_ground_truth(self) -> "Dataset":
        """A copy with labels and dimension sets stripped (for blind runs)."""
        return Dataset(
            points=self.points,
            labels=None,
            cluster_dimensions=None,
            name=self.name,
            metadata=dict(self.metadata),
            allow_nonfinite=self.allow_nonfinite,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        gt = f", k={self.n_clusters}" if self.has_ground_truth else ""
        return (
            f"Dataset(name={self.name!r}, N={self.n_points}, d={self.n_dims}{gt})"
        )

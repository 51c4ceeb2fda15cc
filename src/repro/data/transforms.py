"""Dataset transforms used by examples, ablations, and tests.

These are deliberately simple, pure functions returning new
:class:`~repro.data.dataset.Dataset` objects (points are copied; ground
truth is carried through and adjusted where the transform affects it).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..exceptions import ParameterError
from ..rng import SeedLike, ensure_rng
from .dataset import Dataset

__all__ = ["min_max_normalize", "add_noise_dimensions", "shuffle_points"]


def min_max_normalize(dataset: Dataset, feature_range: Tuple[float, float] = (0.0, 1.0)) -> Dataset:
    """Rescale each dimension linearly into ``feature_range``.

    Constant dimensions map to the middle of the range.  Cluster
    dimension sets are preserved — min-max scaling is monotone per
    dimension, so projected cluster structure survives.
    """
    low, high = feature_range
    if not high > low:
        raise ParameterError(f"feature_range must satisfy high > low; got {feature_range}")
    pts = dataset.points
    mins = pts.min(axis=0)
    maxs = pts.max(axis=0)
    span = maxs - mins
    scaled = np.empty_like(pts)
    constant = span == 0
    nz = ~constant
    scaled[:, nz] = low + (pts[:, nz] - mins[nz]) / span[nz] * (high - low)
    scaled[:, constant] = (low + high) / 2.0
    return Dataset(
        points=scaled,
        labels=None if dataset.labels is None else dataset.labels.copy(),
        cluster_dimensions=dataset.cluster_dimensions,
        name=f"{dataset.name}[minmax]",
        metadata=dict(dataset.metadata),
    )


def add_noise_dimensions(dataset: Dataset, n_noise: int, *,
                         low: float = 0.0, high: float = 100.0,
                         seed: SeedLike = None) -> Dataset:
    """Append ``n_noise`` uniform-noise dimensions to every point.

    Used by the Figure-9 style studies: the projected structure is
    unchanged (the new dimensions belong to no cluster), but the ambient
    dimensionality grows.
    """
    if n_noise < 0:
        raise ParameterError(f"n_noise must be >= 0; got {n_noise}")
    if n_noise == 0:
        return dataset
    rng = ensure_rng(seed)
    noise = rng.uniform(low, high, size=(dataset.n_points, n_noise))
    points = np.hstack([dataset.points, noise])
    return Dataset(
        points=points,
        labels=None if dataset.labels is None else dataset.labels.copy(),
        cluster_dimensions=dataset.cluster_dimensions,
        name=f"{dataset.name}[+{n_noise}noise]",
        metadata=dict(dataset.metadata),
    )


def shuffle_points(dataset: Dataset, seed: SeedLike = None,
                   return_permutation: bool = False
                   ) -> Union[Dataset, Tuple[Dataset, np.ndarray]]:
    """Randomly permute point order (labels permuted consistently)."""
    rng = ensure_rng(seed)
    perm = rng.permutation(dataset.n_points)
    shuffled = Dataset(
        points=dataset.points[perm],
        labels=None if dataset.labels is None else dataset.labels[perm],
        cluster_dimensions=dataset.cluster_dimensions,
        name=dataset.name,
        metadata=dict(dataset.metadata),
    )
    if return_permutation:
        return shuffled, perm
    return shuffled

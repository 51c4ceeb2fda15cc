"""Figure 1's motivation as a measurable experiment.

The paper's introduction argues with a picture: one cluster tight in
the x-y plane, another in the x-z plane.  Full-dimensional clustering
misses both (each cluster is spread out along one axis), and global
feature selection must discard y or z — each relevant to one cluster —
so one pattern is always lost.  This module turns the picture into
numbers: it builds exactly that configuration (plus noise dimensions)
and scores k-means, feature-selection + k-means, DBSCAN, and PROCLUS
against the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..baselines.dbscan import dbscan
from ..baselines.feature_selection import FeatureSelectionClustering
from ..baselines.kmeans import kmeans
from ..core.proclus import proclus
from ..metrics.external import adjusted_rand_index
from ..rng import SeedLike, ensure_rng
from .registry import register_experiment
from .tables import format_table

__all__ = ["MotivationReport", "figure1_dataset", "run_motivation"]


def figure1_dataset(n_per_cluster: int = 1000, n_noise_dims: int = 5,
                    seed: SeedLike = 3) -> Tuple[np.ndarray, np.ndarray]:
    """The paper's Figure-1 configuration, plus uniform noise dims.

    Cluster 0 is tight in (x, y) and spread along z; cluster 1 tight in
    (x, z) and spread along y; both share dimension x with different
    centres.  Returns ``(points, labels)``.
    """
    rng = ensure_rng(seed)
    d = 3 + n_noise_dims

    a = rng.uniform(0, 100, size=(n_per_cluster, d))
    a[:, 0] = rng.normal(30.0, 1.5, n_per_cluster)
    a[:, 1] = rng.normal(70.0, 1.5, n_per_cluster)

    b = rng.uniform(0, 100, size=(n_per_cluster, d))
    b[:, 0] = rng.normal(60.0, 1.5, n_per_cluster)
    b[:, 2] = rng.normal(20.0, 1.5, n_per_cluster)

    X = np.vstack([a, b])
    y = np.repeat([0, 1], n_per_cluster)
    perm = rng.permutation(X.shape[0])
    return X[perm], y[perm]


@dataclass
class MotivationReport:
    """ARI per method on the Figure-1 workload."""

    scores: Dict[str, float] = field(default_factory=dict)
    proclus_dimensions: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    selected_dims: Tuple[int, ...] = ()

    def to_text(self) -> str:
        """Scoreboard plus the dimension evidence."""
        rows = [[name, f"{score:.3f}"]
                for name, score in sorted(self.scores.items(),
                                          key=lambda kv: -kv[1])]
        table = format_table(
            ["method", "ARI"], rows,
            title="Figure 1 motivation: projected clusters in (x,y) and (x,z)",
        )
        extra = [
            "",
            f"feature selection kept dimensions {list(self.selected_dims)} "
            "(one pattern necessarily lost)",
            f"PROCLUS per-cluster dimensions: "
            f"{ {c: list(d) for c, d in self.proclus_dimensions.items()} }",
        ]
        return table + "\n" + "\n".join(extra)


def run_motivation(*, n_points: int = 2000, n_noise_dims: int = 5,
                   seed: int = 3) -> MotivationReport:
    """Score all four methods on the Figure-1 workload.

    ``n_points`` is the total (split evenly between the two clusters).
    """
    X, y = figure1_dataset(n_per_cluster=max(2, n_points // 2),
                           n_noise_dims=n_noise_dims, seed=seed)
    report = MotivationReport()

    km = kmeans(X, 2, seed=seed)
    report.scores["k-means (full space)"] = adjusted_rand_index(
        km.labels, y, include_outliers=True)

    fs = FeatureSelectionClustering(2, 2, seed=seed).fit(X)
    report.selected_dims = tuple(int(j) for j in fs.selected_dims_)
    report.scores["feature selection + k-means"] = adjusted_rand_index(
        fs.labels_, y, include_outliers=True)

    db = dbscan(X, eps=40.0, min_pts=5)
    report.scores["DBSCAN (full space)"] = adjusted_rand_index(
        db.labels, y, include_outliers=True)

    pc = proclus(X, 2, 2, seed=seed, handle_outliers=False)
    report.proclus_dimensions = dict(pc.dimensions)
    report.scores["PROCLUS"] = adjusted_rand_index(
        pc.labels, y, include_outliers=True)

    return report


register_experiment(
    "fig1-motivation", run_motivation,
    "Figure 1: full-dimensional and feature-selection methods fail on "
    "projected clusters; PROCLUS recovers both patterns",
)

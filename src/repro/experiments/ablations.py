"""Ablation studies for the design choices the paper motivates.

The paper argues for, but does not always quantify:

* the two-step initialization (sample then greedy) versus alternatives
  (:func:`run_initialization_ablation`);
* the bad-medoid threshold ``minDeviation = 0.1``
  (:func:`run_min_deviation_ablation`);
* the pool multipliers ``A`` and ``B``
  (:func:`run_pool_size_ablation`);
* Theorem 3.1 — random medoids see localities of expected size ``N/k``
  (:func:`run_locality_theorem_check`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.dimensions import compute_localities
from ..core.greedy import greedy_select
from ..core.iterative import run_iterative_phase
from ..core.proclus import proclus
from ..data.dataset import Dataset
from ..data.synthetic import SyntheticDataGenerator
from ..metrics.external import adjusted_rand_index
from ..perf.parallel import parallel_map
from ..rng import ensure_rng
from .configs import make_case_config
from .registry import register_experiment
from .tables import format_table

__all__ = [
    "AblationReport",
    "run_initialization_ablation",
    "run_min_deviation_ablation",
    "run_pool_size_ablation",
    "run_locality_theorem_check",
    "LocalityCheckReport",
]


@dataclass
class AblationReport:
    """Rows of (variant, metrics) for one ablated knob."""

    knob: str
    rows: List[Dict[str, float]] = field(default_factory=list)

    def to_text(self) -> str:
        """ASCII rendering; one row per variant."""
        if not self.rows:
            return f"Ablation of {self.knob}: no rows"
        keys = [k for k in self.rows[0] if k != "variant"]
        table_rows = [
            [r["variant"], *[f"{r[k]:.4g}" for k in keys]] for r in self.rows
        ]
        return format_table(
            ["variant", *keys], table_rows, title=f"Ablation: {self.knob}",
        )

    def best_by(self, key: str, *, minimize: bool = False) -> Dict[str, float]:
        """The row with the best value of ``key``."""
        pick = min if minimize else max
        return pick(self.rows, key=lambda r: r[key])

    def row_for(self, variant: str) -> Dict[str, float]:
        """The row for a named variant."""
        for r in self.rows:
            if r["variant"] == variant:
                return r
        raise KeyError(f"no variant {variant!r}")


def _case_dataset(n_points: int, seed: int, case: int = 1) -> Dataset:
    cfg = make_case_config(case, n_points=n_points, seed=seed)
    return SyntheticDataGenerator(cfg.synthetic_config()).generate(), cfg


def run_initialization_ablation(*, n_points: int = 5000, n_seeds: int = 3,
                                seed: int = 1999) -> AblationReport:
    """Greedy-on-sample (paper) vs random pool vs greedy-on-full-data.

    All variants feed the same iterative+refinement pipeline; quality is
    the ARI against ground truth, averaged over ``n_seeds`` runs.
    """
    ds, cfg = _case_dataset(n_points, seed)
    k, l = cfg.n_clusters, cfg.l
    pool_size = 5 * k
    sample_size = 30 * k
    report = AblationReport(knob="initialization strategy")

    def pipeline(pool: np.ndarray, run_seed: int) -> Tuple[float, float]:
        phase2 = run_iterative_phase(ds.points, pool, k, l, seed=run_seed)
        ari = adjusted_rand_index(phase2.labels, ds.labels)
        return ari, phase2.objective

    variants = {
        "greedy_on_sample (paper)": "paper",
        "random_pool": "random",
        "greedy_on_full": "full",
    }
    for label, mode in variants.items():
        aris, objs, secs = [], [], []
        for s in range(n_seeds):
            rng = ensure_rng(seed + 17 * s)
            t0 = time.perf_counter()
            if mode == "paper":
                sample = rng.choice(ds.n_points, size=sample_size, replace=False)
                local = greedy_select(ds.points[sample], pool_size, seed=rng)
                pool = sample[local]
            elif mode == "random":
                pool = rng.choice(ds.n_points, size=pool_size, replace=False)
            else:
                pool = greedy_select(ds.points, pool_size, seed=rng)
            ari, obj = pipeline(pool, run_seed=seed + 17 * s + 1)
            secs.append(time.perf_counter() - t0)
            aris.append(ari)
            objs.append(obj)
        report.rows.append({
            "variant": label,
            "ari": float(np.mean(aris)),
            "objective": float(np.mean(objs)),
            "seconds": float(np.mean(secs)),
        })
    return report


def run_min_deviation_ablation(*, n_points: int = 5000,
                               values: Sequence[float] = (0.01, 0.05, 0.1, 0.3, 0.5),
                               seed: int = 1999,
                               n_jobs: int = 1) -> AblationReport:
    """Sweep the bad-medoid threshold (paper default 0.1).

    ``n_jobs > 1`` evaluates the grid values concurrently
    (:func:`repro.perf.parallel.parallel_map`); every value keeps its
    own fixed seed, so the rows are identical in either mode.
    """
    ds, cfg = _case_dataset(n_points, seed)
    report = AblationReport(knob="min_deviation")

    def evaluate(v):
        result = proclus(ds.points, cfg.n_clusters, cfg.l,
                         min_deviation=v, seed=seed + 1)
        return {
            "variant": f"{v:g}",
            "ari": adjusted_rand_index(result.labels, ds.labels),
            "objective": result.objective,
            "outliers": float(result.n_outliers),
        }

    report.rows.extend(parallel_map(evaluate, values, n_jobs=n_jobs))
    return report


def run_pool_size_ablation(*, n_points: int = 5000,
                           a_values: Sequence[int] = (5, 15, 30, 60),
                           b_values: Sequence[int] = (2, 5, 10),
                           seed: int = 1999,
                           n_jobs: int = 1) -> AblationReport:
    """Sweep the A (sample) and B (pool) multipliers jointly.

    ``n_jobs > 1`` evaluates the (A, B) grid concurrently
    (:func:`repro.perf.parallel.parallel_map`); every cell keeps its
    own fixed seed, so the rows are identical in either mode.
    """
    ds, cfg = _case_dataset(n_points, seed)
    report = AblationReport(knob="sample_factor (A) x pool_factor (B)")
    grid = [(a, b) for a in a_values for b in b_values if b <= a]

    def evaluate(cell):
        a, b = cell
        result = proclus(ds.points, cfg.n_clusters, cfg.l,
                         sample_factor=a, pool_factor=b,
                         seed=seed + 1)
        return {
            "variant": f"A={a},B={b}",
            "ari": adjusted_rand_index(result.labels, ds.labels),
            "objective": result.objective,
        }

    report.rows.extend(parallel_map(evaluate, grid, n_jobs=n_jobs))
    return report


@dataclass
class LocalityCheckReport:
    """Empirical check of Theorem 3.1."""

    n_points: int
    k: int
    expected: float
    observed_mean: float
    observed_per_trial: List[float] = field(default_factory=list)

    @property
    def relative_error(self) -> float:
        """|observed - expected| / expected."""
        return abs(self.observed_mean - self.expected) / self.expected

    def to_text(self) -> str:
        """One-paragraph summary."""
        return (
            f"Theorem 3.1 check: N={self.n_points}, k={self.k}\n"
            f"  expected locality size N/k = {self.expected:.1f}\n"
            f"  observed mean              = {self.observed_mean:.1f}"
            f"  (relative error {self.relative_error:.1%})"
        )


def run_locality_theorem_check(*, n_points: int = 5000, k: int = 5,
                               n_dims: int = 20, n_trials: int = 60,
                               seed: int = 42) -> LocalityCheckReport:
    """Theorem 3.1: random medoids have expected locality size ``N/k``.

    Uses uniform data (the theorem's order-statistics argument assumes
    nothing about structure) and averages the mean locality size over
    ``n_trials`` random medoid draws.  The locality here includes all
    points within ``delta_i`` (medoid excluded), matching the library's
    :func:`~repro.core.dimensions.compute_localities`.
    """
    rng = ensure_rng(seed)
    X = rng.uniform(0, 100, size=(n_points, n_dims))
    sizes: List[float] = []
    for _ in range(n_trials):
        medoids = rng.choice(n_points, size=k, replace=False)
        localities, _ = compute_localities(X, medoids, min_locality_size=0)
        sizes.append(float(np.mean([len(loc) for loc in localities])))
    return LocalityCheckReport(
        n_points=n_points, k=k, expected=n_points / k,
        observed_mean=float(np.mean(sizes)), observed_per_trial=sizes,
    )


register_experiment(
    "ablation-init", run_initialization_ablation,
    "Ablation: greedy-on-sample initialization vs random vs greedy-on-full",
)
register_experiment(
    "ablation-mindev", run_min_deviation_ablation,
    "Ablation: bad-medoid threshold minDeviation",
)
register_experiment(
    "ablation-pool", run_pool_size_ablation,
    "Ablation: initialization multipliers A and B",
)
register_experiment(
    "theorem31", run_locality_theorem_check,
    "Theorem 3.1: expected locality size N/k under random medoids",
)

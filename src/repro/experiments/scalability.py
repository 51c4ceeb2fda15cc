"""Scalability experiments: Figures 7, 8, 9.

* **Figure 7** — runtime vs number of points N (d = 20, five
  5-dimensional clusters).  Both algorithms scale linearly; PROCLUS is
  roughly an order of magnitude faster.
* **Figure 8** — runtime vs average cluster dimensionality l = 4..8.
  CLIQUE's runtime grows exponentially in l (its bottom-up pass visits
  every dense subspace); PROCLUS is only marginally affected because
  segmental-distance work is ``O(N k l)`` while the dominating
  full-dimensional pass is ``O(N k d)``.
* **Figure 9** — runtime vs space dimensionality d = 20..50 (PROCLUS
  only in the paper): linear.

Each runner returns a :class:`ScalabilityReport` with the raw series, a
log-log slope estimate, and a text rendering of the "figure".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines.clique import Clique
from ..core.proclus import proclus
from ..data.synthetic import SyntheticDataGenerator
from ..perf.parallel import parallel_map
from .ascii_plot import ascii_chart
from .configs import make_scalability_config
from .registry import register_experiment
from .tables import format_series

__all__ = ["ScalabilityReport", "run_scalability_points",
           "run_scalability_cluster_dim", "run_scalability_space_dim"]


@dataclass
class ScalabilityReport:
    """One scaling study: x values and per-algorithm second series."""

    x_label: str
    x_values: List[float]
    series: Dict[str, List[float]] = field(default_factory=dict)
    title: str = ""

    def slope(self, name: str) -> float:
        """Least-squares slope of log(seconds) vs log(x).

        ~1 indicates linear scaling, ~2 quadratic, and so on.  Useful
        for Figures 7 and 9; Figure 8's x-range is too narrow for a
        meaningful power law (the paper argues exponential growth for
        CLIQUE there — see :meth:`growth_ratios`).
        """
        x = np.log(np.asarray(self.x_values, dtype=np.float64))
        y = np.log(np.maximum(np.asarray(self.series[name]), 1e-9))
        slope, _ = np.polyfit(x, y, 1)
        return float(slope)

    def growth_ratios(self, name: str) -> List[float]:
        """Consecutive runtime ratios; increasing ratios = superlinear."""
        s = self.series[name]
        return [s[i + 1] / max(s[i], 1e-9) for i in range(len(s) - 1)]

    def speedup(self, fast: str, slow: str) -> List[float]:
        """Pointwise ratio ``slow / fast`` (Figure 7's ~10x)."""
        return [
            s / max(f, 1e-9)
            for f, s in zip(self.series[fast], self.series[slow])
        ]

    def to_text(self) -> str:
        """Data table plus an ASCII chart of the figure's series."""
        names = list(self.series)
        table = format_series(
            self.x_label, [f"{n} (s)" for n in names],
            self.x_values, [self.series[n] for n in names],
            title=self.title,
        )
        # log y-axis, like the paper's Figure 7, when spreads are wide
        positive = all(v > 0 for s in self.series.values() for v in s)
        lo = min(v for s in self.series.values() for v in s)
        hi = max(v for s in self.series.values() for v in s)
        chart = ascii_chart(
            self.x_values, {n: list(v) for n, v in self.series.items()},
            log_y=positive and hi / max(lo, 1e-12) > 30,
            x_label=self.x_label, y_label="sec",
        )
        return table + "\n\n" + chart


def _run_proclus_timed(points: np.ndarray, k: int, l: int, seed: int,
                       repeats: int = 1) -> float:
    """Best-of-``repeats`` wall-clock for one PROCLUS fit.

    At bench scale a single fit takes tens of milliseconds, where
    scheduler jitter swamps the signal; the minimum over a few repeats
    is the standard noise-robust estimator.
    """
    best = np.inf
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        proclus(points, k, l, seed=seed)
        best = min(best, time.perf_counter() - t0)
    return best


def _run_clique_timed(points: np.ndarray, tau: float,
                      max_dimensionality: Optional[int]) -> float:
    t0 = time.perf_counter()
    Clique(xi=10, tau=tau, max_dimensionality=max_dimensionality).fit(points)
    return time.perf_counter() - t0


def run_scalability_points(*, sizes: Sequence[int] = (1000, 2000, 3000, 4000, 5000),
                           include_clique: bool = True,
                           clique_tau_percent: float = 0.5,
                           cluster_dim: int = 5, n_dims: int = 20,
                           seed: int = 7,
                           clique_max_dim: Optional[int] = 6,
                           proclus_repeats: int = 1,
                           n_jobs: int = 1) -> ScalabilityReport:
    """Figure 7: runtime vs N.  Paper scale: 100,000..500,000 points.

    ``proclus_repeats`` > 1 takes the best-of-``repeats`` wall clock
    per size, suppressing hill-climbing iteration-count noise in the
    slope estimate.  ``n_jobs > 1`` runs the grid points concurrently
    (:func:`repro.perf.parallel.parallel_map`) — the clusterings are
    identical, but concurrent configs share the machine, so keep
    ``n_jobs=1`` when the timings themselves are the deliverable.
    """
    report = ScalabilityReport(
        x_label="N", x_values=[float(n) for n in sizes],
        title="Figure 7: scalability with number of points",
    )

    def measure(n):
        cfg = make_scalability_config(n, n_dims, cluster_dim, seed=seed)
        ds = SyntheticDataGenerator(cfg).generate()
        row = [_run_proclus_timed(ds.points, cfg.n_clusters, cluster_dim,
                                  seed, repeats=proclus_repeats)]
        if include_clique:
            row.append(_run_clique_timed(ds.points,
                                         clique_tau_percent / 100.0,
                                         clique_max_dim))
        return row

    rows = parallel_map(measure, sizes, n_jobs=n_jobs)
    report.series["PROCLUS"] = [r[0] for r in rows]
    if include_clique:
        report.series["CLIQUE"] = [r[1] for r in rows]
    return report


def run_scalability_cluster_dim(*, dims: Sequence[int] = (4, 5, 6, 7, 8),
                                n_points: int = 2000,
                                include_clique: bool = True,
                                seed: int = 7,
                                n_dims: int = 20,
                                proclus_repeats: int = 3,
                                low_tau_percent: float = 0.3,
                                n_jobs: int = 1) -> ScalabilityReport:
    """Figure 8: runtime vs average cluster dimensionality l.

    Following the paper, CLIQUE runs at tau = 0.5% for l <= 6 and a
    lower threshold for l >= 7 (higher-dimensional clusters are
    sparser).  The paper's low threshold is 0.1%; that value makes
    roughly half of all 3-dimensional cells dense *at any N* (``tau *
    xi^3 <= 1``), blowing the level-4 apriori join into hundreds of
    millions of candidates — their C binary powered through it, pure
    Python cannot, so ``low_tau_percent`` defaults to 0.3%.  The
    exponential trend the figure demonstrates is unaffected.  CLIQUE's
    bottom-up pass is capped one level above l, mirroring the paper's
    observation that low tau makes it report (l+1)-dimensional units.
    """
    report = ScalabilityReport(
        x_label="l", x_values=[float(l) for l in dims],
        title="Figure 8: scalability with average cluster dimensionality",
    )

    def measure(l):
        cfg = make_scalability_config(n_points, n_dims, l, seed=seed)
        ds = SyntheticDataGenerator(cfg).generate()
        row = [_run_proclus_timed(ds.points, cfg.n_clusters, l, seed,
                                  repeats=proclus_repeats)]
        if include_clique:
            tau_pct = 0.5 if l <= 6 else low_tau_percent
            row.append(_run_clique_timed(ds.points, tau_pct / 100.0, l + 1))
        return row

    rows = parallel_map(measure, dims, n_jobs=n_jobs)
    report.series["PROCLUS"] = [r[0] for r in rows]
    if include_clique:
        report.series["CLIQUE"] = [r[1] for r in rows]
    return report


def run_scalability_space_dim(*, dims: Sequence[int] = (20, 30, 40, 50),
                              n_points: int = 5000, cluster_dim: int = 5,
                              seed: int = 7,
                              n_jobs: int = 1) -> ScalabilityReport:
    """Figure 9: PROCLUS runtime vs space dimensionality d (linear)."""
    report = ScalabilityReport(
        x_label="d", x_values=[float(d) for d in dims],
        title="Figure 9: scalability with dimensionality of the space",
    )

    def measure(d):
        cfg = make_scalability_config(n_points, d, cluster_dim, seed=seed)
        ds = SyntheticDataGenerator(cfg).generate()
        return _run_proclus_timed(ds.points, cfg.n_clusters, cluster_dim,
                                  seed)

    report.series["PROCLUS"] = parallel_map(measure, dims, n_jobs=n_jobs)
    return report


register_experiment(
    "fig7", run_scalability_points,
    "Figure 7: PROCLUS vs CLIQUE runtime, scaling the number of points",
)
register_experiment(
    "fig8", run_scalability_cluster_dim,
    "Figure 8: runtime vs average cluster dimensionality (CLIQUE exponential)",
)
register_experiment(
    "fig9", run_scalability_space_dim,
    "Figure 9: PROCLUS runtime vs dimensionality of the space (linear)",
)

"""Extension bench: CLARA-style subsampled fitting at larger N.

The paper's per-iteration cost is O(N·k·d); hill climbing on a uniform
subsample with a full-data refinement pass (`fit_sample_size`) trades a
bounded quality delta for a large wall-clock cut.  The bench checks
both sides of the trade.
"""

from conftest import run_once

from repro.core.proclus import proclus
from repro.data import generate
from repro.metrics import adjusted_rand_index


def _compare(n=12_000, sample=2000):
    ds = generate(n, 16, 4, cluster_dim_counts=[5] * 4,
                  outlier_fraction=0.03, seed=70)
    full = proclus(ds.points, 4, 5, seed=71, max_bad_tries=15)
    sampled = proclus(ds.points, 4, 5, seed=71, max_bad_tries=15,
                      fit_sample_size=sample)
    return {
        "full_fit_seconds": full.phase_seconds["iterative"],
        "sampled_fit_seconds": sampled.phase_seconds["sample_fit"],
        "full_ari": adjusted_rand_index(full.labels, ds.labels),
        "sampled_ari": adjusted_rand_index(sampled.labels, ds.labels),
    }


def test_large_mode_tradeoff(benchmark):
    stats = run_once(benchmark, _compare)

    # the subsampled hill climb is meaningfully faster...
    assert stats["sampled_fit_seconds"] < stats["full_fit_seconds"]
    # ...while quality stays comparable
    assert stats["sampled_ari"] > stats["full_ari"] - 0.2
    assert stats["sampled_ari"] > 0.6

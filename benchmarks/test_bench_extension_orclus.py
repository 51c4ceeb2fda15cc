"""Extension bench: oriented subspaces (ORCLUS) vs axis-parallel (PROCLUS).

The paper's future-work direction, realised: on workloads whose
projected structure is rotated out of the coordinate axes, PROCLUS's
axis-parallel model fails by construction while ORCLUS's per-cluster
eigen-analysis recovers the clusters.  On the paper's own axis-parallel
workloads PROCLUS remains the method of choice (it also names the
dimensions, which ORCLUS's arbitrary bases cannot).
"""

from conftest import run_once

from repro import proclus
from repro.data import generate, generate_rotated
from repro.extensions import orclus
from repro.metrics import adjusted_rand_index


def _compare_on_rotated():
    ds = generate_rotated(2000, 12, 3, cluster_dim_counts=[4, 4, 4], seed=5)
    o = orclus(ds.points, 3, 4, seed=5)
    p = proclus(ds.points, 3, 4, seed=5, max_bad_tries=20)
    return {
        "orclus_ari": adjusted_rand_index(o.labels, ds.labels),
        "proclus_ari": adjusted_rand_index(p.labels, ds.labels),
    }


def test_orclus_vs_proclus_rotated(benchmark):
    scores = run_once(benchmark, _compare_on_rotated)
    assert scores["orclus_ari"] > 0.6
    assert scores["proclus_ari"] < 0.4
    assert scores["orclus_ari"] > scores["proclus_ari"] + 0.3


def _axis_parallel_fit():
    ds = generate(1500, 12, 3, cluster_dim_counts=[4, 4, 4],
                  outlier_fraction=0.0, seed=7)
    result = proclus(ds.points, 3, 4, seed=7, max_bad_tries=20,
                     restarts=3)
    return ds, result


def test_proclus_still_wins_dimension_interpretability(benchmark):
    """On axis-parallel data both cluster well, but only PROCLUS names
    the dimensions — the paper's interpretability argument."""
    ds, p = run_once(benchmark, _axis_parallel_fit)
    assert adjusted_rand_index(p.labels, ds.labels) > 0.8
    # the recovered dimension sets are actual coordinate subsets
    for dims in p.dimensions.values():
        assert all(isinstance(j, int) for j in dims)

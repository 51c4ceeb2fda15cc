"""One-call reproduction summary: every paper artifact, one report.

:func:`run_reproduction` executes the registered experiments at a
chosen scale tier and aggregates a pass/fail verdict per paper claim —
the library-level equivalent of ``scripts/run_paper_scale.py``, usable
programmatically and in CI:

* ``tier="smoke"`` — minutes; reduced N everywhere; checks the
  qualitative claims only;
* ``tier="paper"`` — tens of minutes; accuracy cases at N = 100,000.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from .ablations import run_locality_theorem_check
from .accuracy import run_accuracy_case
from .curse import run_curse_of_dimensionality
from .motivation import run_motivation
from .scalability import run_scalability_space_dim
from .tables import format_table

__all__ = ["ClaimResult", "ReproductionSummary", "run_reproduction"]


@dataclass
class ClaimResult:
    """One paper claim: held or not, with its headline number."""

    artifact: str
    claim: str
    held: bool
    evidence: str
    seconds: float


@dataclass
class ReproductionSummary:
    """Aggregated verdicts over the checked claims."""

    tier: str
    claims: List[ClaimResult] = field(default_factory=list)

    @property
    def all_held(self) -> bool:
        """True when every checked claim reproduced."""
        return all(c.held for c in self.claims)

    @property
    def n_held(self) -> int:
        """Number of claims that reproduced."""
        return sum(1 for c in self.claims if c.held)

    def to_text(self) -> str:
        """Verdict table."""
        rows = [
            [c.artifact, "PASS" if c.held else "FAIL", c.evidence,
             f"{c.seconds:.1f}s"]
            for c in self.claims
        ]
        head = format_table(
            ["artifact", "verdict", "evidence", "time"], rows,
            title=f"Reproduction summary ({self.tier} tier): "
                  f"{self.n_held}/{len(self.claims)} claims held",
        )
        return head


def _check(summary: ReproductionSummary, artifact: str, claim: str,
           runner: Callable[[], tuple]) -> None:
    t0 = time.perf_counter()
    held, evidence = runner()
    summary.claims.append(ClaimResult(
        artifact=artifact, claim=claim, held=bool(held),
        evidence=evidence, seconds=time.perf_counter() - t0,
    ))


def run_reproduction(tier: str = "smoke", *, seed: int = 70) -> ReproductionSummary:
    """Run the claim checks for the chosen tier and return the summary.

    The smoke tier covers the claims whose shape survives small N
    (Tables 1-4 structure, Figure 1, Figure 9 linearity, Theorem 3.1,
    the curse of dimensionality).  The CLIQUE studies and Figures 7-8
    need minutes of CLIQUE runtime and live in the benchmark suite and
    ``scripts/run_paper_scale.py`` instead.
    """
    if tier not in ("smoke", "paper"):
        raise ValueError(f"tier must be 'smoke' or 'paper'; got {tier!r}")
    n_accuracy = 100_000 if tier == "paper" else 4000
    restarts = 3
    summary = ReproductionSummary(tier=tier)

    def case1():
        rep = run_accuracy_case(1, n_points=n_accuracy, seed=seed,
                                max_bad_tries=40, restarts=restarts)
        held = (rep.exact_dimension_rate >= (1.0 if tier == "paper" else 0.6)
                and rep.mean_dominance > 0.8)
        return held, (f"exact dims {rep.exact_dimension_rate:.0%}, "
                      f"ARI {rep.ari:.2f}")

    def case2():
        rep = run_accuracy_case(2, n_points=n_accuracy, seed=seed,
                                max_bad_tries=40, restarts=restarts)
        held = (rep.dimension_report.mean_jaccard >
                (0.95 if tier == "paper" else 0.6))
        return held, (f"dim Jaccard {rep.dimension_report.mean_jaccard:.2f}, "
                      f"ARI {rep.ari:.2f}")

    def fig1():
        rep = run_motivation(n_points=2000, seed=3)
        others = max(v for k, v in rep.scores.items() if k != "PROCLUS")
        held = rep.scores["PROCLUS"] > max(0.8, others)
        return held, f"PROCLUS {rep.scores['PROCLUS']:.2f} vs best other {others:.2f}"

    def fig9():
        # best of 3 per d: a smoke-scale fit takes tens of milliseconds,
        # where one scheduler hiccup can bend the slope
        rep = run_scalability_space_dim(
            dims=(10, 20, 40),
            n_points=20_000 if tier == "paper" else 3000, seed=7,
            proclus_repeats=3,
        )
        slope = rep.slope("PROCLUS")
        return slope < 1.6, f"log-log slope {slope:.2f}"

    def theorem():
        rep = run_locality_theorem_check(
            n_points=10_000 if tier == "paper" else 3000, seed=42,
        )
        return rep.relative_error < 0.25, (
            f"observed {rep.observed_mean:.0f} vs N/k {rep.expected:.0f}"
        )

    def curse():
        rep = run_curse_of_dimensionality(dims=(2, 10, 30),
                                          n_points=1500, seed=11)
        held = rep.contrast_decays() and rep.separation_grows()
        return held, (f"contrast {rep.relative_contrast[0]:.1f} -> "
                      f"{rep.relative_contrast[-1]:.1f}")

    _check(summary, "Tables 1+3", "Case-1 dimensions + confusion", case1)
    _check(summary, "Tables 2+4", "Case-2 dimensions + confusion", case2)
    _check(summary, "Figure 1", "full-dim methods fail, PROCLUS works", fig1)
    _check(summary, "Figure 9", "PROCLUS linear in d", fig9)
    _check(summary, "Theorem 3.1", "locality size ~ N/k", theorem)
    _check(summary, "Section 1", "curse of dimensionality", curse)
    return summary

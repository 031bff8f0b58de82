"""The HistSim state machine (paper Algorithm 1).

The runner (``repro.engine.runner``) feeds sampled (candidate, bin)
counts into a :class:`HistSimState`; each call to :meth:`iterate`
performs one iteration of Algorithm 1's lines 8–14:

1. recompute distance estimates τ_i from the counts matrix;
2. recompute the matching set M (k smallest τ);
3. select deviations {ε_i} per §3.3 (maximal under Lemma 2);
4. convert to failure probabilities δ_i via Theorem 1
   (δ_i = min(1, 2^{|V_X|}·e^{−ε_i²n_i/2})), with δ_i = 0 for
   *exhausted* candidates — ones with n_i = N_i, every tuple of their
   population read, so their histogram is exact (the without-replacement
   endpoint of §4.2 Challenge 1);
5. sum into δ^upper.

Termination: HistSim/ScanMatch/SyncMatch/FastMatch stop when
δ^upper ≤ δ; SlowMatch (§5.2) stops only when max_i δ_i ≤ δ/|V_Z|.
The *active* candidates of the AnyActive policy are those with
δ_i > δ/|V_Z|.

Each iteration is O(|V_Z|·|V_X| + |V_Z| log |V_Z|) (the paper's stated
complexity — we keep the sort, as their implementation does), fully
vectorized in numpy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bounds import delta_bound
from repro.core.deviations import select_deviations
from repro.core.distance import l1_distances, normalize_target


@dataclass
class IterationResult:
    """Snapshot of one Algorithm 1 iteration (lines 8–14)."""

    tau: np.ndarray          # distance estimates τ_i
    matching: np.ndarray     # boolean mask of M
    eps_i: np.ndarray        # chosen deviations ε_i
    delta_i: np.ndarray      # per-candidate failure bounds δ_i
    delta_upper: float       # Σ δ_i
    split: float             # split point s (nan if vacuous)
    n: np.ndarray = field(repr=False, default=None)  # samples per candidate


class HistSimState:
    """Counts + statistics for one run of HistSim.

    Parameters
    ----------
    n_candidates : |V_Z| — number of candidate histograms.
    target : length-|V_X| target vector Q (normalized internally).
    k, eps, delta : the user parameters of Problem 1.
    population : the N_i of a finite dataset sampled without replacement
        (n_i = N_i → exhausted); ``None`` when sampling with replacement.
    """

    def __init__(self, n_candidates: int, target, k: int, eps: float, delta: float,
                 population=None):
        if n_candidates < 1:
            raise ValueError("need at least one candidate")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if not 1 <= k <= n_candidates:
            raise ValueError(f"k must be in [1, {n_candidates}], got {k}")
        self.qhat = normalize_target(target)
        self.d = int(self.qhat.shape[0])
        self.n_candidates = int(n_candidates)
        self.k = int(k)
        self.eps = float(eps)
        self.delta = float(delta)
        self.counts = np.zeros((n_candidates, self.d), dtype=np.int64)
        self.population = None if population is None else np.asarray(population)
        self.n_iterations = 0
        self.last: IterationResult | None = None

    # -- sample ingestion ---------------------------------------------------

    @property
    def n(self) -> np.ndarray:
        """Samples taken per candidate (n_i)."""
        return self.counts.sum(axis=1)

    def update(self, z_idx, x_idx, cnt) -> None:
        """Merge aggregated samples: counts[z, x] += cnt (vectorized).

        This is the statistics engine's r_i ← r_i + r_i^partial merge.
        """
        np.add.at(self.counts, (np.asarray(z_idx), np.asarray(x_idx)), np.asarray(cnt))

    # -- one iteration of Algorithm 1 --------------------------------------

    def iterate(self) -> IterationResult:
        """Lines 8–14 of Algorithm 1; returns (and stores) the snapshot."""
        n = self.n
        tau = l1_distances(self.counts, self.qhat)
        choice = select_deviations(tau, self.k, self.eps)
        delta_i = np.asarray(
            delta_bound(n, np.maximum(choice.eps, 0.0), self.d), dtype=np.float64
        )
        if self.population is not None:
            delta_i[n == self.population] = 0.0
        res = IterationResult(
            tau=tau,
            matching=choice.matching,
            eps_i=choice.eps,
            delta_i=delta_i,
            delta_upper=float(delta_i.sum()),
            split=choice.split,
            n=n,
        )
        self.n_iterations += 1
        self.last = res
        return res

    # -- termination & activity --------------------------------------------

    def terminated(self, criterion: str = "histsim") -> bool:
        """Safe-termination test on the most recent iteration.

        ``histsim``: δ^upper = Σδ_i ≤ δ (the paper's criterion).
        ``slowmatch``: max_i δ_i ≤ δ/|V_Z| (the naive per-candidate
        criterion of the SlowMatch baseline).
        """
        if self.last is None:
            return False
        if criterion == "histsim":
            return self.last.delta_upper <= self.delta
        if criterion == "slowmatch":
            return float(self.last.delta_i.max()) <= self.delta / self.n_candidates
        raise ValueError(f"unknown termination criterion: {criterion}")

    def active(self) -> np.ndarray:
        """AnyActive's active mask: δ_i > δ/|V_Z| (all active before data)."""
        if self.last is None:
            return np.ones(self.n_candidates, dtype=bool)
        return self.last.delta_i > self.delta / self.n_candidates

    def topk_indices(self) -> np.ndarray:
        """Current matching set M as indices, ordered by (τ, index)."""
        if self.last is None:
            raise RuntimeError("iterate() must run before topk_indices()")
        order = np.argsort(self.last.tau, kind="stable")
        return order[: self.k]

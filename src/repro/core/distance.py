"""Normalized ℓ₁ histogram distance (paper Definition 2).

One distance implementation, in numpy: :func:`l1_distances` scores a
|V_Z| × |V_X| counts matrix against a target.  The HistSim driver loop
runs it on its sampled counts (the paper's statistics engine is likewise
in-core), ground truth τ* runs it on the exact counts, and
:func:`candidate_distances` — what the exact ``Scan`` baseline of §5.2
runs — runs it on the counts of one full ``GROUP BY z, x`` aggregate.
Spark does the aggregation only; the tests check both against DuckDB.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F

# ---------------------------------------------------------------------------
# numpy path
# ---------------------------------------------------------------------------


def normalize_rows(counts: np.ndarray) -> np.ndarray:
    """Row-normalize a counts matrix to distributions (r̂ in the paper).

    Rows with zero total are returned as all-zero (their distance to any
    distribution is then the vacuous maximum 1 + 0 = 1 per bin sums...);
    HistSim never trusts such rows — it pins τ to the max distance 2 for
    unsampled candidates (see :mod:`repro.core.histsim`).
    """
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), 0.0)
    return out


def normalize_target(target: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalize a target vector Q to Q̂ (must have positive mass)."""
    q = np.asarray(target, dtype=np.float64)
    s = q.sum()
    if not s > 0:
        raise ValueError("target must have positive total mass")
    return q / s


def l1_distances(counts: np.ndarray, target: Sequence[float]) -> np.ndarray:
    """τ_i = ||r̂_i − Q̂||₁ for every row i of ``counts``.

    Rows with zero samples get the maximum possible ℓ₁ distance between
    distributions, 2.0 — i.e. "we know nothing" (matches HistSim's
    treatment of unsampled candidates).
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=np.float64))
    q = normalize_target(target)
    if counts.shape[-1] != q.shape[0]:
        raise ValueError(
            f"counts have {counts.shape[-1]} bins but target has {q.shape[0]}"
        )
    tau = np.abs(normalize_rows(counts) - q).sum(axis=-1)
    return np.where(counts.sum(axis=-1) > 0, tau, 2.0)


# ---------------------------------------------------------------------------
# Exact path: one Spark aggregate, scored on the driver
# ---------------------------------------------------------------------------


def candidate_histograms(df: DataFrame, z: str, x: str) -> DataFrame:
    """The histogram-generating query of Definition 1, for all candidates.

    ``SELECT z, x, COUNT(*) FROM df GROUP BY z, x`` — one row per
    non-empty (candidate, bin) cell, column ``cnt``.
    """
    return df.groupBy(z, x).agg(F.count(F.lit(1)).alias("cnt"))


def candidate_distances(df: DataFrame, z: str, x: str, target: Mapping) -> pd.DataFrame:
    """Distance of every candidate's histogram in ``df`` to ``target``.

    Runs :func:`candidate_histograms` (one Spark job), collects the
    counts and scores them with :func:`l1_distances`.  ``target`` maps
    bin value → (unnormalized) mass; bins present in the data but
    missing from ``target`` count as q = 0 (and vice versa), exactly as
    Definition 2's ℓ₁ over the union support.

    Returns a pandas DataFrame (z, ``dist``), one row per candidate
    present in ``df``.
    """
    counts = candidate_histograms(df, z, x).toPandas()
    hists = counts.pivot(index=z, columns=x, values="cnt")
    hists = hists.reindex(columns=hists.columns.union(pd.Index(list(target))))
    q = [target.get(b, 0.0) for b in hists.columns]
    dist = l1_distances(hists.fillna(0).to_numpy(), q)
    return pd.DataFrame({z: hists.index.to_numpy(), "dist": dist})

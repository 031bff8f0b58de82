"""Normalized ℓ₁ distance: numpy vs the exact Scan path vs DuckDB
(oracle), + metric properties used by Lemmas 1–2."""
import numpy as np
import pandas as pd
import pytest

from repro.core.distance import (
    candidate_distances,
    candidate_histograms,
    l1_distances,
    normalize_rows,
    normalize_target,
)
from repro.oracle import assert_equivalent
from repro.workloads.queries import QUERIES


# -- numpy path --------------------------------------------------------------


def test_normalize_rows_basic():
    out = normalize_rows(np.array([[2, 2], [0, 4], [0, 0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5], [0.0, 1.0], [0.0, 0.0]])


def test_normalize_target_and_errors():
    np.testing.assert_allclose(normalize_target([2, 2]), [0.5, 0.5])
    with pytest.raises(ValueError):
        normalize_target([0, 0])


def test_l1_known_values():
    counts = np.array([[1, 1], [4, 0], [0, 1]])
    tau = l1_distances(counts, [0.5, 0.5])
    np.testing.assert_allclose(tau, [0.0, 1.0, 1.0])


def test_l1_disjoint_support_is_two():
    assert l1_distances(np.array([[5, 0]]), [0.0, 1.0])[0] == pytest.approx(2.0)


def test_l1_zero_samples_is_two():
    assert l1_distances(np.array([[0, 0, 0]]), [1, 1, 1])[0] == 2.0


def test_l1_shape_mismatch_raises():
    with pytest.raises(ValueError):
        l1_distances(np.ones((3, 4)), [1, 1, 1])


@pytest.mark.parametrize("seed", range(8))
def test_l1_range_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 50, size=(20, 6))
    counts[0] += 1  # ensure at least one non-empty row
    q = rng.dirichlet(np.ones(6))
    tau = l1_distances(counts, q)
    assert np.all((tau >= 0) & (tau <= 2 + 1e-12))


@pytest.mark.parametrize("seed", range(10))
def test_lemma1_deviation_to_reconstruction(seed):
    """|τ_i − τ*_i| ≤ ‖r̂_i − r̂*_i‖₁ (triangle inequality, Lemma 1)."""
    rng = np.random.default_rng(100 + seed)
    est = rng.integers(0, 30, size=(15, 8)) + 1
    tru = rng.integers(0, 30, size=(15, 8)) + 1
    q = rng.dirichlet(np.ones(8))
    tau_est = l1_distances(est, q)
    tau_tru = l1_distances(tru, q)
    dev = np.abs(normalize_rows(est) - normalize_rows(tru)).sum(axis=1)
    assert np.all(np.abs(tau_est - tau_tru) <= dev + 1e-12)


# -- exact Scan path, oracle-checked ------------------------------------------


def _strip(pdf):
    return pdf.drop(columns=["_block_id"], errors="ignore")


def _dist_sql(table, z, x, target: dict) -> str:
    vals = ", ".join(f"({v!r}, {q})" for v, q in target.items())
    return f"""
    WITH counts AS (
        SELECT {z} AS z, {x} AS x, COUNT(*) AS cnt FROM {table} GROUP BY 1, 2
    ),
    totals AS (SELECT z, SUM(cnt) AS total FROM counts GROUP BY 1),
    target(x, q) AS (VALUES {vals}),
    bins AS (SELECT x FROM counts UNION SELECT x FROM target),
    cells AS (
        SELECT t.z,
               COALESCE(c.cnt, 0) / t.total AS p,
               COALESCE(tg.q, 0.0) AS q
        FROM totals t
        CROSS JOIN (SELECT DISTINCT x FROM bins) b
        LEFT JOIN counts c ON t.z = c.z AND b.x = c.x
        LEFT JOIN target tg ON b.x = tg.x
    )
    SELECT z AS {z}, SUM(ABS(p - q)) AS dist FROM cells GROUP BY z
    """


@pytest.fixture(scope="module")
def flights_small(datasets):
    ds = datasets["flights"]
    return ds, ds.sdf.toPandas()


def test_candidate_histograms_oracle(flights_small):
    ds, pdf = flights_small
    got = candidate_histograms(ds.sdf, "origin", "departure_hour").withColumnRenamed(
        "cnt", "cnt"
    )
    assert_equivalent(
        got,
        "SELECT origin, departure_hour, COUNT(*) AS cnt "
        "FROM flights GROUP BY origin, departure_hour",
        flights=_strip(pdf),
    )


def test_candidate_distances_oracle_explicit_target(flights_small):
    ds, pdf = flights_small
    target = {h: (2.0 if h < 12 else 1.0) for h in range(24)}
    total = sum(target.values())
    norm = {h: v / total for h, v in target.items()}
    got = candidate_distances(ds.sdf, "origin", "departure_hour", target)
    assert_equivalent(
        got,
        _dist_sql("flights", "origin", "departure_hour", norm),
        flights=_strip(pdf),
    )


def test_candidate_distances_oracle_partial_target(flights_small):
    """Bins missing from the target count with q = 0 (and vice versa)."""
    ds, pdf = flights_small
    target = {0: 0.5, 1: 0.25, 2: 0.25}
    got = candidate_distances(ds.sdf, "origin", "departure_hour", target)
    assert_equivalent(
        got,
        _dist_sql("flights", "origin", "departure_hour", target),
        flights=_strip(pdf),
    )


def test_candidate_distances_oracle_target_bin_absent_from_data(flights_small):
    """A target bin no tuple falls in counts with p = 0 for every candidate."""
    ds, pdf = flights_small
    target = {0: 0.5, 1: 0.25, 99: 0.25}
    got = candidate_distances(ds.sdf, "origin", "departure_hour", target)
    assert_equivalent(
        got,
        _dist_sql("flights", "origin", "departure_hour", target),
        flights=_strip(pdf),
    )


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_spark_distance_matches_numpy(qid, prepared):
    """The Spark-aggregated distance equals the numpy ground-truth
    distances derived from the counts index, for every evaluation query."""
    pq = prepared[qid]
    target_map = dict(zip(pq.x_values, pq.target))
    pdf = candidate_distances(pq.ds.sdf, pq.spec.z, pq.spec.x, target_map)
    got = dict(zip(pdf[pq.spec.z], pdf["dist"]))
    for zi, zv in enumerate(pq.z_values):
        if pq.exact_counts[zi].sum() > 0:
            assert got[zv] == pytest.approx(pq.tau_star[zi], abs=1e-9)


def test_candidate_distances_zero_mass_target_raises(flights_pq):
    with pytest.raises(ValueError):
        candidate_distances(
            flights_pq.ds.sdf, "origin", "departure_hour", {0: 0.0}
        )

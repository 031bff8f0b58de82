"""Query specs (Table 3) and the prepare() pipeline."""
import numpy as np
import pytest

from repro.core.distance import l1_distances
from repro.oracle import assert_equivalent
from repro.workloads import datasets as wd
from repro.workloads.queries import QUERIES, QuerySpec, compute_target, prepare


def test_nine_queries_match_table3():
    assert len(QUERIES) == 9
    assert {q.dataset for q in QUERIES.values()} == {"flights", "taxi", "police"}
    assert all(qid == spec.qid for qid, spec in QUERIES.items())


@pytest.mark.parametrize("qid,spec", sorted(QUERIES.items()))
def test_spec_sanity(qid, spec):
    assert spec.k in (5, 10)
    assert 0 < spec.eps < 2
    assert spec.paper_eps in (0.06, 0.07)
    assert spec.target_kind in ("candidate", "explicit", "uniform_closest")


def test_flights_q3_target_is_papers_vector():
    spec = QUERIES["flights-q3"]
    assert spec.target_arg[1] == 0.25
    assert all(spec.target_arg[d] == 0.125 for d in range(2, 8))


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_prepare_ground_truth_consistency(qid, prepared):
    pq = prepared[qid]
    assert pq.exact_counts.sum() == pq.ds.n_rows
    assert pq.exact_counts.shape == (pq.n_candidates, pq.d)
    assert pq.bitmap.shape == (pq.n_candidates, pq.ds.n_blocks)
    assert np.shares_memory(pq.bitmap, pq.bitmap_t)  # one array, two views
    np.testing.assert_allclose(
        pq.tau_star, l1_distances(pq.exact_counts, pq.target)
    )
    assert len(pq.true_topk()) == pq.spec.k


def test_candidate_target_has_zero_distance(prepared):
    for qid in ("flights-q1", "flights-q2"):
        pq = prepared[qid]
        zi = pq.z_values.index(pq.spec.target_arg)
        assert pq.tau_star[zi] == pytest.approx(0.0)
        assert zi in set(pq.true_topk().tolist())


def test_uniform_closest_targets_in_designed_cluster(prepared):
    clusters = {
        "taxi-q1": wd.TAXI_Q1_CLUSTER,
        "taxi-q2": wd.TAXI_Q2_CLUSTER,
        "police-q1": wd.POLICE_Q1_CLUSTER,
        "police-q2": wd.POLICE_Q2_CLUSTER,
        "police-q3": wd.POLICE_Q3_CLUSTER,
        "flights-q4": wd.FLIGHTS_HUBS,
    }
    for qid, cluster in clusters.items():
        pq = prepared[qid]
        best = int(np.argmin(l1_distances(pq.exact_counts, np.full(pq.d, 1.0 / pq.d))))
        assert best in cluster, f"{qid}: target candidate {best} not in cluster"


def test_explicit_target_vector(prepared):
    pq = prepared["flights-q3"]
    np.testing.assert_allclose(pq.target, [0.25] + [0.125] * 6)


def test_compute_target_errors():
    with pytest.raises(ValueError):
        compute_target(
            QuerySpec("flights", "qx", "origin", "day_of_week", 5, 0.1, 0.06,
                      "explicit", {99: 1.0}),
            [1, 2, 3],
            np.ones((2, 3)),
        )
    with pytest.raises(ValueError):
        compute_target(
            QuerySpec("flights", "qx", "origin", "day_of_week", 5, 0.1, 0.06,
                      "bogus"),
            [1, 2, 3],
            np.ones((2, 3)),
        )


def test_prepare_wrong_dataset_raises(datasets):
    with pytest.raises(ValueError):
        prepare(datasets["flights"], QUERIES["taxi-q1"])


def test_exact_counts_oracle(prepared):
    """The numpy ground truth equals a DuckDB aggregation of the data."""
    pq = prepared["police-q1"]
    pdf = pq.ds.sdf.toPandas()
    import duckdb

    con = duckdb.connect()
    con.register("police", pdf)
    rows = con.execute(
        "SELECT road_id, contraband_found, COUNT(*) AS c FROM police GROUP BY 1, 2"
    ).fetchall()
    con.close()
    for road, contra, c in rows:
        zi = pq.z_values.index(road)
        xi = pq.x_values.index(contra)
        assert pq.exact_counts[zi, xi] == c


def test_true_topk_lands_in_engineered_clusters(prepared):
    """At test SF the sampling jitter is large, so require only a
    majority of the true top-k inside the designed cluster."""
    checks = {
        "flights-q1": set(wd.FLIGHTS_HUBS),
        "flights-q2": set([wd.ATW_ID] + wd.FLIGHTS_ATW_NEIGHBORS),
        "police-q1": set(wd.POLICE_Q1_CLUSTER),
    }
    for qid, cluster in checks.items():
        pq = prepared[qid]
        hits = sum(1 for i in pq.true_topk() if int(i) in cluster)
        assert hits >= pq.spec.k // 2, f"{qid}: only {hits} of top-k in cluster"

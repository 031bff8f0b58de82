"""The §5.2 variants: termination, mode equivalence, guarantees."""
import numpy as np
import pytest

from repro.engine.runner import APPROX_VARIANTS, run_scan, run_variant
from repro.tables.metrics import (
    delta_d,
    guarantee1_satisfied,
    guarantee2_satisfied,
)
from repro.workloads.queries import QUERIES

VARIANTS = sorted(APPROX_VARIANTS)


# -- basics ------------------------------------------------------------------


def test_unknown_variant_raises(flights_pq):
    with pytest.raises(ValueError):
        run_variant(flights_pq, "turbomatch")


def test_bad_mode_raises(flights_pq):
    with pytest.raises(ValueError):
        run_variant(flights_pq, "fastmatch", mode="dask")


def test_bad_lookahead_raises(flights_pq):
    with pytest.raises(ValueError):
        run_variant(flights_pq, "fastmatch", lookahead=0)


def test_bad_start_raises(flights_pq):
    with pytest.raises(ValueError):
        run_variant(flights_pq, "fastmatch", start_block=10**9)


def test_seeded_start_is_deterministic(flights_pq):
    a = run_variant(flights_pq, "fastmatch", seed=5)
    b = run_variant(flights_pq, "fastmatch", seed=5)
    assert a.start_block == b.start_block
    assert a.tuples_read == b.tuples_read
    np.testing.assert_array_equal(a.topk_idx, b.topk_idx)


# -- counters & termination --------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_counters_sane(variant, flights_pq):
    r = run_variant(flights_pq, variant, start_block=7)
    assert 0 < r.tuples_read <= flights_pq.ds.n_rows
    assert r.blocks_read <= r.blocks_considered <= flights_pq.ds.n_blocks
    assert r.n_stat_iters <= r.n_batches
    assert r.est_counts.sum() == r.tuples_read
    assert len(r.topk_idx) == flights_pq.spec.k
    # terminated early via the statistics engine, or read everything
    assert r.terminated_early or r.blocks_considered == flights_pq.ds.n_blocks


@pytest.mark.parametrize("variant", VARIANTS)
def test_full_read_is_exact(variant, flights_pq):
    """With ε tiny the run must fall through to the exhaustion path and
    return the exact answer with δ_upper = 0."""
    r = run_variant(flights_pq, variant, eps=1e-3, start_block=0)
    assert r.tuples_read == flights_pq.ds.n_rows
    assert r.delta_upper == 0.0
    np.testing.assert_array_equal(
        np.sort(r.topk_idx), np.sort(flights_pq.true_topk())
    )


def test_slowmatch_needs_at_least_scanmatch_samples(flights_pq):
    slow = run_variant(flights_pq, "slowmatch", start_block=3)
    scan = run_variant(flights_pq, "scanmatch", start_block=3)
    assert slow.tuples_read >= scan.tuples_read


def test_fastmatch_reads_at_most_scanmatch(flights_pq):
    fast = run_variant(flights_pq, "fastmatch", start_block=3)
    scan = run_variant(flights_pq, "scanmatch", start_block=3)
    assert fast.tuples_read <= scan.tuples_read


def test_wraparound_start(flights_pq):
    r = run_variant(flights_pq, "scanmatch", start_block=flights_pq.ds.n_blocks - 1)
    assert r.tuples_read > 0


def test_exhausted_iff_every_block_scanned(prepared):
    """HistSim's exhaustion rule n_i = N_i picks exactly the candidates
    whose every bitmap block lies in the range a run has scanned.

    POLICE q1 with 8-block batches stops early with some, not all, of
    its candidates exhausted (at SF 0.01 the 512-block default and the
    long-tailed FLIGHTS/TAXI runs read everything before stopping).
    """
    pq = prepared["police-q1"]
    n_blocks = pq.ds.n_blocks
    start = n_blocks - 100
    r = run_variant(pq, "scanmatch", start_block=start, lookahead=8)
    assert r.terminated_early and 100 < r.blocks_read < n_blocks  # wrapped, stopped early
    scanned = np.zeros(n_blocks, dtype=bool)
    scanned[(start + np.arange(r.blocks_read)) % n_blocks] = True
    every_block_scanned = ~(pq.bitmap & ~scanned).any(axis=1)
    exhausted = r.est_counts.sum(axis=1) == pq.exact_counts.sum(axis=1)
    np.testing.assert_array_equal(exhausted, every_block_scanned)
    assert 0 < exhausted.sum() < pq.n_candidates


# -- spark mode ≡ replay mode ------------------------------------------------


@pytest.mark.parametrize("variant", ["scanmatch", "fastmatch"])
def test_modes_equivalent(variant, prepared):
    pq = prepared["police-q1"]
    a = run_variant(pq, variant, start_block=11, mode="replay")
    b = run_variant(pq, variant, start_block=11, mode="spark")
    assert a.tuples_read == b.tuples_read
    assert a.blocks_read == b.blocks_read
    assert a.n_batches == b.n_batches
    np.testing.assert_array_equal(a.topk_idx, b.topk_idx)
    np.testing.assert_array_equal(a.est_counts, b.est_counts)


def test_syncmatch_modes_equivalent_small(prepared):
    """Per-block spark jobs are slow, so check on the smallest dataset
    with a start near the end (wraparound covered too)."""
    pq = prepared["police-q1"]
    start = pq.ds.n_blocks - 40
    a = run_variant(pq, "syncmatch", start_block=start, mode="replay")
    b = run_variant(pq, "syncmatch", start_block=start, mode="spark")
    assert a.tuples_read == b.tuples_read
    np.testing.assert_array_equal(a.est_counts, b.est_counts)


# -- the guarantees, across every query and variant --------------------------


@pytest.mark.parametrize("qid", [
    "flights-q1", "flights-q2", "flights-q3", "flights-q4",
    "taxi-q1", "taxi-q2", "police-q1", "police-q2", "police-q3",
])
@pytest.mark.parametrize("variant", VARIANTS)
def test_guarantees_hold(qid, variant, prepared):
    pq = prepared[qid]
    r = run_variant(pq, variant, seed=42)
    assert guarantee1_satisfied(r.topk_idx, pq.tau_star, pq.spec.k, r.eps)
    assert guarantee2_satisfied(r.topk_idx, r.est_counts, pq.exact_counts, r.eps)
    assert delta_d(r.topk_idx, pq.tau_star, pq.spec.k) < 0.5


# -- Scan --------------------------------------------------------------------


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_scan_matches_ground_truth(qid, prepared):
    pq = prepared[qid]
    s = run_scan(pq)
    np.testing.assert_array_equal(s.topk_idx, pq.true_topk())
    np.testing.assert_allclose(s.tau, pq.tau_star, atol=1e-9)
    assert s.wall > 0
    assert s.n_rows == pq.ds.n_rows

"""The HistSim state machine (Algorithm 1) and its termination logic."""
import numpy as np
import pytest

from repro.core.bounds import delta_bound
from repro.core.distance import l1_distances
from repro.core.histsim import HistSimState


def make_state(n_cand=5, d=4, k=2, eps=0.2, delta=0.01, target=None):
    return HistSimState(n_cand, target if target is not None else np.ones(d), k, eps, delta)


# -- construction ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_cand=0),
        dict(k=0),
        dict(k=6),
        dict(eps=0.0),
        dict(delta=0.0),
        dict(delta=1.0),
    ],
)
def test_bad_construction(kwargs):
    with pytest.raises(ValueError):
        make_state(**kwargs)


def test_initial_state():
    st = make_state()
    assert st.n.sum() == 0
    assert not st.terminated()
    assert st.active().all()
    with pytest.raises(RuntimeError):
        st.topk_indices()


# -- updates -----------------------------------------------------------------


def test_update_accumulates_duplicates():
    st = make_state()
    st.update([0, 0, 1], [2, 2, 3], [5, 3, 7])
    assert st.counts[0, 2] == 8
    assert st.counts[1, 3] == 7
    assert list(st.n) == [8, 7, 0, 0, 0]


def test_iterate_known_small_case():
    st = make_state(n_cand=3, d=2, k=1, eps=0.2, target=[1, 1])
    st.update([0, 0, 1, 1, 2], [0, 1, 0, 0, 0], [10, 10, 20, 0, 4])
    res = st.iterate()
    np.testing.assert_allclose(res.tau, [0.0, 1.0, 1.0])
    assert list(np.flatnonzero(res.matching)) == [0]
    assert res.split == pytest.approx(0.5)
    # δ_i from Theorem 1 with the chosen ε_i
    np.testing.assert_allclose(
        res.delta_i, delta_bound(res.n, np.maximum(res.eps_i, 0), 2)
    )
    assert res.delta_upper == pytest.approx(res.delta_i.sum())


def test_unsampled_candidate_has_delta_one_and_tau_two():
    st = make_state(n_cand=3, d=2, k=1, target=[1, 1])
    st.update([0], [0], [50])
    res = st.iterate()
    assert res.tau[1] == 2.0 and res.tau[2] == 2.0
    assert res.delta_i[1] == 1.0 and res.delta_i[2] == 1.0


# -- exhaustion (sampling without replacement) -------------------------------


def test_empty_population_has_delta_zero_at_first_iterate():
    """A candidate with N_i = 0 (absent from the data) is exact already."""
    st = HistSimState(3, [1, 1], 1, 0.2, 0.01, population=[20, 0, 20])
    st.update([0, 2], [0, 1], [5, 5])
    res = st.iterate()
    assert res.delta_i[1] == 0.0
    assert res.delta_i[0] > 0 and res.delta_i[2] > 0


def test_fully_read_candidate_has_delta_zero():
    st = HistSimState(3, [1, 1], 1, 0.2, 0.01, population=[6, 5, 6])
    st.update([0, 1, 1, 2], [0, 0, 1, 1], [5, 3, 2, 5])
    res = st.iterate()
    assert res.n[1] == 5
    assert res.delta_i[1] == 0.0
    assert res.delta_i[0] > 0 and res.delta_i[2] > 0


def test_one_tuple_short_of_population_is_not_exhausted():
    st = HistSimState(2, [1, 1], 1, 0.2, 0.01, population=[5, 5])
    st.update([0, 1], [0, 1], [4, 5])
    res = st.iterate()
    assert res.delta_i[0] > 0
    assert res.delta_i[1] == 0.0
    assert res.delta_i[0] == pytest.approx(delta_bound(4, max(res.eps_i[0], 0.0), 2))


def test_termination_criteria_difference():
    """Σδ ≤ δ can hold while max δ_i ≤ δ/|V_Z| does not — exactly the
    SlowMatch-vs-HistSim gap the paper exploits (§5.2).

    Candidate 0 matches the target exactly on 49 samples: its ε_0 = 0.5
    gives δ_0 = 4·e^(−0.125·49) ≈ 0.0088, under δ = 0.01 but far above
    δ/4 = 0.0025.  The three far candidates get huge ε_j and negligible
    δ_j, so the HistSim sum terminates and the SlowMatch max does not.
    """
    st = make_state(n_cand=4, d=2, k=1, eps=0.5, delta=0.01, target=[1, 0])
    st.update([0], [0], [49])
    st.update([1, 2, 3], [1, 1, 1], [16, 16, 16])
    res = st.iterate()
    assert res.delta_upper <= 0.01
    assert res.delta_i.max() > 0.01 / 4
    assert st.terminated("histsim")
    assert not st.terminated("slowmatch")


def test_bad_criterion():
    st = make_state()
    st.update([0], [0], [1])
    st.iterate()
    with pytest.raises(ValueError):
        st.terminated("nope")


def test_active_mask_threshold():
    st = make_state(n_cand=3, d=2, k=1, eps=0.4, delta=0.3, target=[1, 1])
    st.update([0, 1, 2], [0, 0, 0], [200_000, 200_000, 3])
    res = st.iterate()
    active = st.active()
    np.testing.assert_array_equal(active, res.delta_i > 0.3 / 3)
    assert active[2]  # 3 samples cannot settle anything


def test_topk_ordering():
    st = make_state(n_cand=4, d=2, k=2, target=[1, 1])
    st.update([0, 1, 2, 3], [0, 0, 0, 0], [10, 10, 10, 10])
    st.update([0, 1, 2, 3], [1, 1, 1, 1], [10, 8, 2, 10])
    st.iterate()
    assert list(st.topk_indices()) == [0, 3]


# -- end-to-end statistical behaviour ---------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_simulated_run_returns_correct_topk(seed):
    """Feeding multinomial rounds until termination returns the true
    top-k (up to ε-equivalent swaps) — Algorithm 1 end to end."""
    rng = np.random.default_rng(seed)
    n_cand, d, k, eps, delta = 12, 6, 3, 0.25, 0.05
    target = rng.dirichlet(np.ones(d) * 5)
    # candidate true distributions: 3 close to target, rest far
    truth = np.empty((n_cand, d))
    for i in range(n_cand):
        mix = 0.05 if i < 3 else rng.uniform(0.5, 1.0)
        far = rng.dirichlet(np.ones(d))
        truth[i] = (1 - mix) * target + mix * far
        truth[i] /= truth[i].sum()
    st = HistSimState(n_cand, target, k, eps, delta)
    for _ in range(3000):
        for i in range(n_cand):
            draw = rng.multinomial(40, truth[i])
            st.update([i] * d, list(range(d)), draw)
        st.iterate()
        if st.terminated():
            break
    assert st.terminated()
    tau_true = l1_distances(truth * 1000, target)
    got = set(st.topk_indices().tolist())
    true_k = set(np.argsort(tau_true, kind="stable")[:k].tolist())
    # separation guarantee: any mismatch must be within ε in true distance
    worst_out = max(tau_true[list(got)])
    for j in true_k - got:
        assert worst_out - tau_true[j] < eps


def test_iteration_count_tracked():
    st = make_state()
    st.update([0], [0], [1])
    st.iterate()
    st.iterate()
    assert st.n_iterations == 2

"""Soft sorting/ranking and Gaussian-mixture distances."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import (
    Gaussian,
    GaussianMixture,
    SoftSortSpec,
    bures_w2,
    gmm_distance,
    soft_rank,
    soft_sort,
    sort_transport,
)
from otkit.tools import _pairwise_bures, _sort_problem

FIGURE_ARRAY = np.array([1.0, 5.0, 4.0, 8.0, 12.0])

finite_floats = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


# ---- soft sort ----


def test_small_eps_recovers_the_hard_sort():
    out = soft_sort(FIGURE_ARRAY, SoftSortSpec(eps=1e-3))
    npt.assert_allclose(out, [1.0, 4.0, 5.0, 8.0, 12.0], atol=1e-2)


def test_sorted_input_is_nearly_fixed():
    x = np.array([0.5, 1.5, 2.0, 7.0])
    npt.assert_allclose(soft_sort(x, SoftSortSpec(eps=1e-3)), x, atol=1e-2)


def test_huge_eps_flattens_everything_to_the_mean():
    out = soft_sort(FIGURE_ARRAY, SoftSortSpec(eps=1e3))
    npt.assert_allclose(out, 6.0, atol=1e-2)


def test_output_is_nondecreasing_across_an_eps_sweep():
    for eps in np.geomspace(1e-3, 1e3, 10):
        out = soft_sort(FIGURE_ARRAY, SoftSortSpec(eps=float(eps)))
        assert np.all(np.diff(out) >= -1e-9), f"order violated at eps={eps}"


def test_constant_input_returns_the_constant():
    out = soft_sort(np.full(4, 3.5), SoftSortSpec(eps=1e-2))
    npt.assert_allclose(out, 3.5, atol=1e-9)


def test_fewer_targets_compress_the_input():
    out = soft_sort(FIGURE_ARRAY, SoftSortSpec(num_targets=3, eps=1e-2))
    assert out.shape == (3,)
    assert np.all(np.diff(out) >= -1e-9)


@settings(max_examples=25, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=8), st.integers(0, 1_000))
def test_soft_sort_ignores_input_order(values, seed):
    x = np.array(values)
    perm = np.random.default_rng(seed).permutation(x.size)
    base = soft_sort(x)
    shuffled = soft_sort(x[perm])
    npt.assert_allclose(shuffled, base, atol=1e-9)


# ---- soft rank ----


def test_small_eps_recovers_the_hard_ranks():
    out = soft_rank(FIGURE_ARRAY, SoftSortSpec(eps=1e-3))
    npt.assert_allclose(out, [0.0, 2.0, 1.0, 3.0, 4.0], atol=1e-2)


def test_constant_input_shares_rank_mass_evenly():
    out = soft_rank(np.full(5, 2.0), SoftSortSpec(eps=1e-2))
    npt.assert_allclose(out, 2.0, atol=1e-6)


def test_reversing_the_input_reverses_the_ranks():
    x = np.array([1.0, 2.0, 4.0, 9.0])
    forward = soft_rank(x, SoftSortSpec(eps=1e-3))
    backward = soft_rank(x[::-1], SoftSortSpec(eps=1e-3))
    npt.assert_allclose(backward, forward[::-1], atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=8))
def test_rank_mass_is_conserved(values):
    x = np.array(values)
    n = x.size
    assert abs(soft_rank(x).sum() - n * (n - 1) / 2.0) <= 1e-6


def test_soft_rank_requires_matching_target_count():
    with pytest.raises(ValueError):
        soft_rank(FIGURE_ARRAY, SoftSortSpec(num_targets=3))


def test_sort_transport_reports_convergence_and_marginals():
    plan, converged = sort_transport(FIGURE_ARRAY)
    assert converged
    npt.assert_allclose(plan.sum(axis=0), 0.2, atol=1e-9)
    npt.assert_allclose(plan.sum(axis=1), 0.2, atol=1e-4)


def test_sort_transport_refuses_plans_above_the_cap_before_solving(monkeypatch):
    monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", 20)
    plan, converged = sort_transport(FIGURE_ARRAY, SoftSortSpec(num_targets=4))  # 5 x 4, at the cap
    assert converged and plan.shape == (5, 4)
    solves = []

    def no_solve(*args):
        solves.append(args)
        raise AssertionError("solved a plan that cannot be materialized")

    monkeypatch.setattr("otkit.sinkhorn._sinkhorn_iterations", no_solve)
    with pytest.raises(ValueError, match="5x5 = 25 entries exceeds the materialization cap 20"):
        sort_transport(FIGURE_ARRAY)
    assert solves == []


def test_soft_sort_and_rank_stream_plans_above_the_cap(monkeypatch):
    plan, _ = sort_transport(FIGURE_ARRAY)
    monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", 20)  # below 5 x 5
    values = soft_sort(FIGURE_ARRAY)
    ranks = soft_rank(FIGURE_ARRAY)
    npt.assert_allclose(values, 5 * (plan.T @ FIGURE_ARRAY), rtol=1e-12, atol=0)
    npt.assert_allclose(ranks, 5 * (plan @ np.arange(5.0)), rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "n, num_targets", [(5, None), (5, 3), (300, None), (300, 40), (1000, None), (1500, None)]
)
def test_soft_sort_and_rank_reduce_the_sort_transport_plan(n, num_targets):
    # The plan streams in blocks of as many rows as fill the byte budget at
    # its width: 300 x 300 in blocks of 208 and 92 rows, 1,000 x 1,000 of
    # 64 (the last 40), 1,500 x 1,500 of 32 (the last 28); 300 x 40 is one
    # block. Values sum over the blocks and may round differently there;
    # ranks (one row each) may not. The reference ranks take the dense
    # plan's products over the same row blocks: a threaded BLAS product
    # splits its rows across threads by their count, and rounds a row alike
    # only when it is given the same count.
    x = np.random.default_rng(n).normal(size=n)
    spec = SoftSortSpec(num_targets=num_targets)
    plan, _ = sort_transport(x, spec)
    npt.assert_allclose(soft_sort(x, spec), plan.shape[1] * (plan.T @ x), rtol=1e-12, atol=0)
    if num_targets is None:
        size = _sort_problem(x, spec)[1].geom._block_rows(n)
        ranks = np.concatenate([plan[lo : lo + size] @ np.arange(n, dtype=float) for lo in range(0, n, size)])
        assert np.array_equal(soft_rank(x, spec), n * ranks)


@pytest.mark.parametrize("call", [soft_sort, soft_rank])
def test_soft_sort_and_rank_never_hold_a_plan_above_the_cap(traced_peak, call):
    n = 2001  # n * n is above DEFAULT_DENSE_CAP
    x = np.random.default_rng(7).normal(size=n)
    out, peak = traced_peak(lambda: call(x, SoftSortSpec(eps=0.1)))
    assert out.shape == (n,) and np.all(np.isfinite(out))
    assert peak < n * n * 8 / 2


def test_soft_sort_squashes_the_widest_finite_inputs():
    x = np.array([-1e308, 1e308])
    out = soft_sort(x)
    assert np.all(np.isfinite(out)) and np.all(out[1:] >= out[:-1])
    assert out.min() >= x.min() and out.max() <= x.max()


def test_unsquashed_mode_uses_raw_values():
    x = np.array([0.1, 0.9])
    out = soft_sort(x, SoftSortSpec(eps=1e-3, squash="none"))
    npt.assert_allclose(out, [0.1, 0.9], atol=1e-2)


def test_spec_validation():
    with pytest.raises(ValueError):
        SoftSortSpec(num_targets=0)
    with pytest.raises(ValueError):
        SoftSortSpec(eps=0.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        SoftSortSpec(eps=float("inf"))
    with pytest.raises(ValueError):
        SoftSortSpec(squash="sigmoid")
    with pytest.raises(ValueError):
        soft_sort(np.array([]))
    with pytest.raises(ValueError):
        soft_sort(np.array([1.0, np.nan]))


# ---- Gaussians ----


def test_bures_between_identical_gaussians_is_zero():
    g = Gaussian(np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert bures_w2(g, g) == 0.0


def test_bures_one_dimensional_closed_form():
    g1 = Gaussian(np.array([0.0]), np.array([[1.0]]))
    g2 = Gaussian(np.array([2.0]), np.array([[4.0]]))
    assert bures_w2(g1, g2) == pytest.approx(5.0, abs=1e-12)


def test_bures_commuting_diagonal_covariances():
    g1 = Gaussian(np.zeros(2), np.diag([1.0, 4.0]))
    g2 = Gaussian(np.zeros(2), np.diag([4.0, 1.0]))
    assert bures_w2(g1, g2) == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10_000))
def test_bures_is_symmetric_and_nonnegative(dim, seed):
    rng = np.random.default_rng(seed)

    def random_gaussian():
        m = rng.standard_normal((dim, dim))
        return Gaussian(rng.standard_normal(dim), m @ m.T + 0.1 * np.eye(dim))

    g1, g2 = random_gaussian(), random_gaussian()
    d12 = bures_w2(g1, g2)
    assert d12 >= 0.0
    assert abs(d12 - bures_w2(g2, g1)) <= 1e-8


def per_pair_bures(g1, g2):
    """The per-pair formula, with one pair of eigendecompositions per call."""

    def psd_sqrt(mat):
        vals, vecs = np.linalg.eigh(mat)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T

    root1 = psd_sqrt(g1.cov)
    cross = psd_sqrt(root1 @ g2.cov @ root1)
    mean_term = float(np.sum((g1.mean - g2.mean) ** 2))
    return max(mean_term + float(np.trace(g1.cov) + np.trace(g2.cov) - 2.0 * np.trace(cross)), 0.0)


def psd_mixture(rng, count, dim, rank):
    """A mixture of ``count`` Gaussians in ``dim`` dimensions, with PSD
    covariances of rank ``rank``."""
    comps = []
    for _ in range(count):
        factor = rng.standard_normal((dim, rank))
        comps.append(Gaussian(rng.normal(scale=2.0, size=dim), factor @ factor.T))
    w = rng.random(count) + 0.2
    return GaussianMixture(w / w.sum(), tuple(comps))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("deficient", [False, True])
def test_pairwise_bures_matches_the_per_pair_formula(dim, deficient):
    # All pairs from two stacked eigendecompositions equal a loop of the
    # per-pair formula, with K1 != K2, full-rank and rank-deficient PSD
    # covariances (rank d - 1, and rank 0 at d = 1), and bures_w2 too.
    rng = np.random.default_rng(40 + dim)
    rank = dim - 1 if deficient else dim
    mix1, mix2 = psd_mixture(rng, 4, dim, rank), psd_mixture(rng, 3, dim, rank)
    for p, q in ((mix1, mix2), (mix2, mix1), (mix1, mix1)):
        stacked = _pairwise_bures(p, q)
        loop = np.array([[per_pair_bures(g1, g2) for g2 in q.components] for g1 in p.components])
        assert stacked.shape == (len(p.components), len(q.components))
        npt.assert_allclose(stacked, loop, rtol=1e-15, atol=0.0)
        pairs = [[bures_w2(g1, g2) for g2 in q.components] for g1 in p.components]
        npt.assert_allclose(pairs, loop, rtol=1e-15, atol=0.0)
    assert gmm_distance(mix1, mix1).value == 0.0


def test_gaussian_validation():
    with pytest.raises(ValueError):
        Gaussian(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Gaussian(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        Gaussian(np.zeros(2), np.eye(3))
    g1 = Gaussian(np.zeros(1), np.eye(1))
    g2 = Gaussian(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        bures_w2(g1, g2)


# ---- mixtures ----


def separated_pair():
    mix1 = GaussianMixture(
        np.array([0.4, 0.6]),
        (
            Gaussian(np.array([0.0]), np.array([[0.5]])),
            Gaussian(np.array([20.0]), np.array([[0.5]])),
        ),
    )
    mix2 = GaussianMixture(
        np.array([0.4, 0.6]),
        (
            Gaussian(np.array([0.5]), np.array([[0.6]])),
            Gaussian(np.array([20.5]), np.array([[0.7]])),
        ),
    )
    return mix1, mix2


def test_single_component_mixtures_reduce_to_bures():
    mix1 = GaussianMixture(np.array([1.0]), (Gaussian(np.array([0.0]), np.array([[1.0]])),))
    mix2 = GaussianMixture(np.array([1.0]), (Gaussian(np.array([2.0]), np.array([[4.0]])),))
    result = gmm_distance(mix1, mix2)
    assert result.value == pytest.approx(5.0, abs=1e-9)
    npt.assert_allclose(result.coupling, [[1.0]], atol=1e-12)


def test_identical_mixture_sits_at_zero_with_a_diagonal_map():
    mix, _ = separated_pair()
    result = gmm_distance(mix, mix)
    assert result.value <= 1e-6
    npt.assert_allclose(result.coupling, np.diag(mix.weights), atol=1e-9)


def test_separated_matched_components_pair_up():
    mix1, mix2 = separated_pair()
    result = gmm_distance(mix1, mix2)
    assert result.coupling[0, 0] + result.coupling[1, 1] >= 0.99
    assert result.converged


def test_distance_is_symmetric_on_random_mixtures():
    rng = np.random.default_rng(13)

    def random_mixture(dim):
        count = int(rng.integers(1, 4))
        w = rng.random(count) + 0.2
        w /= w.sum()
        comps = []
        for _ in range(count):
            m = rng.standard_normal((dim, dim))
            comps.append(Gaussian(rng.standard_normal(dim) * 2.0, m @ m.T + 0.3 * np.eye(dim)))
        return GaussianMixture(w, tuple(comps))

    for _ in range(5):
        dim = int(rng.integers(1, 4))
        mix1, mix2 = random_mixture(dim), random_mixture(dim)
        forward = gmm_distance(mix1, mix2)
        backward = gmm_distance(mix2, mix1)
        assert abs(forward.value - backward.value) <= 1e-8
        assert forward.value >= 0.0


def test_mixture_validation():
    g1 = Gaussian(np.zeros(1), np.eye(1))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.5, 0.6]), (g1, g1))
    with pytest.raises(ValueError):
        GaussianMixture(None, (g1,))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.0]), ())
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.0]), (g1, g1))
    g2 = Gaussian(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.5, 0.5]), (g1, g2))
    mix1 = GaussianMixture(np.array([1.0]), (g1,))
    mix2 = GaussianMixture(np.array([1.0]), (g2,))
    with pytest.raises(ValueError):
        gmm_distance(mix1, mix2)

"""Rank-constrained solver: forced couplings, factor identities, descent."""

import numpy as np
import numpy.testing as npt
import pytest

from otkit import (
    DenseGeometry,
    LinearProblem,
    LowRankFactors,
    PointCloudGeometry,
    lowrank,
    lr_coupling,
    solve_lr_sinkhorn,
)


def test_rank_one_cost_is_the_independent_coupling_cost():
    rng = np.random.default_rng(0)
    cost = rng.random((4, 3))
    a = np.array([0.2, 0.3, 0.4, 0.1])
    b = np.array([0.5, 0.2, 0.3])
    prob = LinearProblem(DenseGeometry(cost), a, b)
    out = solve_lr_sinkhorn(prob, 1)
    assert abs(out.costs[-1] - a @ cost @ b) <= 1e-6
    npt.assert_allclose(lr_coupling(out.factors).matrix, np.outer(a, b), atol=1e-6)


def test_singleton_factors_are_all_ones():
    prob = LinearProblem(DenseGeometry(np.array([[5.0]])))
    out = solve_lr_sinkhorn(prob, 1)
    npt.assert_allclose(out.factors.q, [[1.0]], atol=1e-9)
    npt.assert_allclose(out.factors.r, [[1.0]], atol=1e-9)
    npt.assert_allclose(out.factors.g, [1.0], atol=1e-9)
    npt.assert_allclose(lr_coupling(out.factors).matrix, [[1.0]], atol=1e-9)


def test_full_rank_two_point_problem_reaches_the_permutation_cost():
    # Identity assignment costs 0.625 and has rank 2, so the constrained
    # solver can match the unconstrained optimum here.
    geom = PointCloudGeometry(np.array([[0.0], [1.0]]), np.array([[0.5], [2.0]]))
    prob = LinearProblem(geom)
    out = solve_lr_sinkhorn(prob, 2)
    assert out.costs[-1] <= 0.625 + 0.05


def test_hand_built_rank_one_factors_assemble_the_outer_product():
    a = np.array([0.2, 0.3, 0.5])
    b = np.array([0.6, 0.4])
    factors = LowRankFactors(a[:, None], b[:, None], np.array([1.0]))
    npt.assert_array_equal(lr_coupling(factors).matrix, np.outer(a, b))


def test_constructed_feasible_factors_satisfy_all_marginal_identities():
    # Columns of q are g_k times a probability vector, so the four
    # identities hold by construction and lr_coupling must preserve them.
    p1 = np.array([0.5, 0.25, 0.25])
    p2 = np.array([0.2, 0.2, 0.6])
    q1 = np.array([0.1, 0.8, 0.1])
    q2 = np.array([1.0, 1.0, 1.0]) / 3.0
    g = np.array([0.4, 0.6])
    q = np.stack([g[0] * p1, g[1] * p2], axis=1)
    r = np.stack([g[0] * q1, g[1] * q2], axis=1)
    factors = LowRankFactors(q, r, g)
    a = q.sum(axis=1)
    b = r.sum(axis=1)
    npt.assert_allclose(q.sum(axis=0), g, atol=1e-15)
    npt.assert_allclose(r.sum(axis=0), g, atol=1e-15)
    plan = lr_coupling(factors)
    npt.assert_allclose(plan.row_marginal(), a, atol=1e-15)
    npt.assert_allclose(plan.col_marginal(), b, atol=1e-15)


def test_solved_factors_satisfy_marginal_identities():
    rng = np.random.default_rng(12)
    geom = DenseGeometry(rng.random((5, 4)))
    a = rng.random(5) + 0.2
    a /= a.sum()
    b = rng.random(4) + 0.2
    b /= b.sum()
    prob = LinearProblem(geom, a, b)
    out = solve_lr_sinkhorn(prob, 2)
    factors = out.factors
    assert np.abs(factors.q.sum(axis=1) - a).sum() <= 1e-6
    assert np.abs(factors.r.sum(axis=1) - b).sum() <= 1e-6
    assert np.abs(factors.q.sum(axis=0) - factors.g).sum() <= 1e-6
    assert np.abs(factors.r.sum(axis=0) - factors.g).sum() <= 1e-6
    assert np.all(factors.g > 0)
    assert np.all(factors.q >= 0)
    assert np.all(factors.r >= 0)


def test_cost_trace_is_nonincreasing():
    rng = np.random.default_rng(1)
    prob = LinearProblem(DenseGeometry(rng.random((4, 5))))
    out = solve_lr_sinkhorn(prob, 2)
    assert len(out.costs) >= 2
    assert np.all(np.diff(out.costs) <= 1e-7)


@pytest.mark.parametrize("backend", ["dense", "pointcloud"])
def test_last_cost_is_the_transport_cost_of_the_returned_factors(backend):
    rng = np.random.default_rng(5)
    if backend == "dense":
        geom = DenseGeometry(rng.random((5, 4)))
    else:
        geom = PointCloudGeometry(rng.random((5, 2)), rng.random((4, 2)))
    out = solve_lr_sinkhorn(LinearProblem(geom), 2)
    q, r, g = out.factors.q, out.factors.r, out.factors.g
    assert out.costs[-1] == np.sum(q * (geom.cost_matrix() @ (r / g)))


def test_zero_cost_falls_back_to_a_seeded_random_start():
    # eps of the guide solve is a fraction of the mean cost, here 0, so the
    # start comes from the seeded random fallback.
    prob = LinearProblem(DenseGeometry(np.zeros((4, 3))))
    out = solve_lr_sinkhorn(prob, 2, seed=4)
    assert out.converged
    factors = out.factors
    assert np.abs(factors.q.sum(axis=1) - prob.a).sum() <= 1e-6
    assert np.abs(factors.r.sum(axis=1) - prob.b).sum() <= 1e-6
    assert np.abs(factors.q.sum(axis=0) - factors.g).sum() <= 1e-6
    assert np.abs(factors.r.sum(axis=0) - factors.g).sum() <= 1e-6
    again = solve_lr_sinkhorn(prob, 2, seed=4).factors
    for name in ("q", "r", "g"):
        assert getattr(again, name).tobytes() == getattr(factors, name).tobytes()


def test_identical_inputs_give_bitwise_identical_outputs():
    rng = np.random.default_rng(2)
    prob = LinearProblem(DenseGeometry(rng.random((4, 4))))
    first = solve_lr_sinkhorn(prob, 2, seed=3)
    second = solve_lr_sinkhorn(prob, 2, seed=3)
    npt.assert_array_equal(first.factors.q, second.factors.q)
    npt.assert_array_equal(first.factors.r, second.factors.r)
    npt.assert_array_equal(first.factors.g, second.factors.g)
    npt.assert_array_equal(first.costs, second.costs)
    assert first.iterations == second.iterations


def test_rank_property_matches_the_inner_dimension():
    factors = LowRankFactors(np.full((3, 2), 0.5), np.full((4, 2), 0.5), np.ones(2))
    assert factors.rank == 2


def test_rank_bounds_are_enforced():
    prob = LinearProblem(DenseGeometry(np.ones((3, 2))))
    with pytest.raises(ValueError):
        solve_lr_sinkhorn(prob, 0)
    with pytest.raises(ValueError):
        solve_lr_sinkhorn(prob, 3)


def test_lr_coupling_rejects_nonpositive_inner_marginal():
    # A NaN g would give an all-NaN coupling and an infinite one an
    # all-zero coupling that has lost its mass.
    for g in (0.0, np.nan, np.inf):
        factors = LowRankFactors(np.ones((2, 1)), np.ones((2, 1)), np.array([g]))
        with pytest.raises(ValueError, match="positive and finite"):
            lr_coupling(factors)


def test_factor_shape_mismatch_is_rejected():
    with pytest.raises(ValueError):
        LowRankFactors(np.ones((3, 2)), np.ones((4, 1)), np.ones(2))


def _zero_weight_problem():
    rng = np.random.default_rng(3)
    geom = PointCloudGeometry(rng.random((5, 2)), rng.random((4, 2)))
    a = rng.random(5) + 0.2
    a[1] = 0.0
    b = rng.random(4) + 0.2
    b[2] = 0.0
    return LinearProblem(geom, a / a.sum(), b / b.sum())


@pytest.mark.parametrize("rank", [1, 4])
def test_scaling_projection_matches_the_log_domain(rank, log_domain):
    prob = _zero_weight_problem()
    out = solve_lr_sinkhorn(prob, rank)
    log_domain()
    ref = solve_lr_sinkhorn(prob, rank)
    assert out.iterations == ref.iterations
    assert out.converged == ref.converged
    npt.assert_allclose(out.costs, ref.costs, rtol=1e-12, atol=0)


def test_zero_target_weights_keep_zero_factor_rows():
    prob = _zero_weight_problem()
    out = solve_lr_sinkhorn(prob, 2)
    assert np.all(np.isfinite(out.costs))
    assert np.all(out.factors.q[1] == 0.0)
    assert np.all(out.factors.r[2] == 0.0)


def test_projection_out_of_the_normal_range_falls_back_to_the_log_domain():
    # Each kernel row spans more than float64's range, and the second
    # column sits 2,000 below every row's max, so K^T u underflows on
    # scalings while the log domain represents it.
    lk1 = np.array([[0.0, -2000.0], [-1.0, -2001.0], [0.5, -1999.5]])
    lk2 = np.array([[0.0, -2000.0], [0.3, -2000.0]])
    lk3 = np.log([0.5, 0.5])
    a = np.array([0.2, 0.3, 0.5])
    b = np.array([0.6, 0.4])
    with np.errstate(all="ignore"):
        scaling = lowrank._ScalingProducts(lk1, a), lowrank._ScalingProducts(lk2, b)
        log_hi = lowrank._LOG_MAX - np.log(lk3.size)
        assert lowrank._dykstra_sweeps(*scaling, lk3, log_hi) is None
        logs = lowrank._LogProducts(lk1, a), lowrank._LogProducts(lk2, b)
        want = lowrank._dykstra_sweeps(*logs, lk3)
    got = lowrank._dykstra(lk1, lk2, lk3, a, b)
    for x, y in zip(got, want):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_a_too_large_gamma_backs_off_without_warnings():
    # Overflow in the projection is what step backoff handles, so it
    # must not surface as a RuntimeWarning.
    rng = np.random.default_rng(0)
    geom = PointCloudGeometry(10 * rng.random((10, 2)), rng.random((10, 2)))
    out = solve_lr_sinkhorn(LinearProblem(geom), 2, gamma=1e3, max_iters=50)
    for name in ("q", "r", "g"):
        assert np.all(np.isfinite(getattr(out.factors, name)))


def _cloud_problem():
    rng = np.random.default_rng(0)
    return LinearProblem(PointCloudGeometry(rng.random((6, 2)), rng.random((5, 2))))


def test_no_acceptable_first_step_returns_the_start_unconverged():
    # Every halving of a 1e300 step still leaves a finite projection
    # residual far above the acceptance level, so the solve stops at its
    # first step with the projected start as its answer.
    out = solve_lr_sinkhorn(_cloud_problem(), 2, gamma=1e300, max_iters=5)
    assert out.iterations == 1
    assert out.converged is False
    assert out.costs.shape == (1,)
    for name in ("q", "r", "g"):
        assert np.all(np.isfinite(getattr(out.factors, name)))


def test_gamma_and_threshold_are_validated():
    prob = _cloud_problem()
    for gamma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            solve_lr_sinkhorn(prob, 2, gamma=gamma)
    for threshold in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="threshold must be positive"):
            solve_lr_sinkhorn(prob, 2, threshold=threshold)

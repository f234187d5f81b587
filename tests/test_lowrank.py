"""Rank-constrained solver: forced couplings, factor identities, descent."""

import functools
import logging
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from otkit import (
    DenseGeometry,
    DivergedError,
    LinearProblem,
    LowRankFactors,
    PointCloudGeometry,
    lowrank,
    lr_coupling,
    solve_lr_sinkhorn,
)
from otkit.geometry import _lse


def _dykstra(lk1, lk2, lk3, a, b, h=None, *, max_sweeps):
    """The projection by the log-domain Dykstra recursion, the reference.

    Alternating scalings with Dykstra correction terms, also flooring g
    at ``_G_FLOOR``. Columns of the returned factors match g exactly by
    construction; the sweeps run until the row-marginal residual is at
    most ``_PROJECTION_TOL`` or ``max_sweeps`` sweeps are spent. The
    corrections of the two averaged constraints cancel their own
    scalings, and the three corrections of g sum to lk3 minus g, so only
    the floor's correction is kept. Newton's start h is not used. Returns
    what ``lowrank._newton`` returns: the factor logs, the marginal
    residual and the column scalings' logs, the dual that gives them.
    """
    log_a, log_b = np.log(a), np.log(b)
    ls1, ls2 = _lse(lk1, axis=1), _lse(lk2, axis=1)
    lg, lq3 = lk3, np.zeros(lk3.size)
    log_floor = np.log(lowrank._G_FLOOR)
    for _ in range(max_sweeps):
        x = lg + lq3
        lg = np.maximum(log_floor, x)
        lq3 = x - lg
        lu1 = np.where(a > 0, log_a - ls1, -np.inf)
        lu2 = np.where(b > 0, log_b - ls2, -np.inf)
        lktu1 = _lse(lk1 + lu1[:, None], axis=0)
        lktu2 = _lse(lk2 + lu2[:, None], axis=0)
        lg = (lk3 - lq3 + lktu1 + lktu2) / 3.0
        lv1, lv2 = lg - lktu1, lg - lktu2
        ls1, ls2 = _lse(lk1 + lv1, axis=1), _lse(lk2 + lv2, axis=1)
        err = np.abs(np.exp(lu1 + ls1) - a).sum() + np.abs(np.exp(lu2 + ls2) - b).sum()
        if err <= lowrank._PROJECTION_TOL:
            break
    return lu1[:, None] + lk1 + lv1, lu2[:, None] + lk2 + lv2, lg, float(err), np.concatenate((lv1, lv2))


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
    for rank in (1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="rank must be an integer"):
            solve_lr_sinkhorn(prob, rank)
    assert solve_lr_sinkhorn(prob, np.int64(2)).factors.rank == 2


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


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_newton_projection_solves_match_the_log_domain(rank, log_domain, monkeypatch):
    prob = _zero_weight_problem()
    out = solve_lr_sinkhorn(prob, rank)
    log_domain()
    monkeypatch.setattr(lowrank, "_newton", functools.partial(_dykstra, max_sweeps=100))
    ref = solve_lr_sinkhorn(prob, rank)
    assert out.converged == ref.converged
    npt.assert_allclose(out.costs[-1], ref.costs[-1], rtol=1e-5, atol=0)


def test_zero_target_weights_keep_zero_factor_rows():
    prob = _zero_weight_problem()
    out = solve_lr_sinkhorn(prob, 2)
    assert np.all(np.isfinite(out.costs))
    assert np.all(out.factors.q[1] == 0.0)
    assert np.all(out.factors.r[2] == 0.0)


def _spy(monkeypatch, decline=()):
    """Records the arguments and result of every ``lowrank._newton`` call;
    the calls whose 0-based index is in ``decline`` return None instead."""
    calls = []
    original = lowrank._newton

    def spy(*args):
        result = None if len(calls) in decline else original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(lowrank, "_newton", spy)
    return calls


def _bench_problem(b_scale=1.0):
    # The 100-point, rank-5 instance of the small-solves benchmark.
    rng = np.random.default_rng([0, 101])
    geom = PointCloudGeometry(rng.random((100, 2)), rng.random((100, 2)))
    return LinearProblem(geom, None, np.full(100, b_scale / 100))


@pytest.mark.parametrize(
    "case",
    ["rank-1", "full-rank", "n-not-m", "zero-weight", "bench"],
)
def test_newton_projection_matches_the_dykstra_reference(case, monkeypatch):
    rng = np.random.default_rng(7)
    if case == "rank-1":
        prob, rank = _cloud_problem(), 1
    elif case == "full-rank":
        prob, rank = LinearProblem(PointCloudGeometry(rng.random((4, 2)), rng.random((4, 2)))), 4
    elif case == "n-not-m":
        prob, rank = LinearProblem(PointCloudGeometry(rng.random((7, 2)), rng.random((3, 2)))), 3
    elif case == "zero-weight":
        prob, rank = _zero_weight_problem(), 3
    else:
        prob, rank = _bench_problem(), 5
    calls = _spy(monkeypatch)
    solve_lr_sinkhorn(prob, rank, max_iters=3)
    for args, got in calls:
        # The reference converges linearly; given the sweeps, it reaches
        # the same tolerance.
        with np.errstate(all="ignore"):
            want = _dykstra(*args, max_sweeps=100_000)
        assert got is not None
        assert got[3] <= lowrank._PROJECTION_TOL and want[3] <= lowrank._PROJECTION_TOL
        for x, y in zip(got[:3], want[:3]):
            assert np.abs(np.exp(x) - np.exp(y)).sum() <= 1e-8


def test_singular_newton_system_takes_the_minimum_norm_step(monkeypatch):
    # Every factor row sits at a vertex, so the row softmaxes are flat in
    # h and the Newton system is singular; its minimum-norm step moves
    # only what Q, R and g depend on, and Newton does not decline.
    lk = np.log(0.5) + np.array([[0.0, -80.0], [-80.0, 0.0]])
    lk3 = np.array([-0.3, 0.8])
    a = np.array([0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lowrank._newton(lk, lk, lk3, a, a, np.zeros(4))
    assert got is not None
    assert got[3] <= lowrank._PROJECTION_TOL
    with np.errstate(all="ignore"):
        want = _dykstra(lk, lk, lk3, a, a, max_sweeps=100)
    for x, y in zip(got[:3], want[:3]):
        assert np.abs(np.exp(x) - np.exp(y)).sum() <= 1e-8


def test_a_declined_newton_projection_halves_the_step(monkeypatch):
    # The fourth step's first projection declines; the step is retried
    # from the same iterate and the same starting dual at half the size.
    rng = np.random.default_rng(0)
    prob = LinearProblem(PointCloudGeometry(rng.random((5, 2)), rng.random((4, 2))))
    calls = _spy(monkeypatch, decline={4})
    out = solve_lr_sinkhorn(prob, 3)
    declined = [k for k, (_, result) in enumerate(calls) if result is None]
    assert declined == [4]
    # Every other call's projection was accepted, so the one before the
    # decline made the iterate and the dual that both the step and its
    # retry start from.
    assert len(calls) == out.iterations + 2
    iterate, dual = calls[3][1][:3], calls[3][1][4]
    step, retry = calls[4][0], calls[5][0]
    for x, long, short in zip(iterate, step[:3], retry[:3]):
        npt.assert_allclose(x - short, 0.5 * (x - long), rtol=1e-12, atol=1e-15 * np.abs(x).max())
    assert step[5] is dual and retry[5] is dual
    assert out.converged
    assert out.iterations == 60


def test_a_warm_started_projection_matches_a_cold_started_one(monkeypatch):
    # Each projection starts from the last accepted projection's dual; the
    # dual it reaches gives the factors it would reach from h = 0.
    prob, rank = _bench_problem(), 5
    calls = _spy(monkeypatch)
    steps = []
    for name in ("solve", "lstsq"):
        original = getattr(np.linalg, name)

        def counting(*args, _original=original, **kwargs):
            steps.append(None)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    out = solve_lr_sinkhorn(prob, rank, threshold=1e-4)
    assert out.converged and out.iterations == 50
    assert np.all(calls[0][0][5] == 0.0)
    # Started from h = 0, the projections of this solve take 264 Newton steps.
    assert len(steps) <= 160
    for (args, got), (_, before) in zip(calls[1:], calls):
        assert args[5] is before[4]
        with np.errstate(all="ignore"):
            cold = lowrank._newton(*args[:5], np.zeros(2 * rank))
        assert got is not None and cold is not None
        for x, y in zip(got[:3], cold[:3]):
            assert np.abs(np.exp(x) - np.exp(y)).sum() <= 1e-8


def test_weight_sum_mismatch_makes_no_fallback(monkeypatch):
    # sum(b) - sum(a) is the dual gradient along its gauge direction, which
    # no step removes, so the stopping test must not count it.
    calls = _spy(monkeypatch)
    out = solve_lr_sinkhorn(_bench_problem(b_scale=1.0 + 5e-9), 5, threshold=1e-4)
    assert out.converged
    assert all(result is not None for _, result in calls)


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_small_clouds_converge_well_before_the_step_cap(seed):
    rng = np.random.default_rng(seed)
    prob = LinearProblem(PointCloudGeometry(rng.random((5, 2)), rng.random((4, 2))))
    out = solve_lr_sinkhorn(prob, 3)
    assert out.converged
    assert out.iterations <= 200


def test_near_vertex_full_rank_solve_converges_without_fallbacks(monkeypatch):
    # Its factors approach a vertex, where the Newton systems turn
    # singular; a decline there would halve every later step.
    rng = np.random.default_rng(3)
    prob = LinearProblem(PointCloudGeometry(rng.random((4, 2)), rng.random((4, 2))))
    calls = _spy(monkeypatch)
    out = solve_lr_sinkhorn(prob, 4, max_iters=3000)
    assert out.converged
    assert out.iterations <= 100
    assert all(result is not None for _, result in calls)


def test_a_too_large_gamma_backs_off_without_warnings():
    # Overflow in the projection is what step backoff handles, so it
    # must not surface as a RuntimeWarning.
    rng = np.random.default_rng(0)
    geom = PointCloudGeometry(10 * rng.random((10, 2)), rng.random((10, 2)))
    out = solve_lr_sinkhorn(LinearProblem(geom), 2, gamma=1e3, max_iters=50)
    for name in ("q", "r", "g"):
        assert np.all(np.isfinite(getattr(out.factors, name)))
    # Ten step sizes, down to gamma / 512, all decline: as documented, the
    # solve stops at the projected start.
    assert (out.iterations, out.converged, out.costs.shape) == (1, False, (1,))


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


def test_running_out_of_acceptable_steps_is_not_convergence(infeasible_after_first_step):
    # Every halving of the second step declines; the first accepted step
    # is the answer, unconverged.
    out = solve_lr_sinkhorn(_cloud_problem(), 2)
    assert out.iterations == 2
    assert out.converged is False
    assert out.costs.shape == (2,)
    lq, lr, lg = infeasible_after_first_step[-1][:3]
    for got, logs in zip((out.factors.q, out.factors.r, out.factors.g), (lq, lr, lg)):
        assert got.tobytes() == np.exp(logs).tobytes()


def test_a_start_newton_cannot_project_raises_at_iteration_zero(monkeypatch):
    # Without a feasible start there is no iterate to return.
    monkeypatch.setattr(lowrank, "_newton", lambda *args: None)
    with pytest.raises(DivergedError) as info:
        solve_lr_sinkhorn(_cloud_problem(), 2)
    assert info.value.iteration == 0


def test_gamma_and_threshold_are_validated():
    prob = _cloud_problem()
    for gamma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            solve_lr_sinkhorn(prob, 2, gamma=gamma)
    for threshold in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="threshold must be positive"):
            solve_lr_sinkhorn(prob, 2, threshold=threshold)

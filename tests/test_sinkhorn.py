"""Entropic solver: pinned examples, feasibility, duality, gradients."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otkit.geometry
from otkit import (
    DenseGeometry,
    DivergedError,
    EpsilonSchedule,
    GridGeometry,
    LinearProblem,
    PointCloudGeometry,
    QuadraticProblem,
    grad_points,
    grad_weights,
    reg_ot_cost,
    solve_gw,
    solve_sinkhorn,
    transport_matrix,
)


def two_point_problem():
    # Identity assignment is optimal: 0 -> 0.5 costs 0.25, 1 -> 2 costs 1.
    geom = PointCloudGeometry(np.array([[0.0], [1.0]]), np.array([[0.5], [2.0]]))
    return LinearProblem(geom), geom


# ---- pinned examples ----


def test_singleton_plan_and_cost():
    prob = LinearProblem(DenseGeometry(np.array([[5.0]])))
    out = solve_sinkhorn(prob, 1.0)
    npt.assert_allclose(transport_matrix(out, prob).matrix, [[1.0]], atol=1e-12)
    costs = reg_ot_cost(out, prob)
    npt.assert_allclose(costs.transport_cost, 5.0, atol=1e-9)
    npt.assert_allclose(costs.dual_objective, 5.0, atol=1e-9)


def test_two_point_identity_permutation():
    prob, geom = two_point_problem()
    out = solve_sinkhorn(prob, 1e-3 * geom.mean_cost())
    assert out.converged
    assert abs(reg_ot_cost(out, prob).transport_cost - 0.625) <= 1e-2
    plan = transport_matrix(out, prob).matrix
    assert plan[0, 1] + plan[1, 0] <= 1e-3


def test_self_matching_cost_vanishes():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    geom = PointCloudGeometry(x, x)
    prob = LinearProblem(geom)
    out = solve_sinkhorn(prob, 1e-3 * geom.mean_cost())
    assert reg_ot_cost(out, prob).transport_cost <= 1e-6
    plan = transport_matrix(out, prob).matrix
    npt.assert_array_equal(plan.argmax(axis=1), np.arange(4))
    npt.assert_allclose(plan, np.eye(4) / 4.0, atol=1e-6)


def test_large_eps_limit_is_the_independent_coupling():
    geom = PointCloudGeometry(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
    prob = LinearProblem(geom)
    out = solve_sinkhorn(prob, 1e3 * geom.mean_cost())
    plan = transport_matrix(out, prob).matrix
    npt.assert_allclose(plan, np.outer(prob.a, prob.b), atol=1e-3)


# ---- feasibility, duality, covariance ----


def test_marginals_within_threshold_at_convergence():
    rng = np.random.default_rng(8)
    geom = DenseGeometry(rng.random((5, 4)))
    a = rng.random(5) + 0.2
    a /= a.sum()
    b = rng.random(4) + 0.2
    b /= b.sum()
    prob = LinearProblem(geom, a, b)
    out = solve_sinkhorn(prob, 0.05 * geom.mean_cost(), threshold=1e-6, max_iters=10_000)
    assert out.converged
    plan = transport_matrix(out, prob)
    assert np.abs(plan.row_marginal() - a).sum() <= 1e-6
    assert np.abs(plan.col_marginal() - b).sum() <= 2e-6
    assert out.errors[-1] <= 1e-6


def test_dual_trace_is_nondecreasing():
    rng = np.random.default_rng(9)
    geom = DenseGeometry(rng.random((6, 6)))
    prob = LinearProblem(geom)
    out = solve_sinkhorn(prob, 0.01 * geom.mean_cost(), threshold=1e-8, max_iters=20_000)
    assert len(out.dual_trace) == len(out.errors)
    assert np.all(np.diff(out.dual_trace) >= -1e-9)


def test_scaling_costs_and_eps_rescales_the_value_only():
    rng = np.random.default_rng(10)
    cost = rng.random((4, 5))
    lam = 3.7
    prob = LinearProblem(DenseGeometry(cost))
    prob_scaled = LinearProblem(DenseGeometry(lam * cost))
    eps = 0.05 * cost.mean()
    out = solve_sinkhorn(prob, eps, threshold=1e-8, max_iters=20_000)
    out_scaled = solve_sinkhorn(prob_scaled, lam * eps, threshold=1e-8, max_iters=20_000)
    plan = transport_matrix(out, prob).matrix
    plan_scaled = transport_matrix(out_scaled, prob_scaled).matrix
    npt.assert_allclose(plan_scaled, plan, rtol=1e-9)
    npt.assert_allclose(
        reg_ot_cost(out_scaled, prob_scaled).transport_cost,
        lam * reg_ot_cost(out, prob).transport_cost,
        rtol=1e-9,
    )


def test_identical_inputs_give_bitwise_identical_outputs():
    rng = np.random.default_rng(11)
    geom = DenseGeometry(rng.random((5, 5)))
    prob = LinearProblem(geom)
    first = solve_sinkhorn(prob, 0.1)
    second = solve_sinkhorn(prob, 0.1)
    npt.assert_array_equal(first.f, second.f)
    npt.assert_array_equal(first.g, second.g)
    npt.assert_array_equal(first.errors, second.errors)
    npt.assert_array_equal(first.dual_trace, second.dual_trace)
    assert first.iterations == second.iterations


def test_epsilon_schedule_reaches_its_target():
    prob, geom = two_point_problem()
    target = 1e-3 * geom.mean_cost()
    sched = EpsilonSchedule(target, init_scale=100.0, decay=0.5)
    out = solve_sinkhorn(prob, sched, threshold=1e-6, max_iters=10_000)
    assert out.converged
    assert out.eps == target
    assert abs(reg_ot_cost(out, prob).transport_cost - 0.625) <= 1e-2


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 5), seed=st.integers(0, 10_000))
def test_random_problems_converge_feasibly(n, m, seed):
    rng = np.random.default_rng(seed)
    geom = DenseGeometry(rng.random((n, m)))
    a = rng.random(n) + 0.3
    a /= a.sum()
    b = rng.random(m) + 0.3
    b /= b.sum()
    prob = LinearProblem(geom, a, b)
    out = solve_sinkhorn(prob, 0.1 * geom.mean_cost() + 1e-3, threshold=1e-6, max_iters=10_000)
    assert out.converged
    plan = transport_matrix(out, prob)
    assert np.abs(plan.row_marginal() - a).sum() <= 1e-6
    assert np.abs(plan.col_marginal() - b).sum() <= 2e-6
    assert np.all(plan.matrix >= 0)
    assert np.all(np.diff(out.dual_trace) >= -1e-9)


# ---- gradients ----


def test_grad_weights_is_zero_mean_with_two_points():
    geom = PointCloudGeometry(np.array([[0.0], [3.0]]), np.array([[1.0], [2.0]]))
    prob = LinearProblem(geom)
    out = solve_sinkhorn(prob, 0.1 * geom.mean_cost(), threshold=1e-8, max_iters=20_000)
    grad = grad_weights(out, prob)
    assert grad[0] == -grad[1]


def test_grad_weights_matches_directional_finite_difference():
    rng = np.random.default_rng(100)
    x = rng.random((4, 2))
    y = rng.random((3, 2))
    geom = PointCloudGeometry(x, y)
    eps = 0.1 * geom.mean_cost()

    def value(a):
        prob = LinearProblem(geom, a, None)
        out = solve_sinkhorn(prob, eps, threshold=1e-8, max_iters=20_000)
        assert out.converged
        return reg_ot_cost(out, prob).dual_objective, out, prob

    a = np.full(4, 0.25)
    _, out, prob = value(a)
    grad = grad_weights(out, prob)
    delta = rng.standard_normal(4)
    delta -= delta.mean()
    delta /= np.abs(delta).sum()
    step = 1e-5
    fd = (value(a + step * delta)[0] - value(a - step * delta)[0]) / (2 * step)
    assert abs(grad @ delta - fd) <= 1e-4 * (1.0 + abs(fd))


def test_gradients_vanish_on_self_matching():
    x = np.array([[0.0], [1.0], [2.0]])
    geom = PointCloudGeometry(x, x)
    prob = LinearProblem(geom)
    out = solve_sinkhorn(prob, 1e-3 * geom.mean_cost(), threshold=1e-8, max_iters=20_000)
    npt.assert_allclose(grad_weights(out, prob), 0.0, atol=1e-6)
    npt.assert_allclose(grad_points(out, prob), 0.0, atol=1e-6)


def test_grad_points_singleton_closed_form():
    geom = PointCloudGeometry(np.array([[0.0]]), np.array([[3.0]]))
    prob = LinearProblem(geom)
    out = solve_sinkhorn(prob, 1.0)
    npt.assert_allclose(grad_points(out, prob), [[-6.0]], atol=1e-9)


def test_gradients_refuse_unconverged_output():
    prob, geom = two_point_problem()
    out = solve_sinkhorn(prob, 1e-3 * geom.mean_cost(), threshold=1e-15, max_iters=1)
    assert not out.converged
    with pytest.raises(ValueError):
        grad_weights(out, prob)
    with pytest.raises(ValueError):
        grad_points(out, prob)


def test_grad_points_requires_squared_euclidean_point_clouds():
    geom = DenseGeometry(np.array([[1.0, 2.0], [2.0, 1.0]]))
    prob = LinearProblem(geom)
    out = solve_sinkhorn(prob, 1.0)
    with pytest.raises(ValueError):
        grad_points(out, prob)
    cloud = PointCloudGeometry(np.ones((2, 2)), np.full((2, 2), 2.0), "cosine")
    prob_cos = LinearProblem(cloud)
    out_cos = solve_sinkhorn(prob_cos, 1.0)
    with pytest.raises(ValueError):
        grad_points(out_cos, prob_cos)


# ---- degenerate inputs and failure modes ----


def test_zero_weight_column_empties_the_plan_column():
    geom = DenseGeometry(np.array([[0.3, 0.7], [0.4, 0.6]]))
    prob = LinearProblem(geom, None, np.array([1.0, 0.0]))
    out = solve_sinkhorn(prob, 0.5)
    plan = transport_matrix(out, prob).matrix
    npt.assert_allclose(plan[:, 1], 0.0, atol=1e-12)
    npt.assert_allclose(plan[:, 0], prob.a, atol=1e-3)


def test_plan_reductions_refuse_potentials_of_another_problem():
    # Streamed row blocks would otherwise read only the first n of a longer f.
    prob, _ = two_point_problem()
    out = solve_sinkhorn(prob, 1.0)
    other = LinearProblem(PointCloudGeometry(np.array([[0.0]]), np.array([[0.5], [2.0]])))
    for reduce in (transport_matrix, reg_ot_cost, grad_points):
        with pytest.raises(ValueError, match="shape"):
            reduce(out, other)


def test_denormal_eps_diverges_with_iteration_index():
    cost = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 3.0]])
    prob = LinearProblem(DenseGeometry(cost), None, np.array([0.5, 0.5, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedError) as exc:
            solve_sinkhorn(prob, 1e-320, inner_iters=1)
    assert exc.value.iteration >= 1


@pytest.mark.parametrize(
    "a,b",
    [
        (np.array([0.5, 0.6]), None),
        (np.array([-0.1, 1.1]), None),
        (None, np.array([1.0])),
    ],
)
def test_linear_problem_rejects_invalid_weights(a, b):
    geom = DenseGeometry(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        LinearProblem(geom, a, b)


def test_solver_rejects_nonpositive_eps():
    prob = LinearProblem(DenseGeometry(np.ones((2, 2))))
    with pytest.raises(ValueError):
        solve_sinkhorn(prob, 0.0)
    with pytest.raises(ValueError):
        solve_sinkhorn(prob, 1.0, threshold=0.0)
    with pytest.raises(ValueError):
        solve_sinkhorn(prob, 1.0, max_iters=0)


# ---- kernel-scaling sweep against the log-domain reference ----


def count_lse_calls(monkeypatch) -> list:
    """Records every apply_lse_kernel call on the three backends."""
    calls = []
    for cls in (DenseGeometry, PointCloudGeometry, GridGeometry):
        original = cls.apply_lse_kernel

        def spy(self, *args, _original=original, **kwargs):
            calls.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "apply_lse_kernel", spy)
    return calls


def assert_potentials_close(p, ref, w):
    # Zero weights sit at -inf in both; elsewhere within 1e-12 of the scale.
    npt.assert_array_equal(p[w == 0], -np.inf)
    npt.assert_array_equal(ref[w == 0], -np.inf)
    scale = np.abs(ref[w > 0]).max()
    npt.assert_allclose(p[w > 0], ref[w > 0], rtol=0, atol=1e-12 * scale)


def sparse_weights(rng, size):
    w = rng.random(size) + 0.1
    w[rng.permutation(size)[: size // 4]] = 0.0
    return w / w.sum()


def fast_path_cases():
    """name -> (problem, eps), with eps at most 30 times below the cost range."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(30, 3)) + 0.5
    cases = {}
    for cost_fn in ("sqeucl", "eucl", "cosine"):
        geom = PointCloudGeometry(x, y, cost_fn, block_size=16)
        cases[f"cloud-{cost_fn}"] = (LinearProblem(geom), 0.1 * geom.mean_cost())
    # Negative costs, as Gromov-Wasserstein linearizations have.
    cases["dense-negative"] = (LinearProblem(DenseGeometry(rng.normal(size=(25, 35)))), 0.2)
    grid = GridGeometry([np.linspace(0, 1, 6), np.linspace(0, 1, 7)])
    cases["grid"] = (LinearProblem(grid, sparse_weights(rng, 42), None), 0.05)
    geom = PointCloudGeometry(x, y)
    cases["zero-weights"] = (
        LinearProblem(geom, sparse_weights(rng, 40), sparse_weights(rng, 30)),
        0.05 * geom.mean_cost(),
    )
    geom = PointCloudGeometry(x, y, "eucl")
    schedule = EpsilonSchedule(0.1 * geom.mean_cost(), init_scale=50.0, decay=0.6)
    cases["schedule"] = (LinearProblem(geom), schedule)
    return cases


@pytest.mark.parametrize("name", sorted(fast_path_cases()))
def test_kernel_scaling_matches_the_log_domain(name, monkeypatch):
    prob, eps = fast_path_cases()[name]
    calls = count_lse_calls(monkeypatch)
    fast = solve_sinkhorn(prob, eps, threshold=1e-9, max_iters=5000)
    assert fast.converged and calls == []
    monkeypatch.setattr(otkit.geometry, "DEFAULT_DENSE_CAP", 0)
    ref = solve_sinkhorn(prob, eps, threshold=1e-9, max_iters=5000)
    assert len(calls) > 0
    assert (fast.iterations, fast.converged) == (ref.iterations, ref.converged)
    shift, ref_shift = fast.f[prob.a > 0].mean(), ref.f[prob.a > 0].mean()
    assert_potentials_close(fast.f - shift, ref.f - ref_shift, prob.a)
    assert_potentials_close(fast.g + shift, ref.g + ref_shift, prob.b)
    npt.assert_allclose(fast.errors, ref.errors, rtol=0, atol=1e-12)


def test_gw_warm_started_inner_solves_match_the_log_domain(monkeypatch):
    rng = np.random.default_rng(22)
    x = rng.normal(size=(12, 2))
    y = x[rng.permutation(12)] @ np.array([[0.0, -1.0], [1.0, 0.0]])
    qp = QuadraticProblem(PointCloudGeometry(x, x), PointCloudGeometry(y, y))
    calls = count_lse_calls(monkeypatch)
    fast = solve_gw(qp, eps_rel=0.05)
    assert calls == []
    # GW itself materializes costs of the inner solves' size, so the
    # kernel is declined directly instead of through the cap.
    monkeypatch.setattr(otkit.geometry.Geometry, "_kernel_matrix", lambda self, eps, out=None: None)
    ref = solve_gw(qp, eps_rel=0.05)
    assert len(calls) > 0
    assert fast.outer_iterations == ref.outer_iterations >= 2
    npt.assert_allclose(fast.coupling.matrix, ref.coupling.matrix, rtol=0, atol=1e-12)
    npt.assert_allclose(fast.cost_trace, ref.cost_trace, rtol=1e-12)


def test_kernel_underflow_mid_run_continues_in_the_log_domain(monkeypatch):
    rng = np.random.default_rng(23)
    geom = PointCloudGeometry(rng.normal(size=(20, 2)), rng.normal(size=(25, 2)))
    prob = LinearProblem(geom)
    target = 0.1 * geom.mean_cost()
    eps = EpsilonSchedule(target, init_scale=4.0, decay=0.5)  # kernels at 4, 2, 1 x target
    original = otkit.geometry.Geometry._kernel_matrix
    builds = []

    def underflowing(self, e, out=None):
        kernel = original(self, e, out)
        builds.append(e)
        if len(builds) == 3:
            kernel[0] = 0.0  # row 0 underflows once eps reaches its target
        return kernel

    monkeypatch.setattr(otkit.geometry.Geometry, "_kernel_matrix", underflowing)
    calls = count_lse_calls(monkeypatch)
    out = solve_sinkhorn(prob, eps, threshold=1e-9, max_iters=5000)
    assert builds == [4 * target, 2 * target, target]
    assert calls and set(calls) == {"PointCloudGeometry"}
    assert np.all(np.isfinite(out.f)) and np.all(np.isfinite(out.g))
    monkeypatch.setattr(otkit.geometry, "DEFAULT_DENSE_CAP", 0)
    ref = solve_sinkhorn(prob, eps, threshold=1e-9, max_iters=5000)
    assert (out.iterations, out.converged) == (ref.iterations, ref.converged)
    assert_potentials_close(out.f, ref.f, prob.a)
    assert_potentials_close(out.g, ref.g, prob.b)
    npt.assert_allclose(out.errors, ref.errors, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    seed=st.integers(0, 10_000),
    decay=st.sampled_from([0.3, 0.6, 0.9]),
    cost_fn=st.sampled_from(["sqeucl", "eucl", "cosine"]),
)
def test_eps_decaying_across_the_kernel_limit_never_returns_nan(n, m, seed, decay, cost_fn):
    # eps falls from 1 to max C / 1e6, so the sweeps start on the kernel
    # and end in the log domain.
    rng = np.random.default_rng(seed)
    geom = PointCloudGeometry(rng.normal(size=(n, 2)), rng.normal(size=(m, 2)), cost_fn)
    a = rng.random(n) * (rng.random(n) < 0.7)
    a[rng.integers(n)] += 0.5
    b = rng.random(m) * (rng.random(m) < 0.7)
    b[rng.integers(m)] += 0.5
    prob = LinearProblem(geom, a / a.sum(), b / b.sum())
    target = geom.cost_matrix().max() / 1e6
    eps = EpsilonSchedule(target, init_scale=max(1.0 / target, 1.0), decay=decay)
    try:
        out = solve_sinkhorn(prob, eps, threshold=1e-6, max_iters=300)
    except DivergedError:
        return
    assert np.all(np.isfinite(out.f[prob.a > 0])) and np.all(np.isfinite(out.g[prob.b > 0]))

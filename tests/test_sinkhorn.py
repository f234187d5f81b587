"""Entropic solver: pinned examples, feasibility, duality, gradients."""

import functools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otkit.geometry
import otkit.quadratic
import otkit.sinkhorn
from otkit import (
    DenseGeometry,
    DivergedError,
    EpsilonSchedule,
    GridGeometry,
    LinearProblem,
    PointCloudGeometry,
    QuadraticProblem,
    SoftSortSpec,
    grad_points,
    grad_weights,
    reg_ot_cost,
    solve_gw,
    solve_lr_sinkhorn,
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


def test_weight_sum_error_reads_a_plain_number():
    geom = DenseGeometry(np.zeros((2, 2)))
    with pytest.raises(ValueError) as info:
        LinearProblem(geom, np.array([0.3, 0.3]))
    assert str(info.value) == "a must sum to 1, got 0.6"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda prob, qp: EpsilonSchedule(np.float64(np.inf)), "target must be positive and finite, got inf"),
        (lambda prob, qp: EpsilonSchedule(1.0, np.float64(0.5)), "init_scale must be finite and >= 1, got 0.5"),
        (lambda prob, qp: solve_lr_sinkhorn(prob, 1, gamma=np.float64(np.inf)),
         "gamma must be positive and finite, got inf"),
        (lambda prob, qp: DenseGeometry(np.zeros((2, 2)), np.float64(np.nan)),
         "epsilon_default must be positive and finite, got nan"),
        (lambda prob, qp: solve_gw(qp, eps=np.float64(-1.0)), "eps must be positive and finite, got -1.0"),
        (lambda prob, qp: solve_gw(qp, eps_rel=np.float64(0.0)), "eps_rel must be positive and finite, got 0.0"),
        (lambda prob, qp: SoftSortSpec(eps=np.float64(np.inf)), "eps must be positive and finite, got inf"),
    ],
    ids=["schedule-target", "schedule-init-scale", "lr-gamma", "epsilon-default", "gw-eps", "gw-eps-rel",
         "softsort-eps"],
)
def test_numpy_scalar_inputs_are_echoed_as_plain_numbers(call, message):
    prob, _ = two_point_problem()
    points = np.array([[0.0], [1.0]])
    qp = QuadraticProblem(PointCloudGeometry(points, points), PointCloudGeometry(points, points))
    with pytest.raises(ValueError) as info:
        call(prob, qp)
    assert str(info.value) == message


def test_solver_rejects_nonpositive_eps():
    prob = LinearProblem(DenseGeometry(np.ones((2, 2))))
    with pytest.raises(ValueError):
        solve_sinkhorn(prob, 0.0)
    for eps in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="eps must be positive"):
            solve_sinkhorn(prob, eps)
    with pytest.raises(ValueError):
        solve_sinkhorn(prob, 1.0, threshold=0.0)
    with pytest.raises(ValueError):
        solve_sinkhorn(prob, 1.0, max_iters=0)


# ---- kernel-scaling sweep against the log-domain reference ----


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


# Below every "streamed-" case's size: those cases run with the dense cap
# patched to it, so their clouds stream the kernel from cost blocks.
STREAMED_CAP = 100


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
    # A constant offset puts max|C|/eps past the kernel limit, but not
    # half the cost range over eps.
    cases["dense-offset"] = (LinearProblem(DenseGeometry(1000.0 + 30.0 * rng.random((25, 35)))), 2.0)
    # Grids run on per-axis kernels at every size: above the dense cap, with
    # asymmetric per-axis costs ("cols" contracts the transposed factors),
    # and on three axes.
    big = GridGeometry([np.linspace(0, 1, 48), np.linspace(0, 1, 45)])
    assert big.shape[0] * big.shape[1] > otkit.geometry.DEFAULT_DENSE_CAP
    cases["grid-above-cap"] = (LinearProblem(big, sparse_weights(rng, big.shape[0]), None), 0.05)
    asym = GridGeometry([np.arange(5.0), np.arange(7.0)], [rng.random((5, 5)), 2.0 * rng.random((7, 7))])
    cases["grid-asymmetric"] = (LinearProblem(asym, sparse_weights(rng, 35), sparse_weights(rng, 35)), 0.1)
    cube = GridGeometry([np.linspace(0, 1, 4), np.linspace(0, 1, 5), np.linspace(0, 1, 3)])
    cases["grid-3-axes"] = (LinearProblem(cube, None, sparse_weights(rng, 60)), 0.05)
    # Clouds above the cap, in blocks of 16 rows with a shorter last block.
    for cost_fn in ("sqeucl", "eucl", "cosine"):
        geom = PointCloudGeometry(x, y, cost_fn, block_size=16)
        cases[f"streamed-{cost_fn}"] = (LinearProblem(geom), 0.1 * geom.mean_cost())
    geom = PointCloudGeometry(x, y, block_size=16)
    cases["streamed-zero-weights"] = (
        LinearProblem(geom, sparse_weights(rng, 40), sparse_weights(rng, 30)),
        0.05 * geom.mean_cost(),
    )
    geom = PointCloudGeometry(x, y, "eucl", block_size=16)
    schedule = EpsilonSchedule(0.1 * geom.mean_cost(), init_scale=50.0, decay=0.6)
    cases["streamed-schedule"] = (LinearProblem(geom), schedule)
    # A dense cost above the cap streams its kernel from copied cost blocks.
    geom = DenseGeometry(rng.normal(size=(25, 35)))
    geom.block_size = 16
    cases["streamed-dense-negative"] = (LinearProblem(geom), 0.2)
    # Solves so small that call overhead is all their time, with zero
    # weights on both sides of the 3 x 2 one.
    rng = np.random.default_rng(29)
    one, row = PointCloudGeometry(x[:1], y[:1]), PointCloudGeometry(x[:1], y[:5])
    cases["tiny-1x1"] = (LinearProblem(one), 0.1 * one.mean_cost())
    cases["tiny-1x5"] = (LinearProblem(row, None, sparse_weights(rng, 5)), 0.05 * row.mean_cost())
    dense = DenseGeometry(rng.random((3, 2)))
    cases["tiny-3x2-zero-weights"] = (LinearProblem(dense, np.array([0.3, 0.0, 0.7]), np.array([0.0, 1.0])), 0.05)
    return cases


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(fast_path_cases()))
def test_kernel_scaling_matches_the_log_domain(name, monkeypatch, lse_calls, log_domain):
    prob, eps = fast_path_cases()[name]
    if name.startswith("streamed-"):
        assert prob.geom.shape[0] * prob.geom.shape[1] > STREAMED_CAP
        monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", STREAMED_CAP)
    calls = lse_calls
    fast = solve_sinkhorn(prob, eps, threshold=1e-9, max_iters=5000)
    assert fast.converged and calls == []
    log_domain()
    ref = solve_sinkhorn(prob, eps, threshold=1e-9, max_iters=5000)
    assert len(calls) > 0
    assert_same_solve(fast, ref, prob)


def assert_same_solve(fast, ref, prob):
    """A kernel-path solve against its log-domain reference."""
    assert (fast.iterations, fast.converged) == (ref.iterations, ref.converged)
    shift, ref_shift = fast.f[prob.a > 0].mean(), ref.f[prob.a > 0].mean()
    assert_potentials_close(fast.f - shift, ref.f - ref_shift, prob.a)
    assert_potentials_close(fast.g + shift, ref.g + ref_shift, prob.b)
    npt.assert_allclose(fast.errors, ref.errors, rtol=0, atol=1e-12)
    # The last error is the returned pair's, zero-weight rows included.
    assert abs(fast.errors[-1] - row_error(fast, prob)) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_solve_warm_started_from_a_gw_inner_g_matches_the_log_domain(monkeypatch, lse_calls, log_domain):
    # The last inner solve of a GW run, with the g its predecessor left,
    # solved again from that g on scalings and in the log domain.
    rng = np.random.default_rng(30)
    x = rng.normal(size=(10, 2))
    y = x[rng.permutation(10)] @ np.array([[0.0, -1.0], [1.0, 0.0]])
    inner = []
    original = otkit.quadratic._sinkhorn_iterations

    def record(prob, eps, *args):
        inner.append((prob, eps, args))
        return original(prob, eps, *args)

    monkeypatch.setattr(otkit.quadratic, "_sinkhorn_iterations", record)
    solve_gw(QuadraticProblem(PointCloudGeometry(x, x), PointCloudGeometry(y, y)), eps_rel=0.05)
    assert len(inner) >= 2
    prob, eps, (threshold, max_iters, inner_iters, g_prev) = inner[-1]
    assert g_prev is not None and np.all(np.isfinite(g_prev))
    lse_calls.clear()
    fast = original(prob, eps, threshold, max_iters, inner_iters, g_prev)
    assert fast.converged and lse_calls == []
    log_domain()
    ref = original(prob, eps, threshold, max_iters, inner_iters, g_prev)
    assert len(lse_calls) > 0
    assert_same_solve(fast, ref, prob)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_schedule_crossing_the_kernel_limit_continues_in_the_log_domain(lse_calls, log_domain):
    # eps falls from 100 times the target, where half the cost range over
    # eps is far inside the kernel limit, to the target, where it is past
    # it: the first sweeps run on scalings, the rest in the log domain.
    rng = np.random.default_rng(31)
    geom = PointCloudGeometry(rng.normal(size=(6, 2)), rng.normal(size=(4, 2)))
    prob = LinearProblem(geom, sparse_weights(rng, 6), None)
    lo, hi = geom._cost_range()
    target = 0.5 * (hi - lo) / (3.0 * otkit.geometry._KERNEL_EXPONENT_LIMIT)
    schedule = EpsilonSchedule(target, init_scale=100.0, decay=0.7)
    fast = solve_sinkhorn(prob, schedule, threshold=1e-9, max_iters=5000)
    on_kernel = 2 * (fast.iterations + 1) - len(lse_calls)
    assert fast.converged and 0 < on_kernel < 2 * fast.iterations
    log_domain()
    lse_calls.clear()
    ref = solve_sinkhorn(prob, schedule, threshold=1e-9, max_iters=5000)
    assert len(lse_calls) == 2 * (ref.iterations + 1)
    assert_same_solve(fast, ref, prob)


def row_error(out, prob):
    """L1 row-marginal error of the returned (f, g), reduced over plan blocks."""
    row = np.concatenate([plan.sum(axis=1) for *_, plan in prob.geom._plan_blocks(out.f, out.g, out.eps)])
    return np.abs(row - prob.a).sum()


def test_gw_warm_started_inner_solves_match_the_log_domain(lse_calls, log_domain):
    rng = np.random.default_rng(22)
    x = rng.normal(size=(12, 2))
    y = x[rng.permutation(12)] @ np.array([[0.0, -1.0], [1.0, 0.0]])
    qp = QuadraticProblem(PointCloudGeometry(x, x), PointCloudGeometry(y, y))
    calls = lse_calls
    fast = solve_gw(qp, eps_rel=0.05)
    assert calls == []
    log_domain()
    ref = solve_gw(qp, eps_rel=0.05)
    assert len(calls) > 0
    assert fast.outer_iterations == ref.outer_iterations >= 2
    npt.assert_allclose(fast.coupling.matrix, ref.coupling.matrix, rtol=0, atol=1e-12)
    npt.assert_allclose(fast.cost_trace, ref.cost_trace, rtol=1e-12)


def test_gw_on_an_80_point_rotated_copy_stays_on_the_kernel(lse_calls):
    # At the default eps_rel, max|C|/eps of the later linearized costs is
    # past the kernel limit; half their range over eps is not.
    rng = np.random.default_rng(24)
    x = rng.random((80, 2)) * 2.0
    angle = 0.7
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    y = np.concatenate([x @ rot.T, np.zeros((80, 1))], axis=1)[rng.permutation(80)]
    out = solve_gw(QuadraticProblem(PointCloudGeometry(x, x), PointCloudGeometry(y, y)))
    assert out.outer_iterations >= 3
    assert lse_calls == []


def watched(kernel, before_product):
    """A view of ``kernel`` that calls ``before_product()`` before each
    product taken with it, inline products included."""

    class Watched(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            if ufunc is np.matmul:
                before_product()
            inputs = tuple(np.asarray(x) for x in inputs)
            if out is not None:
                kwargs["out"] = tuple(np.asarray(x) for x in out)
            return getattr(ufunc, method)(*inputs, **kwargs)

    return kernel.view(Watched)


def test_kernel_underflow_mid_run_continues_in_the_log_domain(monkeypatch, lse_calls, log_domain):
    assert_kernel_row_set_mid_run_continues_in_the_log_domain(monkeypatch, lse_calls, log_domain, 0.0)


def test_kernel_overflow_mid_run_continues_in_the_log_domain(monkeypatch, lse_calls, log_domain):
    # The range check's max: a kernel row of float64's largest value makes
    # the first product inf.
    assert_kernel_row_set_mid_run_continues_in_the_log_domain(monkeypatch, lse_calls, log_domain, np.finfo(float).max)


@pytest.mark.parametrize("entry", [0.0, np.finfo(float).max])
def test_a_kernel_row_set_inside_a_run_continues_in_the_log_domain(entry, monkeypatch, lse_calls, log_domain):
    # eps reaches its target at sweep 3, which starts a check-free run of
    # sweeps 3 to 10; the row is set before sweep 6's first product.
    assert_kernel_row_set_mid_run_continues_in_the_log_domain(monkeypatch, lse_calls, log_domain, entry, sweep=6)


def assert_kernel_row_set_mid_run_continues_in_the_log_domain(monkeypatch, lse_calls, log_domain, entry, sweep=3):
    rng = np.random.default_rng(23)
    geom = PointCloudGeometry(rng.normal(size=(20, 2)), rng.normal(size=(25, 2)))
    prob = LinearProblem(geom)
    target = 0.1 * geom.mean_cost()
    eps = EpsilonSchedule(target, init_scale=4.0, decay=0.5)  # kernels at 4, 2, 1 x target
    original = otkit.geometry.Geometry._gibbs
    builds = []
    products = []

    def faulty(self, e, old):
        gibbs = original(self, e, old)
        builds.append(e)
        if len(builds) == 3:
            kernel = gibbs[0][0]
            if sweep == 3:
                kernel[0] = entry  # row 0 leaves the range once eps reaches its target
            else:
                # Row 0 is set before the given sweep's first product, two
                # products per sweep from sweep 3, the target's first.
                def plant():
                    products.append(None)
                    if len(products) == 2 * (sweep - 3) + 1:
                        kernel[0] = entry

                gibbs = (watched(kernel, plant),), *gibbs[1:]
        return gibbs

    monkeypatch.setattr(otkit.geometry.Geometry, "_gibbs", faulty)
    calls = lse_calls
    out = solve_sinkhorn(prob, eps, threshold=1e-9, max_iters=5000)
    assert builds == [4 * target, 2 * target, target]
    # The log domain makes two log-sum-exps per sweep, from that sweep to
    # the one the last check reads.
    assert calls == ["PointCloudGeometry"] * 2 * (out.iterations + 2 - sweep)
    assert np.all(np.isfinite(out.f)) and np.all(np.isfinite(out.g))
    log_domain()
    ref = solve_sinkhorn(prob, eps, threshold=1e-9, max_iters=5000)
    assert (out.iterations, out.converged) == (ref.iterations, ref.converged)
    assert_potentials_close(out.f, ref.f, prob.a)
    assert_potentials_close(out.g, ref.g, prob.b)
    npt.assert_allclose(out.errors, ref.errors, rtol=0, atol=1e-12)


def test_streamed_kernel_underflow_mid_run_continues_in_the_log_domain(monkeypatch, lse_calls, log_domain):
    monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", STREAMED_CAP)
    rng = np.random.default_rng(23)
    geom = PointCloudGeometry(rng.normal(size=(20, 2)), rng.normal(size=(25, 2)), block_size=8)
    prob = LinearProblem(geom)
    target = 0.1 * geom.mean_cost()
    eps = EpsilonSchedule(target, init_scale=4.0, decay=0.5)  # kernels at 4, 2, 1 x target
    original = otkit.geometry.Geometry._streamed_blocks
    streamed = []

    def underflowing(self, shift, e, transpose=False):
        streamed.append(e)
        for start, stop, kernel in original(self, shift, e, transpose):
            if e == target and start == 0:
                kernel[0] = 0.0  # row 0 underflows once eps reaches its target
            yield start, stop, kernel

    monkeypatch.setattr(otkit.geometry.Geometry, "_streamed_blocks", underflowing)
    calls = lse_calls
    out = solve_sinkhorn(prob, eps, threshold=1e-9, max_iters=5000)
    assert streamed == [4 * target, 2 * target, target]
    assert calls and set(calls) == {"PointCloudGeometry"}
    assert np.all(np.isfinite(out.f)) and np.all(np.isfinite(out.g))
    log_domain()
    ref = solve_sinkhorn(prob, eps, threshold=1e-9, max_iters=5000)
    assert (out.iterations, out.converged) == (ref.iterations, ref.converged)
    assert_potentials_close(out.f, ref.f, prob.a)
    assert_potentials_close(out.g, ref.g, prob.b)
    npt.assert_allclose(out.errors, ref.errors, rtol=0, atol=1e-12)


def counted_sweeps(monkeypatch, runs=None) -> list:
    """Makes Sinkhorn's kernel step record each sweep, one entry for each
    sweep of a run, and each forming of the potentials (``potentials``),
    in order; and in ``runs``, if given, the number of sweeps each call
    to ``sweep`` asks for."""
    calls = []

    class Counting(otkit.geometry._KernelStep):
        def sweep(self, *args, count=1, **kwargs):
            calls.extend(["sweep"] * count)
            if runs is not None:
                runs.append(count)
            return super().sweep(*args, count=count, **kwargs)

        def potentials(self):
            calls.append("potentials")
            return super().potentials()

    monkeypatch.setattr(otkit.sinkhorn, "_KernelStep", Counting)
    return calls


def counted_kernel_products(monkeypatch) -> list:
    """Makes every n x m kernel that ``Geometry._gibbs`` builds record
    each product taken with it."""
    products = []
    original = otkit.geometry.Geometry._gibbs

    def counting(self, eps, old):
        gibbs = original(self, eps, old)
        if gibbs and len(gibbs[0]) == 1:
            gibbs = (watched(gibbs[0][0], lambda: products.append("matmul")),), *gibbs[1:]
        return gibbs

    monkeypatch.setattr(otkit.geometry.Geometry, "_gibbs", counting)
    return products


@pytest.mark.parametrize(
    "name, inline",
    [("cloud-sqeucl", True), ("streamed-sqeucl", False), ("grid", False), ("dense-stacked", True), ("log-domain", None)],
)
def test_a_run_of_sweeps_is_bitwise_one_sweep_per_call(name, inline, monkeypatch, log_domain):
    # Every product step: inline on the n x m kernel, stacked problems
    # too; the geometry's _sweep on a streamed cloud and a grid; the log
    # domain. Seven sweeps in one call and one per call leave the same
    # iterate, products and check row.
    prob, eps = fast_path_cases()[{"dense-stacked": "dense-negative", "log-domain": "cloud-sqeucl"}.get(name, name)]
    a, b = prob.a, prob.b
    if name.startswith("streamed-"):
        monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", STREAMED_CAP)
    if name == "dense-stacked":
        rng = np.random.default_rng(32)
        a = np.stack([sparse_weights(rng, a.size) for _ in range(3)])
        b = np.stack([sparse_weights(rng, b.size) for _ in range(3)])
    if name == "log-domain":
        log_domain()
    with np.errstate(all="ignore"):
        steps = [otkit.geometry._KernelStep(prob.geom, a, np.zeros(b.shape), b) for _ in range(2)]
        steps[0].sweep(eps, 1, count=7)
        for t in range(1, 8):
            steps[1].sweep(eps, t)
        rows = [step.sweep(eps, 8, check=True) for step in steps]
        potentials = [step.potentials() for step in steps]
    run, one = steps
    if inline is None:
        assert run.gibbs is None and one.gibbs is None
        npt.assert_array_equal(run.back, one.back)
    else:
        assert isinstance(run.product, functools.partial) != inline
        npt.assert_array_equal(run.products, one.products)
    npt.assert_array_equal(rows[0], rows[1])
    for p, q in zip(*potentials):
        npt.assert_array_equal(p, q)


def test_a_solve_makes_one_sweep_per_iteration_and_one_more_for_its_last_check(monkeypatch, lse_calls, log_domain):
    # A check reads the next sweep's first product, so a solve returned
    # after T sweeps makes T + 1 and no other product: on the kernel, two
    # products each, made inline by runs of sweeps and checks alike; in
    # the log domain, two log-sum-exps. The potentials are formed once per
    # check, just before its sweep, and not at the end of a converged
    # solve. The sweeps between two checks are one call.
    runs = []
    calls = counted_sweeps(monkeypatch, runs)
    products = counted_kernel_products(monkeypatch)
    for name in ("_sweep", "_contract"):
        original = getattr(otkit.geometry.Geometry, name)

        def counting(self, *args, _name=name, _original=original):
            products.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(otkit.geometry.Geometry, name, counting)
    prob, eps = fast_path_cases()["cloud-sqeucl"]
    assert not callable(otkit.geometry._KernelStep(prob.geom, prob.a, np.zeros(prob.geom.shape[1]), prob.b))
    for force, logged in ((lambda: None, False), (log_domain, True)):
        force()
        calls.clear()
        runs.clear()
        products.clear()
        lse_calls.clear()
        out = solve_sinkhorn(prob, eps, threshold=1e-9, max_iters=5000, inner_iters=10)
        assert out.converged and out.iterations >= 30 and out.iterations % 10 == 0
        sweeps = out.iterations + 1
        checks = ["sweep"] * 9 + ["potentials", "sweep"]
        assert calls == ["sweep"] + checks * (out.iterations // 10)
        assert runs == [10] + [1, 9] * (out.iterations // 10 - 1) + [1]
        assert calls.count("sweep") == sweeps and len(out.errors) == out.iterations // 10
        assert products == ([] if logged else ["matmul"] * 2 * sweeps)
        assert lse_calls == (["PointCloudGeometry"] * 2 * sweeps if logged else [])


def test_stops_at_max_iters_check_the_returned_pair_unless_warming_up(monkeypatch):
    calls = counted_sweeps(monkeypatch)
    rng = np.random.default_rng(27)
    geom = PointCloudGeometry(rng.normal(size=(20, 2)), rng.normal(size=(25, 2)))
    prob = LinearProblem(geom, sparse_weights(rng, 20), None)
    target = 0.02 * geom.mean_cost()
    # Checks after sweeps 10, 20, 30 and 37, the last read from a 38th.
    out = solve_sinkhorn(prob, target, threshold=1e-12, max_iters=37, inner_iters=10)
    assert (out.iterations, out.converged, len(out.errors), len(out.dual_trace)) == (37, False, 4, 4)
    assert abs(out.errors[-1] - row_error(out, prob)) <= 1e-12
    assert calls.count("sweep") == 38 and calls.count("potentials") == 4
    # A schedule still above its target at max_iters checks nothing, so
    # it makes no sweep beyond the cap. Its potentials are formed at each
    # new eps, from the second sweep on, and at the end.
    calls.clear()
    out = solve_sinkhorn(prob, EpsilonSchedule(target, init_scale=50.0, decay=0.9), max_iters=20, inner_iters=10)
    assert (out.iterations, out.converged, len(out.errors), len(out.dual_trace)) == (20, False, 0, 0)
    assert calls.count("sweep") == 20
    assert calls == ["sweep"] + ["sweep", "potentials"] * 19 + ["potentials"]


@pytest.mark.parametrize("kind", ["cloud", "dense"])
def test_streamed_solve_and_cost_never_hold_a_cost_matrix(kind, monkeypatch, lse_calls, traced_peak):
    monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", 10_000)
    rng = np.random.default_rng(26)
    n, m = 600, 600
    geom = PointCloudGeometry(rng.random((n, 2)), rng.random((m, 2)), block_size=32)
    if kind == "dense":
        # The user's matrix exists before tracing; the solve must neither
        # hold another one nor write to it.
        matrix = geom.cost_matrix(n * m)
        geom = DenseGeometry(matrix)
        geom.block_size = 32
        original = matrix.copy()
    prob = LinearProblem(geom)
    eps = 0.1 * geom.mean_cost()

    def solve_and_cost():
        out = solve_sinkhorn(prob, eps)
        return out, reg_ot_cost(out, prob)

    (out, cost), peak = traced_peak(solve_and_cost)
    assert out.converged and np.isfinite(cost.transport_cost) and lse_calls == []
    assert peak < n * m * 8 / 4
    if kind == "dense":
        npt.assert_array_equal(matrix, original)
        for axis in ("rows", "cols"):
            geom.apply_kernel(np.ones(n), eps, axis)
        npt.assert_array_equal(matrix, original)


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

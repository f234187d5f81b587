"""Quadratic-matching solver: objective oracles, linearization, recovery."""

import numpy as np
import numpy.testing as npt
import pytest

from otkit import (
    DenseGeometry,
    DivergedError,
    PointCloudGeometry,
    QuadraticProblem,
    finite_diff,
    gw_linearized_cost,
    gw_objective,
    solve_gw,
)


def stretched_pair():
    # Two 2-point spaces whose pairwise distances differ by a factor 2.
    cx = np.array([[0.0, 1.0], [1.0, 0.0]])
    cy = np.array([[0.0, 2.0], [2.0, 0.0]])
    return QuadraticProblem(DenseGeometry(cx), DenseGeometry(cy))


def random_symmetric_problem(rng, n, m):
    sx = rng.random((n, n))
    sx = 0.5 * (sx + sx.T)
    np.fill_diagonal(sx, 0.0)
    sy = rng.random((m, m))
    sy = 0.5 * (sy + sy.T)
    np.fill_diagonal(sy, 0.0)
    a = rng.random(n) + 0.2
    a /= a.sum()
    b = rng.random(m) + 0.2
    b /= b.sum()
    return QuadraticProblem(DenseGeometry(sx), DenseGeometry(sy), a, b)


# ---- objective ----


def test_objective_is_zero_for_matched_identical_spaces():
    cx = np.array([[0.0, 1.0], [1.0, 0.0]])
    qp = QuadraticProblem(DenseGeometry(cx), DenseGeometry(cx))
    plan = np.eye(2) / 2.0
    assert gw_objective(qp, plan, method="expansion") == pytest.approx(0.0, abs=1e-15)
    assert gw_objective(qp, plan, method="literal") == pytest.approx(0.0, abs=1e-15)


def test_objective_at_the_uniform_plan():
    qp = stretched_pair()
    plan = np.full((2, 2), 0.25)
    assert gw_objective(qp, plan, method="literal") == pytest.approx(1.5, abs=1e-12)
    assert gw_objective(qp, plan, method="expansion") == pytest.approx(1.5, abs=1e-12)


def test_objective_at_the_diagonal_plan():
    qp = stretched_pair()
    plan = np.eye(2) / 2.0
    assert gw_objective(qp, plan, method="literal") == pytest.approx(0.5, abs=1e-12)
    assert gw_objective(qp, plan, method="expansion") == pytest.approx(0.5, abs=1e-12)


def test_expansion_equals_the_literal_quartic_sum():
    rng = np.random.default_rng(20)
    for _ in range(5):
        qp = random_symmetric_problem(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        plan = np.outer(qp.a, qp.b)
        expansion = gw_objective(qp, plan, method="expansion")
        literal = gw_objective(qp, plan, method="literal")
        assert abs(expansion - literal) <= 1e-9 * (1.0 + abs(literal))


def test_literal_mode_is_capped_at_small_sizes():
    rng = np.random.default_rng(21)
    qp = random_symmetric_problem(rng, 9, 3)
    plan = np.outer(qp.a, qp.b)
    gw_objective(qp, plan, method="expansion")
    with pytest.raises(ValueError):
        gw_objective(qp, plan, method="literal")


def test_objective_rejects_unknown_method():
    qp = stretched_pair()
    with pytest.raises(ValueError):
        gw_objective(qp, np.full((2, 2), 0.25), method="sampled")


# ---- linearized cost ----


def test_linearized_cost_of_zero_spaces_is_zero():
    qp = QuadraticProblem(DenseGeometry(np.zeros((2, 2))), DenseGeometry(np.zeros((3, 3))))
    npt.assert_array_equal(gw_linearized_cost(qp, np.full((2, 3), 1.0 / 6.0)), np.zeros((2, 3)))


def test_linearized_cost_is_half_the_objective_gradient():
    qp = stretched_pair()
    plan = np.full((2, 2), 0.25)
    surrogate = gw_linearized_cost(qp, plan)
    grad = finite_diff(lambda p: gw_objective(qp, p, method="literal"), plan, step=1e-4)
    npt.assert_allclose(surrogate, grad / 2.0, atol=1e-10)


def test_identical_spaces_keep_the_diagonal_plan_as_a_fixed_point():
    cx = np.array([[0.0, 1.0], [1.0, 0.0]])
    qp = QuadraticProblem(DenseGeometry(cx), DenseGeometry(cx))
    out = solve_gw(qp)
    assert out.gw_cost <= 1e-3
    npt.assert_allclose(out.coupling.matrix, np.eye(2) / 2.0, atol=1e-3)


# ---- solver ----


def test_two_point_stretch_matches_the_stationary_value():
    out = solve_gw(stretched_pair())
    assert abs(out.gw_cost - 0.5) <= 0.05


def test_returned_cost_is_the_objective_of_the_returned_coupling_exactly():
    rng = np.random.default_rng(23)
    for n, m in ((5, 4), (12, 9)):
        qp = random_symmetric_problem(rng, n, m)
        out = solve_gw(qp)
        assert out.gw_cost == gw_objective(qp, out.coupling)


def test_solve_builds_each_cost_matrix_once(cost_matrix_calls):
    rng = np.random.default_rng(3)
    pts = rng.random((12, 2))
    qp = QuadraticProblem(PointCloudGeometry(pts, pts), PointCloudGeometry(pts[::-1], pts[::-1]))
    out = solve_gw(qp, outer_iters=5, outer_threshold=1e-300)
    assert out.outer_iterations == 5 and len(out.cost_trace) == 6
    assert cost_matrix_calls == ["PointCloudGeometry"] * 2


@pytest.mark.parametrize(
    "geoms",
    [
        (DenseGeometry(np.zeros((3, 3))), DenseGeometry(np.zeros((2, 2)))),
        (
            PointCloudGeometry(np.ones((3, 2)), np.ones((3, 2))),
            PointCloudGeometry(np.ones((1, 4)), np.ones((1, 4))),
        ),
    ],
)
def test_all_zero_costs_exit_before_any_step(geoms):
    out = solve_gw(QuadraticProblem(*geoms))
    assert out.converged
    assert out.outer_iterations == 0
    npt.assert_array_equal(out.cost_trace, [0.0])
    assert out.gw_cost == 0.0


def test_returned_cost_evaluates_the_returned_coupling():
    rng = np.random.default_rng(22)
    qp = random_symmetric_problem(rng, 5, 4)
    out = solve_gw(qp)
    assert out.gw_cost == pytest.approx(
        gw_objective(qp, out.coupling, method="expansion"), abs=1e-12
    )
    assert out.gw_cost <= out.cost_trace.min() + 1e-12
    assert np.all(np.diff(out.cost_trace) <= 1e-6)


def test_rotated_lifted_copy_is_recovered():
    rng = np.random.default_rng(0)
    pts = rng.random((10, 2)) * 2.0
    ang = np.pi / 6
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    lifted = np.concatenate([pts @ rot.T, np.zeros((10, 1))], axis=1)
    qp = QuadraticProblem(
        PointCloudGeometry(pts, pts), PointCloudGeometry(lifted, lifted)
    )
    out = solve_gw(qp)
    assert np.trace(out.coupling.matrix) >= 0.8


def test_permuting_one_space_permutes_the_coupling():
    rng = np.random.default_rng(7)
    qp = random_symmetric_problem(rng, 5, 4)
    out = solve_gw(qp)
    perm = np.array([2, 0, 4, 1, 3])
    cx = qp.geom_x.cost_matrix()
    qp_perm = QuadraticProblem(
        DenseGeometry(cx[np.ix_(perm, perm)]), qp.geom_y, qp.a[perm], qp.b
    )
    out_perm = solve_gw(qp_perm)
    assert abs(out.gw_cost - out_perm.gw_cost) <= 1e-9
    npt.assert_allclose(out.coupling.matrix[perm], out_perm.coupling.matrix, atol=1e-9)


def test_swapping_the_spaces_transposes_the_coupling():
    rng = np.random.default_rng(7)
    qp = random_symmetric_problem(rng, 5, 4)
    qp_swapped = QuadraticProblem(qp.geom_y, qp.geom_x, qp.b, qp.a)
    tight = dict(
        inner_threshold=1e-6, outer_threshold=1e-9, inner_max_iters=20_000, outer_iters=50
    )
    out = solve_gw(qp, **tight)
    out_swapped = solve_gw(qp_swapped, **tight)
    assert abs(out.gw_cost - out_swapped.gw_cost) <= 1e-6
    npt.assert_allclose(out.coupling.matrix, out_swapped.coupling.matrix.T, atol=1e-6)


# ---- validation ----


def test_problem_rejects_rectangular_self_costs():
    with pytest.raises(ValueError):
        QuadraticProblem(DenseGeometry(np.zeros((2, 3))), DenseGeometry(np.zeros((2, 2))))


def test_problem_rejects_asymmetric_self_costs():
    lopsided = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        QuadraticProblem(DenseGeometry(lopsided), DenseGeometry(np.zeros((2, 2))))


@pytest.mark.parametrize("eps_rel", [-1.0, 0.0, float("nan"), float("inf")])
def test_solve_gw_rejects_a_nonpositive_eps_rel(eps_rel):
    with pytest.raises(ValueError, match="eps_rel"):
        solve_gw(stretched_pair(), eps_rel=eps_rel)


@pytest.mark.parametrize("eps", [-1.0, 0.0, float("nan"), float("inf")])
def test_solve_gw_rejects_an_eps_that_is_not_positive_and_finite(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        solve_gw(stretched_pair(), eps=eps)


def test_an_inner_divergence_names_the_outer_step():
    pts = np.random.default_rng(0).random((6, 2))
    qp = QuadraticProblem(PointCloudGeometry(pts, pts), PointCloudGeometry(pts, pts))
    with pytest.raises(DivergedError, match="inner Sinkhorn solve diverged") as info:
        solve_gw(qp, eps=5e-324)
    assert info.value.iteration == 1
    assert isinstance(info.value.__cause__, DivergedError)


def test_problem_rejects_invalid_weights():
    cx = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        QuadraticProblem(DenseGeometry(cx), DenseGeometry(cx), np.array([0.7, 0.7]), None)

"""Cost-structure backends: dense, point cloud, separable grid."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import (
    COST_FNS,
    DEFAULT_EPSILON_SCALE,
    DenseGeometry,
    EpsilonSchedule,
    GridGeometry,
    LinearProblem,
    PointCloudGeometry,
    grad_points,
    reg_ot_cost,
    solve_sinkhorn,
    transport_matrix,
)
from otkit.geometry import _MEAN_COST_SAMPLES


def enumerate_grid(axes):
    # Row-major unraveling: last axis fastest, matching the grid backend.
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


# ---- cost_matrix ----


def test_dense_cost_matrix_is_the_input():
    npt.assert_array_equal(DenseGeometry(np.array([[3.0]])).cost_matrix(), [[3.0]])


def test_pointcloud_sqeucl_two_points():
    geom = PointCloudGeometry(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
    npt.assert_array_equal(geom.cost_matrix(), [[0.0, 1.0], [1.0, 0.0]])


def test_grid_cost_matches_enumerated_pointcloud():
    axes = [np.array([0.0, 1.0]), np.array([0.0, 1.0])]
    grid = GridGeometry(axes)
    pts = enumerate_grid(axes)
    cloud = PointCloudGeometry(pts, pts)
    npt.assert_allclose(grid.cost_matrix(), cloud.cost_matrix(), rtol=0, atol=1e-14)


def test_grid_cost_rows_follow_the_row_major_index_order():
    # Asymmetric per-axis costs, and more rows than one plan block, so a
    # swapped axis, transposed factor or block offset changes some entry.
    rng = np.random.default_rng(5)
    axes = [np.arange(4.0), np.arange(8.0), np.arange(9.0)]
    c0, c1, c2 = (rng.random((ax.size, ax.size)) for ax in axes)
    grid = GridGeometry(axes, [c0, c1, c2])
    expected = (
        c0[:, None, None, :, None, None]
        + c1[None, :, None, None, :, None]
        + c2[None, None, :, None, None, :]
    ).reshape(288, 288)
    npt.assert_array_equal(grid.cost_matrix(), expected)
    for geom in (grid, DenseGeometry(expected)):
        npt.assert_array_equal(np.vstack([rows for _, _, rows in geom._cost_blocks(transpose=True)]), expected.T)
    dense_prob = LinearProblem(DenseGeometry(expected))
    out = solve_sinkhorn(dense_prob, 0.5, max_iters=3)
    npt.assert_array_equal(
        transport_matrix(out, LinearProblem(grid)).matrix, transport_matrix(out, dense_prob).matrix
    )


def test_self_cost_is_symmetric_with_zero_diagonal():
    x = np.random.default_rng(0).standard_normal((6, 3))
    cost = PointCloudGeometry(x, x).cost_matrix()
    npt.assert_array_equal(np.diag(cost), np.zeros(6))
    npt.assert_allclose(cost, cost.T, rtol=0, atol=1e-14)


def test_cost_matrix_refuses_to_materialize_past_the_cap():
    geom = PointCloudGeometry(np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="entries"):
        geom.cost_matrix(max_entries=8)


# ---- apply_kernel ----


def test_kernel_of_zero_cost_singleton_is_identity():
    geom = DenseGeometry(np.array([[0.0]]))
    npt.assert_array_equal(geom.apply_kernel(np.array([1.0]), 1.0, "rows"), [1.0])


def test_all_zero_cost_kernel_sums_the_vector():
    geom = DenseGeometry(np.zeros((2, 2)))
    npt.assert_allclose(geom.apply_kernel(np.array([1.0, 1.0]), 1.0, "rows"), [2.0, 2.0])


def test_grid_kernel_matches_dense_product():
    axes = [np.array([0.0, 1.0]), np.array([0.0, 1.0])]
    grid = GridGeometry(axes)
    dense = DenseGeometry(grid.cost_matrix())
    v = np.ones(4)
    npt.assert_allclose(
        grid.apply_kernel(v, 0.5, "rows"), dense.apply_kernel(v, 0.5, "rows"), rtol=1e-12
    )


def test_block_size_does_not_change_results():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 2))
    y = rng.standard_normal((30, 2))
    large = PointCloudGeometry(x, y, block_size=256)
    v = rng.random(30)
    u = rng.random(40)
    f = rng.standard_normal(40)
    g = rng.standard_normal(30)
    out = solve_sinkhorn(LinearProblem(large), 0.7)
    assert out.converged
    # Plan reductions against the whole-matrix dense backend.
    dense_prob = LinearProblem(DenseGeometry(large.cost_matrix()))
    dense_plan = transport_matrix(out, dense_prob).matrix
    dense_grad = 2.0 * (dense_plan.sum(axis=1)[:, None] * x - dense_plan @ y)
    for block_size in (1, 7, 256):
        geom = PointCloudGeometry(x, y, block_size=block_size)
        for axis, vec in (("rows", v), ("cols", u)):
            npt.assert_allclose(
                geom.apply_kernel(vec, 0.7, axis), large.apply_kernel(vec, 0.7, axis), atol=1e-12
            )
            npt.assert_allclose(
                geom.apply_lse_kernel(f, g, 0.7, axis),
                large.apply_lse_kernel(f, g, 0.7, axis),
                atol=1e-12,
            )
        prob = LinearProblem(geom)
        npt.assert_allclose(reg_ot_cost(out, prob), reg_ot_cost(out, dense_prob), rtol=0, atol=1e-12)
        npt.assert_allclose(grad_points(out, prob), dense_grad, rtol=0, atol=1e-12)
        npt.assert_allclose(transport_matrix(out, prob).matrix, dense_plan, rtol=0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 8),
    m=st.integers(1, 8),
    d=st.integers(1, 3),
    cost_fn=st.sampled_from(COST_FNS),
    seed=st.integers(0, 2**32 - 1),
)
def test_pointcloud_kernel_matches_dense(n, m, d, cost_fn, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) + 2.0
    y = rng.standard_normal((m, d)) + 2.0
    geom = PointCloudGeometry(x, y, cost_fn, block_size=3)
    dense = DenseGeometry(geom.cost_matrix())
    eps = 0.5 * geom.mean_cost() + 0.1
    v = rng.random(m) + 0.1
    u = rng.random(n) + 0.1
    npt.assert_allclose(
        geom.apply_kernel(v, eps, "rows"), dense.apply_kernel(v, eps, "rows"), rtol=1e-10
    )
    npt.assert_allclose(
        geom.apply_kernel(u, eps, "cols"), dense.apply_kernel(u, eps, "cols"), rtol=1e-10
    )


@settings(max_examples=30, deadline=None)
@given(num_axes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_grid_kernel_matches_dense_on_random_axes(num_axes, seed):
    rng = np.random.default_rng(seed)
    axes = [np.sort(rng.random(int(rng.integers(2, 5)))) for _ in range(num_axes)]
    grid = GridGeometry(axes)
    dense = DenseGeometry(grid.cost_matrix())
    size = grid.shape[0]
    eps = 0.3 * grid.mean_cost() + 1e-2
    v = rng.random(size) + 0.1
    f = rng.standard_normal(size)
    g = rng.standard_normal(size)
    for axis in ("rows", "cols"):
        npt.assert_allclose(
            grid.apply_kernel(v, eps, axis), dense.apply_kernel(v, eps, axis), rtol=1e-10
        )
        npt.assert_allclose(
            grid.apply_lse_kernel(f, g, eps, axis),
            dense.apply_lse_kernel(f, g, eps, axis),
            rtol=1e-10,
            atol=1e-12,
        )


# ---- apply_lse_kernel ----


def test_lse_kernel_all_zero_cost_gives_log_two():
    geom = DenseGeometry(np.zeros((2, 2)))
    out = geom.apply_lse_kernel(np.zeros(2), np.zeros(2), 1.0, "rows")
    npt.assert_allclose(out, np.log(2.0), rtol=1e-14)


def test_lse_kernel_survives_huge_potential_offsets():
    rng = np.random.default_rng(4)
    geom = DenseGeometry(rng.random((3, 4)))
    f = rng.standard_normal(3)
    g = rng.standard_normal(4)
    base = geom.apply_lse_kernel(f, g, 0.5, "rows")
    shifted = geom.apply_lse_kernel(f - 1e6, g, 0.5, "rows")
    assert np.all(np.isfinite(shifted))
    npt.assert_allclose(shifted + 1e6, base, atol=1e-9)


def test_lse_kernel_equals_log_of_plain_kernel():
    rng = np.random.default_rng(5)
    geom = DenseGeometry(rng.random((3, 3)))
    eps = 0.1
    f = 0.1 * rng.standard_normal(3)
    g = 0.1 * rng.standard_normal(3)
    expected = f + eps * np.log(geom.apply_kernel(np.exp(g / eps), eps, "rows"))
    npt.assert_allclose(geom.apply_lse_kernel(f, g, eps, "rows"), expected, rtol=1e-9)


def test_lse_kernel_allows_minus_infinity_potentials():
    geom = DenseGeometry(np.zeros((2, 2)))
    out = geom.apply_lse_kernel(np.zeros(2), np.array([0.0, -np.inf]), 1.0, "rows")
    npt.assert_allclose(out, 0.0, atol=1e-14)


def test_lse_kernel_rejects_nan_potentials():
    geom = DenseGeometry(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        geom.apply_lse_kernel(np.array([0.0, np.nan]), np.zeros(2), 1.0, "rows")


# ---- validation ----


def test_dense_rejects_non_finite_costs():
    with pytest.raises(ValueError):
        DenseGeometry(np.array([[np.inf]]))


def test_pointcloud_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        PointCloudGeometry(np.zeros((2, 2)), np.zeros((2, 3)))


def test_pointcloud_rejects_unknown_cost_fn():
    with pytest.raises(ValueError):
        PointCloudGeometry(np.zeros((2, 1)), np.zeros((2, 1)), "manhattan")


def test_cosine_rejects_zero_vectors():
    with pytest.raises(ValueError):
        PointCloudGeometry(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), "cosine")


def test_apply_kernel_rejects_bad_axis_and_lengths():
    geom = DenseGeometry(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        geom.apply_kernel(np.ones(3), 1.0, "diagonal")
    with pytest.raises(ValueError):
        geom.apply_kernel(np.ones(2), 1.0, "rows")
    with pytest.raises(ValueError):
        geom.apply_kernel(np.ones(3), 0.0, "rows")


def test_grid_rejects_mismatched_cost_matrices():
    with pytest.raises(ValueError):
        GridGeometry([np.array([0.0, 1.0])], cost_matrices=[np.zeros((3, 3))])


# ---- epsilon defaults and schedules ----


def test_epsilon_default_is_a_fraction_of_the_mean_cost():
    cost = np.array([[1.0, 3.0], [5.0, 7.0]])
    geom = DenseGeometry(cost)
    assert geom.epsilon_default == DEFAULT_EPSILON_SCALE * cost.mean()


@pytest.mark.parametrize("backend", ["dense", "pointcloud", "grid"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
def test_epsilon_default_must_be_positive_and_finite(backend, value):
    build = {
        "dense": lambda: DenseGeometry(np.ones((2, 2)), epsilon_default=value),
        "pointcloud": lambda: PointCloudGeometry(np.zeros((2, 1)), np.ones((2, 1)), epsilon_default=value),
        "grid": lambda: GridGeometry([np.array([0.0, 1.0])], epsilon_default=value),
    }[backend]
    with pytest.raises(ValueError, match="^epsilon_default must be positive"):
        build()


def test_subsampled_mean_cost_is_deterministic_and_close():
    rng = np.random.default_rng(6)
    x = rng.random((100, 2))
    y = rng.random((100, 2))
    first = PointCloudGeometry(x, y).mean_cost()
    second = PointCloudGeometry(x, y).mean_cost()
    assert first == second
    exact = DenseGeometry(PointCloudGeometry(x, y).cost_matrix()).mean_cost()
    assert abs(first - exact) <= 0.25 * exact
    # The estimate reads the same cost formula as the cost matrix: it is
    # the mean of cost_matrix() at the seeded sample pairs.
    clouds = [(x, y, cost_fn) for cost_fn in COST_FNS] + [(x, x, "sqeucl"), (y, y.copy(), "eucl")]
    for xs, ys, cost_fn in clouds:
        geom = PointCloudGeometry(xs, ys, cost_fn)
        n, m = geom.shape
        assert n * m > _MEAN_COST_SAMPLES
        pairs = np.random.default_rng(0)
        i = pairs.integers(0, n, size=_MEAN_COST_SAMPLES)
        j = pairs.integers(0, m, size=_MEAN_COST_SAMPLES)
        sampled = geom.cost_matrix()[i, j].mean()
        assert abs(geom.mean_cost() - sampled) <= 1e-12 * sampled, cost_fn


@pytest.mark.parametrize("grid_shape", [(3, 4), (5, 7), (2, 3, 4)])
def test_grid_mean_cost_is_the_exact_mean_at_every_size(grid_shape):
    # 144, 1,225 and 576 cost entries, below and above 1,000.
    rng = np.random.default_rng(11)
    axes = [np.linspace(0.0, 1.0, k) for k in grid_shape]
    geom = GridGeometry(axes, [rng.random((k, k)) for k in grid_shape])
    exact = geom.cost_matrix().mean()
    assert abs(geom.mean_cost() - exact) <= 1e-12 * exact


def test_epsilon_schedule_decays_to_its_target():
    sched = EpsilonSchedule(0.01, init_scale=100.0, decay=0.5)
    assert sched.at(0) == 1.0
    assert sched.at(1) == 0.5
    assert sched.at(50) == 0.01


def test_epsilon_schedule_constant_when_unscaled():
    sched = EpsilonSchedule(0.25)
    assert sched.at(0) == sched.at(10) == 0.25


@pytest.mark.parametrize(
    "kwargs",
    [
        {"target": 0.0},
        {"target": 1.0, "init_scale": 0.5},
        {"target": 1.0, "decay": 0.0},
        {"target": 1.0, "decay": 1.5},
        {"target": 1.0, "init_scale": 10.0, "decay": 1.0},
        {"target": float("inf")},
        {"target": 1.0, "init_scale": float("nan"), "decay": 0.5},
        {"target": 1.0, "init_scale": float("inf"), "decay": 0.5},
    ],
)
def test_epsilon_schedule_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        EpsilonSchedule(**kwargs)

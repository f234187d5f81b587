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
from otkit.geometry import _BLOCK_BYTES, _MEAN_COST_SAMPLES

# What a block pass holds beside its blocks: numpy's per-call iterator
# buffers, about 130-150 KB measured, and the pass's vectors.
PASS_ALLOWANCE = 256 * 1024


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
        npt.assert_array_equal(np.vstack([rows.copy() for _, _, rows in geom._cost_blocks(transpose=True)]), expected.T)
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


def _longdouble_costs(x, y, cost_fn):
    """The n x m cost matrix by the difference (or normalized-dot) formula,
    in extended precision."""
    x, y = x.astype(np.longdouble), y.astype(np.longdouble)
    if cost_fn == "cosine":
        x = x / np.sqrt((x * x).sum(axis=1, keepdims=True))
        y = y / np.sqrt((y * y).sum(axis=1, keepdims=True))
        return 1 - x @ y.T
    sq = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    return np.sqrt(sq) if cost_fn == "eucl" else sq


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    m=st.integers(1, 12),
    d=st.integers(1, 4),
    cost_fn=st.sampled_from(COST_FNS),
    offset=st.sampled_from([0.0, 1.0, 10.0, 100.0, 1e3]),
    same=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pointcloud_costs_match_the_difference_formula_far_from_the_origin(n, m, d, cost_fn, offset, same, seed):
    # Both clouds share a common offset. Distances do not depend on it, so
    # they must stay within 1e-12 of the mean cost; a Euclidean cost is
    # compared through its square, since a square root near 0 magnifies
    # any rounding of the squared distance. The cosine cost does depend on
    # the offset, and any formula for it rounds in units of 1, its scale.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) + offset
    y = x.copy() if same else rng.standard_normal((m, d)) + offset
    geom = PointCloudGeometry(x, y, cost_fn, block_size=5)
    expected = _longdouble_costs(x, y, cost_fn)
    blocks = np.vstack([rows.copy() for _, _, rows in geom._cost_blocks(transpose=True)])
    for costs in (geom.cost_matrix(), blocks.T):
        if cost_fn == "eucl":
            costs, reference = costs**2, expected**2
        else:
            reference = expected
        scale = 1.0 if cost_fn == "cosine" else float(reference.mean())
        assert float(np.abs(costs - reference).max()) <= 1e-12 * scale
        if same:
            npt.assert_array_equal(np.diag(costs), np.zeros(len(x)))


@pytest.mark.parametrize(
    "cost_fn, offset, same",
    [("sqeucl", 0.0, False), ("sqeucl", 1e3, False), ("sqeucl", 0.0, True), ("cosine", 0.0, False),
     ("cosine", 0.0, True), ("eucl", 0.0, False)],
)
@pytest.mark.parametrize("eps_scale", [0.1, 0.01])
def test_streamed_exponent_rows_match_the_shifted_cost(monkeypatch, cost_fn, offset, same, eps_scale):
    # Above the cap, squared-Euclidean and cosine exponents at f = shift
    # and g = 0 come from one product of factors augmented with f and g;
    # they must match (shift - C)/eps from cost_matrix() within 1e-13 of
    # its largest magnitude. A Euclidean cost takes the cost rows' path.
    monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", 10)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((30, 3)) + offset
    y = x if same else rng.standard_normal((20, 3)) + offset
    geom = PointCloudGeometry(x, y, cost_fn, block_size=7)
    cost = geom.cost_matrix(max_entries=len(x) * len(y))
    eps = eps_scale * geom.mean_cost()
    factors, shift, _ = geom._gibbs(eps, None)
    assert factors == (shift, eps)
    for transpose in (False, True):
        expected = (shift - (cost.T if transpose else cost)) / eps
        f, g = np.full(len(x), shift), np.zeros(len(y))
        rows = np.vstack([r.copy() for _, _, r in geom._exponent_blocks(f, g, eps, transpose)])
        npt.assert_allclose(rows, expected, rtol=0, atol=1e-13 * np.abs(expected).max())
        kernel = np.vstack([r.copy() for _, _, r in geom._streamed_blocks(shift, eps, transpose)])
        npt.assert_array_equal(kernel, np.exp(rows))
        if same:
            npt.assert_array_equal(np.diag(kernel), np.full(len(x), np.exp(shift / eps)))


@pytest.mark.parametrize(
    "cost_fn, offset, same",
    [("sqeucl", 0.0, False), ("sqeucl", 1e3, False), ("sqeucl", 1e3, True), ("cosine", 0.0, False),
     ("cosine", 0.0, True), ("eucl", 0.0, True), ("dense", 0.0, False)],
)
@pytest.mark.parametrize("capped", [False, True])
def test_exponent_rows_with_potentials_match_the_cost(monkeypatch, cost_fn, offset, same, capped):
    # Per-row potentials with -inf entries (zero weights): every exponent
    # block (f_i + g_j - C_ij)/eps must match the one formed from
    # cost_matrix() within 1e-13 of its largest finite magnitude, be -inf
    # exactly where f_i or g_j is, and hold no NaN. The same-points
    # diagonal is (f_i + g_i)/eps exactly, and a dense cost's blocks are
    # the formula's bitwise. Plans and kernels are their exps, under the
    # cap and above it.
    if capped:
        monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", 10)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((30, 3)) + offset
    y = x if same else rng.standard_normal((20, 3)) + offset
    if cost_fn == "dense":
        geom = DenseGeometry(rng.random((30, 20)))
        geom.block_size = 7
    else:
        geom = PointCloudGeometry(x, y, cost_fn, block_size=7)
    n, m = geom.shape
    cost = geom.cost_matrix(max_entries=n * m)
    eps = 0.01 * geom.mean_cost()
    f = geom.mean_cost() * rng.standard_normal(n)
    g = geom.mean_cost() * rng.standard_normal(m)
    f[[0, 9]] = -np.inf
    g[[3, 8]] = -np.inf
    expected = (f[:, None] + g[None, :] - cost) / eps
    finite = np.isfinite(expected)
    for transpose in (False, True):
        want, mask = (expected.T, finite.T) if transpose else (expected, finite)
        rows = np.vstack([r.copy() for _, _, r in geom._exponent_blocks(f, g, eps, transpose)])
        assert not np.isnan(rows).any()
        npt.assert_array_equal(np.isfinite(rows), mask)
        assert np.all(rows[~mask] == -np.inf)
        if cost_fn == "dense":
            npt.assert_array_equal(rows, want)
        assert np.abs(rows[mask] - want[mask]).max() <= 1e-13 * np.abs(want[mask]).max()
        if same:
            npt.assert_array_equal(np.diag(rows), (f + g) / eps)
    plan = np.vstack([p.copy() for _, _, p in geom._plan_blocks(f, g, eps)])
    npt.assert_array_equal(plan, np.exp(np.vstack([r.copy() for _, _, r in geom._exponent_blocks(f, g, eps)])))
    factors, shift, _ = geom._gibbs(0.1 * geom.mean_cost(), None)
    assert (len(factors) == 2) == capped
    if capped:
        kernel = np.vstack([k.copy() for _, _, k in geom._streamed_blocks(*factors, False)])
    else:
        (kernel,) = factors
    exponent = (shift - cost) / (0.1 * geom.mean_cost())
    npt.assert_allclose(np.log(kernel), exponent, rtol=0, atol=1e-13 * np.abs(exponent).max())


@pytest.mark.parametrize("cost_fn", ["sqeucl", "eucl", "cosine", "dense"])
def test_an_under_cap_kernel_rebuilt_at_a_new_eps_matches_the_cost(cost_fn):
    # A rebuild reuses the first kernel's buffer and the kept cost range;
    # it must match exp((c - C)/eps), c the midrange of C, as the first
    # build does.
    rng = np.random.default_rng(15)
    x, y = rng.standard_normal((40, 3)) + 10.0, rng.standard_normal((25, 3)) + 10.0
    geom = PointCloudGeometry(x, y, cost_fn if cost_fn != "dense" else "sqeucl", block_size=16)
    cost = geom.cost_matrix()
    if cost_fn == "dense":
        geom = DenseGeometry(cost)
    shift = cost.min() + 0.5 * (cost.max() - cost.min())
    first = None
    for scale in (0.5, 0.05, 0.01):
        eps = scale * geom.mean_cost()
        gibbs = geom._gibbs(eps, first)
        (kernel,), c, _ = gibbs
        assert c == shift and (first is None or kernel is first[0][0])
        exponent = (shift - cost) / eps
        npt.assert_allclose(np.log(kernel), exponent, rtol=0, atol=1e-13 * np.abs(exponent).max())
        first = gibbs


def test_an_epsilon_schedule_scans_the_cost_range_once(monkeypatch):
    # The cost range does not depend on eps: a schedule's kernel rebuilds
    # take it from the geometry. With a fresh geometry per eps, which scans
    # again at every build, the solve is the same.
    rng = np.random.default_rng(14)
    x, y = rng.random((60, 2)), rng.random((50, 2))
    calls = []
    cost_rows = PointCloudGeometry._cost_rows

    def counting(self, start, stop, *args, **kwargs):
        calls.append((start, stop))
        return cost_rows(self, start, stop, *args, **kwargs)

    monkeypatch.setattr(PointCloudGeometry, "_cost_rows", counting)
    geom = PointCloudGeometry(x, y, block_size=16)
    schedule = EpsilonSchedule(0.05 * geom.mean_cost(), init_scale=8.0, decay=0.5)
    calls.clear()
    out = solve_sinkhorn(LinearProblem(geom), schedule, threshold=1e-9)
    assert out.converged and out.iterations > 3
    assert calls == [(0, 16), (16, 32), (32, 48), (48, 60)]
    gibbs = PointCloudGeometry._gibbs
    monkeypatch.setattr(PointCloudGeometry, "_gibbs", lambda self, eps, old: gibbs(PointCloudGeometry(x, y), eps, old))
    calls.clear()
    fresh = solve_sinkhorn(LinearProblem(geom), schedule, threshold=1e-9)
    assert len(calls) == 4  # one one-block scan per eps: 8, 4, 2 and 1 x the target
    assert (fresh.iterations, fresh.converged) == (out.iterations, out.converged)
    npt.assert_array_equal(fresh.f, out.f)
    npt.assert_array_equal(fresh.g, out.g)


@pytest.mark.parametrize("cost_fn", ["sqeucl", "cosine", "eucl"])
@pytest.mark.parametrize("same", [False, True])
def test_transport_cost_and_gradient_match_the_dense_cost(cost_fn, same):
    # Factored clouds read <C, P> off P B; zero-weight rows and columns,
    # whose potentials are -inf, must add 0 and no NaN.
    rng = np.random.default_rng(16)
    x = rng.standard_normal((40, 3))
    y = x if same else rng.standard_normal((30, 3)) + 0.5
    a, b = rng.random(len(x)), rng.random(len(y))
    a[[2, 17]], b[[5, 9]] = 0.0, 0.0
    geom = PointCloudGeometry(x, y, cost_fn, block_size=16)
    prob = LinearProblem(geom, a / a.sum(), b / b.sum())
    dense_prob = LinearProblem(DenseGeometry(geom.cost_matrix()), prob.a, prob.b)
    out = solve_sinkhorn(prob, 0.05 * geom.mean_cost(), threshold=1e-10)
    assert out.converged and np.isneginf(out.f).sum() == 2 and np.isneginf(out.g).sum() == 2
    costs = reg_ot_cost(out, prob)
    assert np.all(np.isfinite(costs))
    npt.assert_allclose(costs, reg_ot_cost(out, dense_prob), rtol=0, atol=1e-12)
    if cost_fn == "sqeucl":
        plan = transport_matrix(out, dense_prob).matrix
        grad = grad_points(out, prob)
        assert np.all(np.isfinite(grad))
        npt.assert_allclose(grad, 2.0 * (plan.sum(axis=1)[:, None] * x - plan @ y), rtol=0, atol=1e-12)


@pytest.mark.parametrize("cost_fn", ["sqeucl", "cosine", "eucl"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transport_cost_of_same_points_is_the_cost_times_the_plan(cost_fn, seed):
    # At small eps the plan sits near the diagonal, where C_ii is exactly 0
    # and A_i . B_i only rounding noise: the transport cost must be
    # <C, P> of the geometry's own cost and plan, not that noise.
    x = np.random.default_rng(seed).random((200, 2))
    geom = PointCloudGeometry(x, x, cost_fn)
    prob = LinearProblem(geom)
    out = solve_sinkhorn(prob, 1e-3 * geom.mean_cost())
    plan = transport_matrix(out, prob).matrix.astype(np.longdouble)
    expected = float((geom.cost_matrix().astype(np.longdouble) * plan).sum())
    assert abs(reg_ot_cost(out, prob).transport_cost - expected) <= 1e-14 * expected


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


@pytest.mark.parametrize("cap", [None, 20])
def test_dense_kernels_never_write_the_cost_matrix(monkeypatch, cap):
    # Blocks that are only read are views of the matrix; a read-only matrix
    # makes any write through them raise. A cap of 20 entries streams the
    # 5 x 6 kernel, which is computed in copies of two-row blocks.
    if cap is not None:
        monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", cap)
    cost = np.random.default_rng(8).random((5, 6))
    cost.flags.writeable = False
    geom = DenseGeometry(cost)
    geom.block_size = 2
    prob = LinearProblem(geom)
    out = solve_sinkhorn(prob, 0.1)
    assert out.converged
    geom.apply_kernel(np.ones(6), 0.1)
    costs = reg_ot_cost(out, prob)
    assert np.isfinite(costs.transport_cost)
    npt.assert_array_equal(cost, np.random.default_rng(8).random((5, 6)))


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


def test_dense_lse_kernel_rows_are_the_whole_matrix_formula_bitwise():
    # Reduced block by block, a dense "rows" log-sum-exp is the whole-matrix
    # max-subtracted formula bitwise; "cols" moves by rounding only.
    rng = np.random.default_rng(17)
    cost = rng.random((600, 300))
    geom = DenseGeometry(cost)
    f, g = rng.standard_normal(600), rng.standard_normal(300)
    f[4], g[7] = -np.inf, -np.inf
    eps = 0.02
    z = (f[:, None] + g[None, :] - cost) / eps
    for axis in (1, 0):
        hi = np.max(z, axis=axis, keepdims=True)
        hi = np.where(np.isfinite(hi), hi, 0.0)
        with np.errstate(divide="ignore"):
            expected = eps * (np.log(np.sum(np.exp(z - hi), axis=axis)) + np.squeeze(hi, axis=axis))
        out = geom.apply_lse_kernel(f, g, eps, "rows" if axis == 1 else "cols")
        if axis == 1:
            npt.assert_array_equal(out, expected)
        else:
            npt.assert_allclose(out, expected, rtol=1e-14, atol=1e-14)


def test_dense_lse_kernel_holds_one_block(traced_peak):
    # At 2,001^2 the log domain reduces one exponent block of the budget's
    # rows at a time, in its own buffer: its peak is about that block
    # (0.5 MB), not the 32 MB cost matrix or several copies of it.
    rng = np.random.default_rng(18)
    n = 2001
    geom = DenseGeometry(rng.random((n, n)))
    f, g = rng.standard_normal(n), rng.standard_normal(n)
    block = geom._block_rows(n) * n * 8
    assert block <= _BLOCK_BYTES
    for axis in ("rows", "cols"):
        out, peak = traced_peak(lambda: geom.apply_lse_kernel(f, g, 0.05, axis))
        assert np.all(np.isfinite(out))
        assert block <= peak < block + PASS_ALLOWANCE


@pytest.mark.parametrize("m", [2001, 8000])
@pytest.mark.parametrize("cost_fn", ["sqeucl", "eucl"])
def test_a_block_pass_holds_the_byte_budget_whatever_m(traced_peak, cost_fn, m):
    # A block has as many rows of width m as fill the budget, a multiple of
    # 16 and at least 16: at m = 2,001 it is within the budget, at 8,000
    # it is the 16-row floor, 1 MB, where 256 rows were 16 MB. A pass over
    # 300 x m clouds holds one block, and two for eucl, which forms its
    # cost rows in a block of their own; sqeucl holds its exponent factors
    # of the m targets instead, augmented with g and a column of ones.
    rng = np.random.default_rng(m)
    geom = PointCloudGeometry(rng.random((300, 3)), rng.random((m, 3)), cost_fn)
    f, g = rng.standard_normal(300), rng.standard_normal(m)
    rows = geom._block_rows(m)
    assert rows % 16 == 0 and (rows == 16 or rows * m * 8 <= _BLOCK_BYTES) and (rows + 16) * m * 8 > _BLOCK_BYTES
    block = rows * m * 8
    held = 2 * block if cost_fn == "eucl" else block + m * (geom._factors[1].shape[1] + 2) * 8
    out, peak = traced_peak(lambda: geom.apply_lse_kernel(f, g, 0.1, "rows"))
    assert np.all(np.isfinite(out))
    assert block <= peak < held + PASS_ALLOWANCE


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
    # Distances do not depend on a common offset, and neither does their
    # estimate, which stays deterministic there too.
    for cost_fn in ("sqeucl", "eucl"):
        near = PointCloudGeometry(x, y, cost_fn).mean_cost()
        far = PointCloudGeometry(x + 1e3, y + 1e3, cost_fn).mean_cost()
        assert far == PointCloudGeometry(x + 1e3, y + 1e3, cost_fn).mean_cost()
        assert abs(far - near) <= 1e-12 * near, cost_fn


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

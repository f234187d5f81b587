"""Fixed-support barycenters via iterative Bregman projections."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

import otkit.geometry
from otkit import (
    BarycenterProblem,
    DenseGeometry,
    GridGeometry,
    PointCloudGeometry,
    solve_barycenter,
)
from otkit.errors import DivergedError
from test_sinkhorn import watched


def line_geometry(num_points):
    pts = np.linspace(0.0, 1.0, num_points)
    return PointCloudGeometry(pts[:, None], pts[:, None]), pts


def dirac(num_points, index):
    h = np.zeros(num_points)
    h[index] = 1.0
    return h


def test_single_histogram_is_its_own_barycenter():
    geom, _ = line_geometry(21)
    rng = np.random.default_rng(0)
    h = rng.random(21)
    h /= h.sum()
    out = solve_barycenter(BarycenterProblem(geom, h[None, :]), 1e-5 * geom.mean_cost())
    assert out.converged
    assert np.abs(out.barycenter - h).sum() <= 1e-6


def test_identical_histograms_are_a_fixed_point():
    geom, _ = line_geometry(21)
    rng = np.random.default_rng(1)
    h = rng.random(21)
    h /= h.sum()
    bp = BarycenterProblem(geom, np.stack([h, h]), np.array([0.3, 0.7]))
    out = solve_barycenter(bp, 1e-5 * geom.mean_cost())
    assert np.abs(out.barycenter - h).sum() <= 1e-6


def test_two_diracs_average_to_the_midpoint():
    geom, pts = line_geometry(101)
    hists = np.stack([dirac(101, 25), dirac(101, 75)])
    out = solve_barycenter(BarycenterProblem(geom, hists), 1e-3 * geom.mean_cost())
    assert int(np.argmax(out.barycenter)) == int(np.argmin(np.abs(pts - 0.5)))


def test_dirac_interpolation_follows_the_weights():
    geom, pts = line_geometry(101)
    hists = np.stack([dirac(101, 25), dirac(101, 75)])
    bp = BarycenterProblem(geom, hists, np.array([0.3, 0.7]))
    out = solve_barycenter(bp, 1e-3 * geom.mean_cost())
    target = 0.3 * 0.25 + 0.7 * 0.75
    assert int(np.argmax(out.barycenter)) == int(np.argmin(np.abs(pts - target)))


def test_output_is_a_probability_vector():
    geom, _ = line_geometry(31)
    rng = np.random.default_rng(2)
    hists = rng.random((3, 31))
    hists /= hists.sum(axis=1, keepdims=True)
    out = solve_barycenter(BarycenterProblem(geom, hists), 1e-2 * geom.mean_cost())
    assert np.all(out.barycenter >= 0)
    assert abs(out.barycenter.sum() - 1.0) <= 1e-10
    assert out.iterations >= 1
    assert out.eps == 1e-2 * geom.mean_cost()


def test_permuting_the_support_permutes_the_barycenter():
    rng = np.random.default_rng(3)
    pts = np.sort(rng.random(9))
    geom = PointCloudGeometry(pts[:, None], pts[:, None])
    hists = rng.random((2, 9))
    hists /= hists.sum(axis=1, keepdims=True)
    eps = 1e-2 * geom.mean_cost()
    base = solve_barycenter(BarycenterProblem(geom, hists), eps)
    perm = rng.permutation(9)
    permuted_geom = DenseGeometry(geom.cost_matrix()[np.ix_(perm, perm)])
    permuted = solve_barycenter(BarycenterProblem(permuted_geom, hists[:, perm]), eps)
    npt.assert_allclose(base.barycenter[perm], permuted.barycenter, atol=1e-12)


def test_grid_and_dense_backends_agree():
    pts = np.linspace(0.0, 1.0, 51)
    dense_geom = PointCloudGeometry(pts[:, None], pts[:, None])
    grid_geom = GridGeometry([pts])
    rng = np.random.default_rng(4)
    hists = rng.random((2, 51))
    hists /= hists.sum(axis=1, keepdims=True)
    eps = 1e-3 * dense_geom.mean_cost()
    dense_out = solve_barycenter(BarycenterProblem(dense_geom, hists), eps)
    grid_out = solve_barycenter(BarycenterProblem(grid_geom, hists), eps)
    assert np.abs(dense_out.barycenter - grid_out.barycenter).sum() <= 1e-9


def test_zero_entries_in_histograms_are_fine():
    geom, _ = line_geometry(11)
    hists = np.stack([dirac(11, 0), dirac(11, 10)])
    out = solve_barycenter(BarycenterProblem(geom, hists), 1e-3 * geom.mean_cost())
    assert abs(out.barycenter.sum() - 1.0) <= 1e-10


def test_every_entry_underflowing_still_returns_a_probability_vector():
    # After one iteration log p is about -1250 everywhere, so p = exp(log p) is all zero.
    geom, _ = line_geometry(11)
    hists = np.stack([dirac(11, 0), dirac(11, 10)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = solve_barycenter(BarycenterProblem(geom, hists), 1e-3 * geom.mean_cost(), max_iters=1)
    assert not out.converged
    assert np.all(np.isfinite(out.barycenter)) and np.all(out.barycenter >= 0)
    assert abs(out.barycenter.sum() - 1.0) <= 1e-12


def kernel_path_problems():
    """name -> problem: a cloud support with zero entries, the same on a
    streamed kernel, a 9x8 grid, a dense cost, the same on a streamed
    kernel, a grid above the dense cap, a grid with asymmetric per-axis
    costs and a 3-axis grid."""
    rng = np.random.default_rng(6)
    pts = rng.random((60, 2))
    hists = rng.random((3, 60))
    hists[:, rng.permutation(60)[:15]] = 0.0
    support = BarycenterProblem(PointCloudGeometry(pts, pts), hists / hists.sum(axis=1, keepdims=True))
    streamed = BarycenterProblem(PointCloudGeometry(pts, pts, block_size=32), support.histograms)
    grid = GridGeometry([np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 8)])
    hists = rng.random((2, 72))
    grid_problem = BarycenterProblem(grid, hists / hists.sum(axis=1, keepdims=True), np.array([0.3, 0.7]))
    hists = rng.random((2, 40))
    dense = BarycenterProblem(DenseGeometry(3.0 * rng.random((40, 40))), hists / hists.sum(axis=1, keepdims=True))
    dense_streamed = DenseGeometry(dense.geom.cost_matrix())
    dense_streamed.block_size = 32
    problems = {
        "support": support,
        "support-streamed": streamed,
        "grid": grid_problem,
        "dense": dense,
        "dense-streamed": BarycenterProblem(dense_streamed, dense.histograms),
    }
    for name, geom in [
        ("grid-above-cap", GridGeometry([np.linspace(0.0, 1.0, 48), np.linspace(0.0, 1.0, 45)])),
        ("grid-asymmetric", GridGeometry([np.arange(6.0), np.arange(5.0)], [rng.random((6, 6)), rng.random((5, 5))])),
        ("grid-3-axes", GridGeometry([np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3)])),
    ]:
        hists = rng.random((2, geom.shape[0]))
        problems[name] = BarycenterProblem(geom, hists / hists.sum(axis=1, keepdims=True))
    assert problems["grid-above-cap"].geom.shape[0] ** 2 > otkit.geometry.DEFAULT_DENSE_CAP
    return problems


@pytest.mark.parametrize("scale", [1e-2, 5e-2])
@pytest.mark.parametrize(
    "name",
    [
        "support",
        "support-streamed",
        "grid",
        "dense",
        "dense-streamed",
        "grid-above-cap",
        "grid-asymmetric",
        "grid-3-axes",
    ],
)
def test_kernel_path_matches_the_log_domain(name, scale, monkeypatch, lse_calls, log_domain):
    bp = kernel_path_problems()[name]
    if name.endswith("-streamed"):
        monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", 1000)  # below 60 x 60 and 40 x 40
    eps = scale * bp.geom.mean_cost()
    fast = solve_barycenter(bp, eps, threshold=1e-7, max_iters=5000)
    assert lse_calls == []
    log_domain()
    ref = solve_barycenter(bp, eps, threshold=1e-7, max_iters=5000)
    assert len(lse_calls) > 0
    assert (fast.iterations, fast.converged) == (ref.iterations, ref.converged)
    npt.assert_allclose(fast.barycenter, ref.barycenter, rtol=0, atol=1e-12)


@pytest.mark.parametrize("entry", [0.0, np.finfo(float).max])
def test_a_kernel_row_set_mid_solve_continues_in_the_log_domain(entry, monkeypatch, lse_calls, log_domain):
    # The stacked iterates sweep on the dense problem's n x m kernel. Its
    # row 0 is set before sweep 5's first product, which then leaves
    # float64's normal range: the solve goes on in the log domain from the
    # iterate before that sweep.
    bp = kernel_path_problems()["dense"]
    k = bp.histograms.shape[0]
    eps = 5e-2 * bp.geom.mean_cost()
    sweep = 5
    original = otkit.geometry.Geometry._gibbs
    products = []

    def faulty(self, e, old):
        gibbs = original(self, e, old)
        kernel = gibbs[0][0]

        def plant():
            products.append(None)
            if len(products) == 2 * (sweep - 1) + 1:
                kernel[0] = entry

        return (watched(kernel, plant),), *gibbs[1:]

    monkeypatch.setattr(otkit.geometry.Geometry, "_gibbs", faulty)
    out = solve_barycenter(bp, eps, threshold=1e-7, max_iters=5000)
    assert len(products) == 2 * sweep and out.iterations > sweep
    # Two log-sum-exps per histogram and sweep, from that sweep on.
    assert lse_calls == ["DenseGeometry"] * 2 * k * (out.iterations - sweep + 1)
    log_domain()
    ref = solve_barycenter(bp, eps, threshold=1e-7, max_iters=5000)
    assert (out.iterations, out.converged) == (ref.iterations, ref.converged)
    npt.assert_allclose(out.barycenter, ref.barycenter, rtol=0, atol=1e-12)


def test_problem_validation():
    geom, _ = line_geometry(5)
    good = np.full((2, 5), 0.2)
    with pytest.raises(ValueError):
        BarycenterProblem(geom, np.full((2, 5), 0.3))
    with pytest.raises(ValueError):
        BarycenterProblem(geom, good, np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        BarycenterProblem(geom, np.full((2, 4), 0.25))
    with pytest.raises(ValueError):
        BarycenterProblem(DenseGeometry(np.zeros((2, 3))), good)
    with pytest.raises(ValueError):
        solve_barycenter(BarycenterProblem(geom, good), -1.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        solve_barycenter(BarycenterProblem(geom, good), float("inf"))


def tiny_eps_problem(kind):
    """Two histograms, one with a zero entry, on 30 cloud points or a 12x12 grid."""
    rng = np.random.default_rng(5)
    if kind == "support":
        pts = rng.random((30, 2))
        geom = PointCloudGeometry(pts, pts)
    else:
        axis = np.linspace(0.0, 1.0, 12)
        geom = GridGeometry([axis, axis])
    hists = rng.random((2, geom.shape[0]))
    hists[0, 4] = 0.0
    hists /= hists.sum(axis=1, keepdims=True)
    return BarycenterProblem(geom, hists)


@pytest.mark.parametrize("eps", [1e-300, 1e-310, 5e-324])
@pytest.mark.parametrize("kind", ["support", "grid"])
def test_eps_too_small_diverges_or_stays_finite(kind, eps):
    bp = tiny_eps_problem(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = solve_barycenter(bp, eps)
        except DivergedError as err:
            assert err.iteration >= 1
            return
    assert not out.converged
    assert np.all(np.isfinite(out.barycenter))

"""Fixed-support barycenters via iterative Bregman projections."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from otkit import (
    BarycenterProblem,
    DenseGeometry,
    GridGeometry,
    PointCloudGeometry,
    solve_barycenter,
)
from otkit.errors import DivergedError


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

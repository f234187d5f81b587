"""The library's compatibility surface: exported names, their signatures,
and the public methods of the geometries. Everything below it may change."""

import ast
import inspect
import pathlib

import numpy as np
import pytest

import otkit

SOFT_SORT_DEFAULTS = "(x, spec=SoftSortSpec(num_targets=None, eps=0.01, squash='minmax'), *, threshold=0.0001, max_iters=10000)"

# Recorded from the library; None where the callable has no signature.
SIGNATURES = {
    "OtkitError": None,
    "DivergedError": "(message, iteration)",
    "Geometry": "()",
    "DenseGeometry": "(cost, epsilon_default=None)",
    "PointCloudGeometry": "(x, y, cost_fn='sqeucl', epsilon_default=None, block_size=None)",
    "GridGeometry": "(axes, cost_matrices=None, epsilon_default=None)",
    "EpsilonSchedule": "(target, init_scale=1.0, decay=1.0)",
    "LinearProblem": "(geom, a=None, b=None)",
    "SinkhornOutput": "(f, g, errors, dual_trace, iterations, converged, eps)",
    "Coupling": "(shape, source)",
    "RegOTCost": "(transport_cost, dual_objective)",
    "solve_sinkhorn": "(prob, eps=None, *, threshold=0.001, max_iters=2000, inner_iters=10)",
    "transport_matrix": "(out, prob)",
    "reg_ot_cost": "(out, prob)",
    "grad_weights": "(out, prob)",
    "grad_points": "(out, prob)",
    "LowRankFactors": "(q, r, g)",
    "LowRankOutput": "(factors, costs, iterations, converged)",
    "solve_lr_sinkhorn": "(prob, rank, *, gamma=None, threshold=1e-06, max_iters=1000, inner_iters=10, seed=0)",
    "lr_coupling": "(factors)",
    "QuadraticProblem": "(geom_x, geom_y, a=None, b=None)",
    "GWOutput": "(coupling, gw_cost, outer_iterations, cost_trace, converged)",
    "gw_objective": "(qp, plan, method='expansion')",
    "gw_linearized_cost": "(qp, plan)",
    "solve_gw": (
        "(qp, *, eps=None, eps_rel=0.01, outer_iters=20, outer_threshold=1e-05, "
        "inner_threshold=0.001, inner_max_iters=2000)"
    ),
    "BarycenterProblem": "(geom, histograms, weights=None)",
    "BarycenterOutput": "(barycenter, converged, iterations, eps)",
    "solve_barycenter": "(bp, eps=None, *, threshold=0.0001, max_iters=1000)",
    "SoftSortSpec": "(num_targets=None, eps=0.01, squash='minmax')",
    "sort_transport": SOFT_SORT_DEFAULTS,
    "soft_sort": SOFT_SORT_DEFAULTS,
    "soft_rank": SOFT_SORT_DEFAULTS,
    "Gaussian": "(mean, cov)",
    "GaussianMixture": "(weights, components)",
    "GMMDistance": "(value, coupling, converged=True)",
    "bures_w2": "(g1, g2)",
    "gmm_distance": "(mix1, mix2, *, eps_rel=0.001, threshold=1e-12, max_iters=50000)",
    "OracleResult": "(value, argmin)",
    "exact_lp_uniform": "(cost)",
    "exact_gw_2x2": "(cost_x, cost_y, a, b)",
    "finite_diff": "(fn, point, step=1e-05)",
}

NON_CALLABLE = ["__version__", "COST_FNS", "DEFAULT_EPSILON_SCALE"]

GEOMETRY_METHODS = {
    "apply_kernel": "(self, v, eps=None, axis='rows')",
    "apply_lse_kernel": "(self, f, g, eps=None, axis='rows')",
    "cost_matrix": "(self, max_entries=None)",
    "epsilon_default": "property",
    "mean_cost": "(self)",
    "shape": "property",
}


def bare_signature(obj) -> str | None:
    """The signature without annotations, which vary across Python versions."""
    try:
        sig = inspect.signature(obj)
    except ValueError:
        return None
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))


def test_exported_names_are_unchanged():
    assert sorted(otkit.__all__) == sorted(NON_CALLABLE + list(SIGNATURES))
    assert len(otkit.__all__) == len(set(otkit.__all__))
    assert [name for name in otkit.__all__ if not callable(getattr(otkit, name))] == NON_CALLABLE


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_exported_signatures_are_unchanged(name):
    assert bare_signature(getattr(otkit, name)) == SIGNATURES[name]


@pytest.mark.parametrize("cls", [otkit.DenseGeometry, otkit.PointCloudGeometry, otkit.GridGeometry])
def test_geometry_public_methods_are_unchanged(cls):
    methods = {}
    for name in dir(cls):
        attr = inspect.getattr_static(cls, name)
        if name.startswith("_") or not (callable(attr) or isinstance(attr, property)):
            continue
        methods[name] = "property" if isinstance(attr, property) else bare_signature(attr)
    assert methods == GEOMETRY_METHODS


def count_call_args():
    """name -> the positional arguments of a small call to that export."""
    x = np.linspace(0.0, 1.0, 4)[:, None]
    cloud = otkit.PointCloudGeometry(x, x)
    lin = otkit.LinearProblem(otkit.PointCloudGeometry(x, x + 0.5))
    return {
        "solve_sinkhorn": (lin,),
        "solve_barycenter": (otkit.BarycenterProblem(cloud, np.full((2, 4), 0.25)),),
        "solve_gw": (otkit.QuadraticProblem(cloud, cloud),),
        "solve_lr_sinkhorn": (lin, 2),
        "SoftSortSpec": (),
    }


@pytest.mark.parametrize(
    "name, keyword",
    [
        ("solve_sinkhorn", "max_iters"),
        ("solve_sinkhorn", "inner_iters"),
        ("solve_barycenter", "max_iters"),
        ("solve_gw", "outer_iters"),
        ("solve_gw", "inner_max_iters"),
        ("solve_lr_sinkhorn", "max_iters"),
        ("solve_lr_sinkhorn", "inner_iters"),
        ("SoftSortSpec", "num_targets"),
    ],
)
def test_iteration_counts_must_be_integers(name, keyword):
    # A float count is refused by name, even an integral one; a numpy
    # integer is a count.
    call, args = getattr(otkit, name), count_call_args()[name]
    for value in (2.5, 3.0):
        with pytest.raises(ValueError, match=f"^{keyword} must be an integer, got {value!r}$"):
            call(*args, **{keyword: value})
    call(*args, **{keyword: np.int64(3)})


def test_block_size_must_be_none_or_a_positive_integer():
    # The iteration counts' rule: a float or a string is refused by name,
    # not truncated or left to a TypeError.
    x = np.linspace(0.0, 1.0, 4)[:, None]
    for value in (2.5, 3.0, "64"):
        with pytest.raises(ValueError, match=f"^block_size must be an integer, got {value!r}$"):
            otkit.PointCloudGeometry(x, x, block_size=value)
    for value in (0, -1):
        with pytest.raises(ValueError, match="^block_size must be >= 1$"):
            otkit.PointCloudGeometry(x, x, block_size=value)
    assert otkit.PointCloudGeometry(x, x, block_size=np.int64(3)).block_size == 3
    assert otkit.PointCloudGeometry(x, x).block_size is None


@pytest.mark.parametrize(
    "keyword, value, message",
    [
        ("inner_max_iters", 0, "inner_max_iters must be >= 1"),
        ("inner_max_iters", -3, "inner_max_iters must be >= 1"),
        ("outer_iters", 0, "outer_iters must be >= 1"),
        ("inner_threshold", 0.0, "inner_threshold must be positive"),
        ("inner_threshold", float("nan"), "inner_threshold must be positive"),
        ("outer_threshold", -1.0, "outer_threshold must be positive"),
    ],
)
def test_solve_gw_names_each_refused_count_and_threshold_before_any_work(monkeypatch, keyword, value, message):
    def no_work(*args):
        raise AssertionError("solve_gw started work on a refused option")

    monkeypatch.setattr("otkit.quadratic._SquareLoss", no_work)
    monkeypatch.setattr("otkit.quadratic._sinkhorn_iterations", no_work)
    with pytest.raises(ValueError, match=f"^{message}$"):
        otkit.solve_gw(*count_call_args()["solve_gw"], **{keyword: value})


def test_one_place_outside_the_geometries_makes_plan_blocks():
    # Every coupling is reduced through ``Coupling``; the Sinkhorn one makes
    # its blocks from the potentials in ``sinkhorn._coupling``.
    package = pathlib.Path(otkit.__file__).parent
    calls = [
        (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        if path.name != "geometry.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_plan_blocks"
    ]
    assert [name for name, _ in calls] == ["sinkhorn.py"], calls

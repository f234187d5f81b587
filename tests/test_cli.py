"""CLI contract: library round-trips, exit codes, file artifacts."""

import gzip
import io
import json
import logging
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from otkit import (
    BarycenterProblem,
    DenseGeometry,
    Geometry,
    GridGeometry,
    LinearProblem,
    PointCloudGeometry,
    QuadraticProblem,
    SoftSortSpec,
    gmm_distance,
    grad_points,
    lowrank,
    lr_coupling,
    reg_ot_cost,
    soft_rank,
    soft_sort,
    solve_barycenter,
    solve_gw,
    solve_lr_sinkhorn,
    solve_sinkhorn,
    sort_transport,
    transport_matrix,
)
from otkit.cli import _build_parser, main
from otkit.fileio import read_gmm, read_matrix, read_vector, write_json_atomic, write_matrix_atomic


def write_csv(path, rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    return str(path)


def write_gmm(path, weights, means, covs):
    path.write_text(json.dumps({"weights": weights, "means": means, "covs": covs}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


@pytest.fixture
def two_point_files(tmp_path):
    x = write_csv(tmp_path / "x.csv", [[0.0], [1.0]])
    y = write_csv(tmp_path / "y.csv", [[0.5], [2.0]])
    return x, y


# ---- lin ----


def test_lin_identical_single_points_cost_zero(tmp_path, capsys):
    x = write_csv(tmp_path / "x.csv", [[0.5]])
    y = write_csv(tmp_path / "y.csv", [[0.5]])
    code, payload, _ = run(capsys, ["lin", "--x", x, "--y", y, "--eps", "1.0"])
    assert code == 0
    assert payload["transport_cost"] == 0.0
    assert payload["converged"] is True


def test_lin_matches_the_library_bitwise(tmp_path, capsys, two_point_files):
    x, y = two_point_files
    coupling_path = tmp_path / "coupling.csv"
    code, payload, _ = run(
        capsys,
        ["lin", "--x", x, "--y", y, "--eps-rel", "1e-3", "--coupling-out", str(coupling_path)],
    )
    assert code == 0
    assert abs(payload["transport_cost"] - 0.625) <= 1e-2

    geom = PointCloudGeometry(read_matrix(x), read_matrix(y))
    prob = LinearProblem(geom)
    out = solve_sinkhorn(prob, 1e-3 * geom.mean_cost())
    costs = reg_ot_cost(out, prob)
    assert payload["transport_cost"] == costs.transport_cost
    assert payload["dual_objective"] == costs.dual_objective
    assert payload["iterations"] == out.iterations
    assert payload["eps"] == out.eps
    npt.assert_array_equal(read_matrix(str(coupling_path)), transport_matrix(out, prob).matrix)
    # The writer behind --coupling-out also round-trips signed zeros,
    # subnormals and extreme exponents bitwise.
    edges = np.array([[-0.0, 5e-324, 1e-300], [0.1, 1.0 / 3.0, -1.7976931348623157e308]])
    write_matrix_atomic(str(coupling_path), edges)
    back = read_matrix(str(coupling_path))
    npt.assert_array_equal(back, edges)
    assert np.signbit(back[0, 0])


def test_lin_low_rank_matches_the_library_bitwise(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = write_csv(tmp_path / "x.csv", rng.random((4, 2)))
    y = write_csv(tmp_path / "y.csv", rng.random((3, 2)))
    code, payload, _ = run(
        capsys, ["lin", "--x", x, "--y", y, "--solver", "lr", "--rank", "1"]
    )
    assert code == 0
    geom = PointCloudGeometry(read_matrix(x), read_matrix(y))
    prob = LinearProblem(geom)
    out = solve_lr_sinkhorn(prob, 1, seed=0)
    assert payload["transport_cost"] == float(out.costs[-1])
    assert payload["rank"] == 1
    independent = prob.a @ geom.cost_matrix() @ prob.b
    assert abs(payload["transport_cost"] - independent) <= 1e-6


def test_lin_cost_matrix_input_with_weights(tmp_path, capsys):
    cost = write_csv(tmp_path / "cost.csv", [[0.0, 1.0], [1.0, 0.0]])
    a = write_csv(tmp_path / "a.csv", [[0.3, 0.7]])
    b = write_csv(tmp_path / "b.csv", [[0.6, 0.4]])
    code, payload, _ = run(
        capsys, ["lin", "--cost-matrix", cost, "--a", a, "--b", b, "--eps", "0.05"]
    )
    assert code == 0
    assert payload["solver"] == "sinkhorn"
    assert payload["transport_cost"] > 0


def test_lin_verify_reports_the_lp_gap(tmp_path, capsys, two_point_files):
    x, y = two_point_files
    code, payload, _ = run(
        capsys, ["lin", "--x", x, "--y", y, "--eps-rel", "1e-3", "--verify"]
    )
    assert code == 0
    assert payload["verify"]["oracle_value"] == pytest.approx(0.625, abs=1e-12)
    assert abs(payload["verify"]["gap"]) <= 1e-2


def test_lin_verify_skips_nonsquare_problems(tmp_path, capsys):
    x = write_csv(tmp_path / "x.csv", [[0.0], [1.0], [2.0]])
    y = write_csv(tmp_path / "y.csv", [[0.5], [2.0]])
    code, payload, _ = run(capsys, ["lin", "--x", x, "--y", y, "--verify"])
    assert code == 0
    assert "skipped" in payload["verify"]


def test_lin_exits_two_when_the_solver_stalls(tmp_path, capsys):
    rng = np.random.default_rng(1)
    x = write_csv(tmp_path / "x.csv", rng.random((3, 2)))
    y = write_csv(tmp_path / "y.csv", rng.random((3, 2)))
    code, payload, _ = run(
        capsys,
        ["lin", "--x", x, "--y", y, "--threshold", "1e-15", "--max-iters", "10"],
    )
    assert code == 2
    assert payload["converged"] is False


def test_lin_low_rank_exits_two_when_no_step_is_acceptable(tmp_path, capsys, infeasible_after_first_step):
    rng = np.random.default_rng(0)
    x = write_csv(tmp_path / "x.csv", rng.random((6, 2)))
    y = write_csv(tmp_path / "y.csv", rng.random((5, 2)))
    code, payload, _ = run(
        capsys, ["lin", "--x", x, "--y", y, "--solver", "lr", "--rank", "2"]
    )
    assert code == 2
    assert payload["converged"] is False
    assert payload["iterations"] == 2


def test_lin_low_rank_exits_two_when_the_start_cannot_be_projected(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lowrank, "_newton", lambda *args: None)
    rng = np.random.default_rng(0)
    x = write_csv(tmp_path / "x.csv", rng.random((6, 2)))
    y = write_csv(tmp_path / "y.csv", rng.random((5, 2)))
    code, payload, err = run(
        capsys, ["lin", "--x", x, "--y", y, "--solver", "lr", "--rank", "2"]
    )
    assert code == 2
    assert payload is None
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")
    assert "(iteration 0)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lin"],
        ["lin", "--x", "x.csv"],
        ["lin", "--cost-matrix", "c.csv", "--x", "x.csv", "--y", "y.csv"],
        ["lin", "--x", "{x}", "--y", "{y}", "--eps", "1", "--eps-rel", "1"],
        ["lin", "--x", "{x}", "--y", "{y}", "--solver", "lr"],
        ["lin", "--x", "{x}", "--y", "{y}", "--unknown-flag"],
        ["lin", "--x", "missing-file.csv", "--y", "{y}"],
        ["frobnicate"],
        [],
        ["quad", "--x", "{x}", "--y", "{y}", "--eps", "1", "--eps-rel", "1"],
        ["quad", "--x", "{x}", "--y", "{y}", "--eps-rel", "-1"],
        ["quad", "--x", "{x}", "--y", "{y}", "--eps-rel", "0"],
        ["lin", "--x", "{x}", "--y", "{y}", "--eps", "inf"],
        ["lin", "--x", "{x}", "--y", "{y}", "--eps-rel", "inf"],
        ["quad", "--x", "{x}", "--y", "{y}", "--eps", "inf"],
        ["quad", "--x", "{x}", "--y", "{y}", "--eps-rel", "inf"],
        ["softsort", "--values", "3,1,2", "--eps", "inf"],
        ["softsort", "--values", "1,2,3", "--eps-sweep", "1e-2,inf,3"],
        ["barycenter", "--support", "{x}", "--hist", "{h}", "--hist", "{h}", "--eps", "inf"],
        ["lin", "--x", "{x}", "--y", "{y}", "--solver", "lr", "--rank", "1", "--threshold", "-1"],
        ["barycenter", "--hist", "{h}"],
        ["lin", "--x", "{x}", "--y", "{y}", "--a", "{negative}"],
        ["lin", "--x", "{x}", "--y", "{y}", "--a", "{nan}"],
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_input_errors_exit_one(tmp_path, capsys, two_point_files, argv):
    x, y = two_point_files
    h = write_csv(tmp_path / "h.csv", [0.25, 0.75])
    # Sums to 1, so only the library's sign check turns it away.
    negative = write_csv(tmp_path / "negative.csv", [1.5, -0.5])
    nan = write_csv(tmp_path / "nan.csv", [np.nan, 0.5])
    argv = [token.format(x=x, y=y, h=h, negative=negative, nan=nan) for token in argv]
    code, payload, err = run(capsys, argv)
    assert code == 1
    assert payload is None
    assert err.startswith("error:")


def test_lin_rejects_weights_off_the_simplex(tmp_path, capsys, two_point_files):
    x, y = two_point_files
    a = write_csv(tmp_path / "a.csv", [[0.9, 0.9]])
    code, _, err = run(capsys, ["lin", "--x", x, "--y", y, "--a", a])
    assert code == 1
    assert "sums to" in err


def test_lin_weight_errors_read_plain_numbers(tmp_path, capsys, two_point_files):
    x, y = two_point_files
    a = write_csv(tmp_path / "a.csv", [np.nan, 0.5])
    code, _, err = run(capsys, ["lin", "--x", x, "--y", y, "--a", a])
    assert code == 1
    assert err == "error: a sums to nan; expected 1 (within 1e-6)\n"


def test_lin_rescales_weights_near_one_with_one_warning(tmp_path, capsys, caplog, two_point_files):
    x, y = two_point_files
    w = np.array([0.5, 0.5 + 5e-7])
    a = write_csv(tmp_path / "a.csv", w)
    code, payload, _ = run(capsys, ["lin", "--x", x, "--y", y, "--a", a, "--eps", "0.1"])
    assert code == 0
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert [r.getMessage() for r in warnings] == ["a sums to 1.0000005; rescaling to 1"]
    prob = LinearProblem(PointCloudGeometry(read_matrix(x), read_matrix(y)), w / w.sum())
    out = solve_sinkhorn(prob, 0.1)
    costs = reg_ot_cost(out, prob)
    assert payload == {
        "command": "lin",
        "solver": "sinkhorn",
        "transport_cost": costs.transport_cost,
        "dual_objective": costs.dual_objective,
        "iterations": out.iterations,
        "converged": out.converged,
        "eps": out.eps,
    }


def test_lin_low_rank_ignores_eps_with_a_warning(tmp_path, capsys, caplog):
    rng = np.random.default_rng(0)
    x = write_csv(tmp_path / "x.csv", rng.random((4, 2)))
    y = write_csv(tmp_path / "y.csv", rng.random((3, 2)))
    argv = ["lin", "--x", x, "--y", y, "--solver", "lr", "--rank", "1"]
    _, reference, _ = run(capsys, argv)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    for eps in (["--eps", "0.1"], ["--eps-rel", "0.1"]):
        caplog.clear()
        code, payload, _ = run(capsys, argv + eps)
        assert code == 0 and payload == reference
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert [r.getMessage() for r in warnings] == [
            "the low-rank solver has no entropic eps; ignoring --eps/--eps-rel"
        ]


def test_lin_streams_costs_above_the_materialization_cap(tmp_path, capsys, monkeypatch, lse_calls):
    rng = np.random.default_rng(7)
    x = write_csv(tmp_path / "x.csv", rng.random((10, 2)))
    y = write_csv(tmp_path / "y.csv", rng.random((10, 2)))
    argv = ["lin", "--x", x, "--y", y, "--eps-rel", "0.1"]
    _, reference, _ = run(capsys, argv)
    monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", 50)  # below 10 x 10
    code, payload, _ = run(capsys, argv)
    assert code == 0
    assert lse_calls == []  # the solve ran on the streamed kernel
    for key in ("transport_cost", "dual_objective"):
        assert payload[key] == pytest.approx(reference[key], rel=1e-12, abs=0)
    # Only the dense coupling is refused: exit 1 before any solve, and
    # nothing is written.
    solves = []

    def no_solve(*args, **kwargs):
        solves.append(args)
        raise AssertionError("solver called for a refused --coupling-out")

    monkeypatch.setattr("otkit.cli.solve_sinkhorn", no_solve)
    monkeypatch.setattr("otkit.cli.solve_lr_sinkhorn", no_solve)
    coupling_path = tmp_path / "coupling.csv"
    for solver in (["--solver", "sinkhorn"], ["--solver", "lr", "--rank", "2"]):
        code, payload, err = run(capsys, argv + solver + ["--coupling-out", str(coupling_path)])
        assert code == 1 and payload is None
        assert "exceeds the materialization cap" in err
    assert solves == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "y.csv"]
    geom = PointCloudGeometry(read_matrix(x), read_matrix(y))
    prob = LinearProblem(geom)
    out = solve_sinkhorn(prob, 0.1 * geom.mean_cost())
    assert reg_ot_cost(out, prob).transport_cost == pytest.approx(reference["transport_cost"], rel=1e-12)
    assert np.all(np.isfinite(grad_points(out, prob)))
    with pytest.raises(ValueError, match="materialization cap"):
        transport_matrix(out, prob)


# ---- quad ----


def test_quad_matches_the_library_bitwise(tmp_path, capsys):
    x = write_csv(tmp_path / "x.csv", [[0.0], [1.0]])
    y = write_csv(tmp_path / "y.csv", [[0.0], [2.0]])
    coupling_path = tmp_path / "coupling.csv"
    corr_path = tmp_path / "corr.csv"
    code, payload, _ = run(
        capsys,
        [
            "quad",
            "--x",
            x,
            "--y",
            y,
            "--cost",
            "eucl",
            "--verify",
            "--coupling-out",
            str(coupling_path),
            "--correspondence-out",
            str(corr_path),
        ],
    )
    assert code == 0
    assert abs(payload["gw_cost"] - 0.5) <= 0.05
    assert abs(payload["verify"]["gap"]) <= 0.05

    points_x = read_matrix(x)
    points_y = read_matrix(y)
    qp = QuadraticProblem(
        PointCloudGeometry(points_x, points_x, "eucl"),
        PointCloudGeometry(points_y, points_y, "eucl"),
    )
    out = solve_gw(qp)
    assert payload["gw_cost"] == out.gw_cost
    assert payload["cost_trace"] == out.cost_trace.tolist()
    npt.assert_array_equal(read_matrix(str(coupling_path)), out.coupling.matrix)

    lines = corr_path.read_text().strip().splitlines()
    assert len(lines) == 2
    partners = out.coupling.matrix.argmax(axis=1)
    for i, line in enumerate(lines):
        row, col, mass = line.split(",")
        assert int(row) == i
        assert int(col) == partners[i]
        assert float(mass) == out.coupling.matrix[i, partners[i]]


@pytest.mark.parametrize(
    "flags, kwargs",
    [
        (["--eps", "0.005", "--threshold", "1e-4", "--max-iters", "10"],
         {"eps": 0.005, "outer_threshold": 1e-4, "outer_iters": 10}),
        (["--eps-rel", "0.2", "--max-iters", "2"], {"eps_rel": 0.2, "outer_iters": 2}),
    ],
)
def test_quad_solver_flags_match_the_library_bitwise(tmp_path, capsys, flags, kwargs):
    rng = np.random.default_rng(3)
    points_x = rng.random((5, 2))
    points_y = rng.random((4, 2))
    x = write_csv(tmp_path / "x.csv", points_x)
    y = write_csv(tmp_path / "y.csv", points_y)
    code, payload, _ = run(capsys, ["quad", "--x", x, "--y", y] + flags)
    points_x, points_y = read_matrix(x), read_matrix(y)
    qp = QuadraticProblem(
        PointCloudGeometry(points_x, points_x), PointCloudGeometry(points_y, points_y)
    )
    out = solve_gw(qp, **kwargs)
    assert code == (0 if out.converged else 2)
    assert payload == {
        "command": "quad",
        "gw_cost": out.gw_cost,
        "outer_iterations": out.outer_iterations,
        "converged": out.converged,
        "cost_trace": out.cost_trace.tolist(),
    }


def test_quad_verify_skips_problems_other_than_two_by_two(tmp_path, capsys):
    x = write_csv(tmp_path / "x.csv", [[0.0], [1.0], [3.0]])
    y = write_csv(tmp_path / "y.csv", [[0.0], [2.0]])
    _, reference, _ = run(capsys, ["quad", "--x", x, "--y", y])
    code, payload, _ = run(capsys, ["quad", "--x", x, "--y", y, "--verify"])
    assert code == (0 if reference["converged"] else 2)
    assert payload == {**reference, "verify": {"skipped": "exact GW oracle needs n == m == 2"}}


def test_quad_reports_no_step_when_every_cost_is_zero(tmp_path, capsys):
    x = write_csv(tmp_path / "x.csv", [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    y = write_csv(tmp_path / "y.csv", [[0.5]])
    code, payload, _ = run(capsys, ["quad", "--x", x, "--y", y])
    assert code == 0
    assert payload["outer_iterations"] == 0
    assert payload["cost_trace"] == [0.0]
    assert len(payload["cost_trace"]) == payload["outer_iterations"] + 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quad_exits_two_when_an_inner_solve_diverges(tmp_path, capsys):
    cloud = write_csv(tmp_path / "c.csv", np.random.default_rng(0).random((6, 2)))
    code, payload, err = run(capsys, ["quad", "--x", cloud, "--y", cloud, "--eps", "5e-324"])
    assert code == 2
    assert payload is None
    assert err.startswith("error: inner Sinkhorn solve diverged")


# ---- barycenter ----


def test_barycenter_matches_the_library_bitwise(tmp_path, capsys):
    pts = np.linspace(0.0, 1.0, 11)
    support = write_csv(tmp_path / "support.csv", pts[:, None])
    h1 = np.zeros(11)
    h1[2] = 1.0
    h2 = np.zeros(11)
    h2[8] = 1.0
    hist1 = write_csv(tmp_path / "h1.csv", [h1])
    hist2 = write_csv(tmp_path / "h2.csv", [h2])
    out_path = tmp_path / "bary.csv"
    code, payload, _ = run(
        capsys,
        [
            "barycenter",
            "--support",
            support,
            "--hist",
            hist1,
            "--hist",
            hist2,
            "--weights",
            "0.5,0.5",
            "--eps-rel",
            "1e-3",
            "--barycenter-out",
            str(out_path),
        ],
    )
    assert code == 0
    geom = PointCloudGeometry(read_matrix(support), read_matrix(support))
    bp = BarycenterProblem(geom, np.stack([h1, h2]), np.array([0.5, 0.5]))
    out = solve_barycenter(bp, 1e-3 * geom.mean_cost())
    assert payload["barycenter"] == out.barycenter.tolist()
    assert payload["iterations"] == out.iterations
    npt.assert_array_equal(read_matrix(str(out_path)).reshape(-1), out.barycenter)
    assert int(np.argmax(out.barycenter)) == 5


@pytest.mark.parametrize(
    "flags, kwargs",
    [
        (["--threshold", "1e-8", "--max-iters", "7"], {"threshold": 1e-8, "max_iters": 7}),
        (["--threshold", "1e-2"], {"threshold": 1e-2}),
    ],
)
def test_barycenter_solver_flags_match_the_library_bitwise(tmp_path, capsys, flags, kwargs):
    rng = np.random.default_rng(4)
    support = write_csv(tmp_path / "support.csv", rng.random((8, 2)))
    hists = rng.random((3, 8))
    hists /= hists.sum(axis=1, keepdims=True)
    hist_args = []
    for i, h in enumerate(hists):
        hist_args += ["--hist", write_csv(tmp_path / f"h{i}.csv", h[:, None])]
    code, payload, _ = run(capsys, ["barycenter", "--support", support, *hist_args, "--eps", "0.01", *flags])
    points = read_matrix(support)
    bp = BarycenterProblem(PointCloudGeometry(points, points), np.stack([read_vector(p) for p in hist_args[1::2]]))
    out = solve_barycenter(bp, 0.01, **kwargs)
    assert code == (0 if out.converged else 2)
    assert payload == {
        "command": "barycenter",
        "converged": out.converged,
        "iterations": out.iterations,
        "eps": out.eps,
        "num_histograms": 3,
        "support_size": 8,
        "barycenter": out.barycenter.tolist(),
    }


def test_barycenter_grid_mode_matches_the_library(tmp_path, capsys):
    pts = np.linspace(0.0, 1.0, 11)
    axis = write_csv(tmp_path / "axis.csv", pts[:, None])
    h1 = np.zeros(11)
    h1[2] = 1.0
    h2 = np.zeros(11)
    h2[8] = 1.0
    hist1 = write_csv(tmp_path / "h1.csv", [h1])
    hist2 = write_csv(tmp_path / "h2.csv", [h2])
    code, payload, _ = run(
        capsys,
        ["barycenter", "--grid", axis, "--hist", hist1, "--hist", hist2, "--eps-rel", "1e-3"],
    )
    assert code == 0
    geom = GridGeometry([read_vector(axis)])
    bp = BarycenterProblem(geom, np.stack([h1, h2]))
    out = solve_barycenter(bp, 1e-3 * geom.mean_cost())
    assert payload["barycenter"] == out.barycenter.tolist()


@pytest.mark.parametrize("eps", ["1e-300", "1e-310", "5e-324"])
@pytest.mark.parametrize("kind", ["support", "grid"])
def test_barycenter_exits_two_when_eps_is_too_small(tmp_path, capsys, kind, eps):
    rng = np.random.default_rng(5)
    if kind == "support":
        geom_args = ["--support", write_csv(tmp_path / "support.csv", rng.random((30, 2)))]
        size = 30
    else:
        axis = write_csv(tmp_path / "axis.csv", np.linspace(0.0, 1.0, 12)[:, None])
        geom_args = ["--grid", axis, axis]
        size = 144
    hists = rng.random((2, size))
    hists[0, 4] = 0.0
    hists /= hists.sum(axis=1, keepdims=True)
    hist_args = []
    for i, h in enumerate(hists):
        hist_args += ["--hist", write_csv(tmp_path / f"h{i}.csv", h[:, None])]
    code, _, err = run(capsys, ["barycenter", *geom_args, *hist_args, "--eps", eps, "--max-iters", "50"])
    assert code == 2, err


def test_barycenter_exits_two_with_a_finite_payload_when_every_entry_underflows(tmp_path, capsys):
    # After one iteration log p is about -1250 everywhere, so p = exp(log p) is all zero.
    support = write_csv(tmp_path / "support.csv", np.linspace(0.0, 1.0, 11)[:, None])
    hist_args = []
    for i, index in enumerate((0, 10)):
        h = np.zeros(11)
        h[index] = 1.0
        hist_args += ["--hist", write_csv(tmp_path / f"h{i}.csv", h[:, None])]
    argv = ["barycenter", "--support", support, *hist_args, "--eps-rel", "1e-3", "--max-iters", "1"]
    code, payload, err = run(capsys, argv)
    assert code == 2, err
    assert payload["converged"] is False
    bary = np.array(payload["barycenter"])
    assert np.all(np.isfinite(bary)) and abs(bary.sum() - 1.0) <= 1e-12


def test_barycenter_names_a_histogram_of_the_wrong_length(tmp_path, capsys):
    support = write_csv(tmp_path / "support.csv", np.linspace(0.0, 1.0, 5)[:, None])
    h0 = write_csv(tmp_path / "h0.csv", np.full(5, 0.2)[:, None])
    h1 = write_csv(tmp_path / "h1.csv", np.full(4, 0.25)[:, None])
    code, payload, err = run(capsys, ["barycenter", "--support", support, "--hist", h0, "--hist", h1])
    assert code == 1 and payload is None
    assert "histogram 1 must have shape (5,), got (4,)" in err


def test_barycenter_of_identical_histograms_returns_them(tmp_path, capsys):
    pts = np.linspace(0.0, 1.0, 9)
    support = write_csv(tmp_path / "support.csv", pts[:, None])
    h = np.full(9, 1.0 / 9.0)
    hist = write_csv(tmp_path / "h.csv", [h])
    code, payload, _ = run(
        capsys,
        ["barycenter", "--support", support]
        + ["--hist", hist] * 3
        + ["--eps-rel", "1e-5"],
    )
    assert code == 0
    assert np.abs(np.array(payload["barycenter"]) - h).sum() <= 1e-6


def test_barycenter_weights_from_a_file(tmp_path, capsys):
    pts = np.linspace(0.0, 1.0, 5)
    support = write_csv(tmp_path / "support.csv", pts[:, None])
    hist = write_csv(tmp_path / "h.csv", [np.full(5, 0.2)])
    weights = write_csv(tmp_path / "w.csv", [[0.25, 0.75]])
    code, payload, _ = run(
        capsys,
        ["barycenter", "--support", support, "--hist", hist, "--hist", hist, "--weights", weights],
    )
    assert code == 0
    assert payload["num_histograms"] == 2


def test_barycenter_rejects_support_and_grid_together(tmp_path, capsys):
    support = write_csv(tmp_path / "s.csv", [[0.0], [1.0]])
    hist = write_csv(tmp_path / "h.csv", [[0.5, 0.5]])
    code, _, _ = run(
        capsys,
        ["barycenter", "--support", support, "--grid", support, "--hist", hist],
    )
    assert code == 1


# ---- softsort ----


def test_softsort_inline_values_match_the_library(capsys):
    code, payload, _ = run(capsys, ["softsort", "--values", "1,5,4,8,12", "--eps", "1e-3"])
    assert code == 0
    npt.assert_allclose(payload["sorted_values"], [1.0, 4.0, 5.0, 8.0, 12.0], atol=1e-2)
    x = np.array([1.0, 5.0, 4.0, 8.0, 12.0])
    plan, converged = sort_transport(x, SoftSortSpec(eps=1e-3))
    assert converged
    assert payload["sorted_values"] == (5 * (plan.T @ x)).tolist()
    assert payload["ranks"] == (5 * (plan @ np.arange(5.0))).tolist()


def test_softsort_single_value_passes_through(capsys):
    code, payload, _ = run(capsys, ["softsort", "--values", "7"])
    assert code == 0
    assert payload["sorted_values"] == [7.0]


def test_softsort_file_input_with_fewer_targets(tmp_path, capsys):
    path = write_csv(tmp_path / "v.csv", [[3.0], [1.0], [2.0], [5.0]])
    code, payload, _ = run(capsys, ["softsort", "--input", path, "--num-targets", "2"])
    assert code == 0
    assert len(payload["sorted_values"]) == 2
    assert payload["ranks"] is None


def test_softsort_eps_sweep_flattens_toward_the_mean(capsys):
    code, payload, _ = run(
        capsys, ["softsort", "--values", "1,5,4,8,12", "--eps-sweep", "1e-3,1e3,5"]
    )
    assert code == 0
    sweep = payload["sweep"]
    assert [row["eps"] for row in sweep] == list(np.geomspace(1e-3, 1e3, 5))
    for row in sweep:
        assert np.all(np.diff(row["sorted_values"]) >= -1e-9)
    npt.assert_allclose(sweep[-1]["sorted_values"], 6.0, atol=1e-2)


@pytest.mark.parametrize(
    "flags, spec, kwargs",
    [
        ([], SoftSortSpec(), {}),
        (["--eps", "0.05", "--num-targets", "3"], SoftSortSpec(num_targets=3, eps=0.05), {}),
        (["--num-targets", "5", "--threshold", "1e-8", "--max-iters", "3"], SoftSortSpec(num_targets=5),
         {"threshold": 1e-8, "max_iters": 3}),
    ],
)
def test_softsort_flags_match_the_library_bitwise(capsys, flags, spec, kwargs):
    code, payload, _ = run(capsys, ["softsort", "--values", "1,5,4,8,12", *flags])
    x = np.array([1.0, 5.0, 4.0, 8.0, 12.0])
    plan, converged = sort_transport(x, spec, **kwargs)
    assert code == (0 if converged else 2)
    assert payload == {
        "command": "softsort",
        "eps": spec.eps,
        "converged": converged,
        "sorted_values": (plan.shape[1] * (plan.T @ x)).tolist(),
        "ranks": (5 * (plan @ np.arange(5.0))).tolist() if plan.shape == (5, 5) else None,
    }


def test_softsort_streams_plans_above_the_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", 20)  # below 5 x 5
    path = write_csv(tmp_path / "v.csv", [[1.0], [5.0], [4.0], [8.0], [12.0]])
    code, payload, err = run(capsys, ["softsort", "--input", path])
    x = np.array([1.0, 5.0, 4.0, 8.0, 12.0])
    assert code == 0 and err == ""
    assert payload["sorted_values"] == soft_sort(x).tolist()
    assert payload["ranks"] == soft_rank(x).tolist()


def test_softsort_squashes_the_widest_finite_inputs(capsys):
    # "=" keeps argparse from reading the leading "-" as a flag.
    code, payload, _ = run(capsys, ["softsort", "--values=-1e308,1e308"])
    assert code == 0
    assert payload["sorted_values"] == soft_sort(np.array([-1e308, 1e308])).tolist()


@pytest.mark.parametrize(
    "argv",
    [
        ["softsort"],
        ["softsort", "--values", "1,2", "--input", "v.csv"],
        ["softsort", "--values", "1,two,3"],
        ["softsort", "--values", "1,2", "--eps-sweep", "5,1,3"],
        ["softsort", "--values", "1,2", "--eps-sweep", "nonsense"],
    ],
)
def test_softsort_input_errors(capsys, argv):
    code, payload, err = run(capsys, argv)
    assert code == 1
    assert payload is None
    assert err.startswith("error:")


# ---- gmm ----


def test_gmm_matches_the_library_bitwise(tmp_path, capsys):
    m1 = write_gmm(tmp_path / "m1.json", [1.0], [[0.0]], [[[1.0]]])
    m2 = write_gmm(tmp_path / "m2.json", [1.0], [[2.0]], [[[4.0]]])
    code, payload, _ = run(capsys, ["gmm", "--m1", m1, "--m2", m2])
    assert code == 0
    assert abs(payload["value"] - 5.0) <= 1e-6
    result = gmm_distance(read_gmm(m1), read_gmm(m2))
    assert payload["value"] == result.value
    assert payload["coupling"] == result.coupling.tolist()


@pytest.mark.parametrize(
    "flags, kwargs",
    [
        (["--eps-rel", "0.05", "--threshold", "1e-9", "--max-iters", "500"],
         {"eps_rel": 0.05, "threshold": 1e-9, "max_iters": 500}),
        (["--eps-rel", "0.5", "--max-iters", "1"], {"eps_rel": 0.5, "max_iters": 1}),
    ],
)
def test_gmm_solver_flags_match_the_library_bitwise(tmp_path, capsys, flags, kwargs):
    m1 = write_gmm(tmp_path / "m1.json", [0.3, 0.7], [[0.0], [3.0]], [[[1.0]], [[0.5]]])
    m2 = write_gmm(tmp_path / "m2.json", [0.6, 0.4], [[1.0], [2.0]], [[[2.0]], [[1.0]]])
    code, payload, _ = run(capsys, ["gmm", "--m1", m1, "--m2", m2, *flags])
    result = gmm_distance(read_gmm(m1), read_gmm(m2), **kwargs)
    assert code == (0 if result.converged else 2)
    assert payload == {
        "command": "gmm",
        "value": result.value,
        "converged": result.converged,
        "coupling": result.coupling.tolist(),
    }


def test_gmm_identical_files_are_at_distance_zero(tmp_path, capsys):
    spec = dict(
        weights=[0.4, 0.6],
        means=[[0.0, 0.0], [4.0, 4.0]],
        covs=[[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.3], [0.3, 1.0]]],
    )
    m1 = write_gmm(tmp_path / "m1.json", **spec)
    m2 = write_gmm(tmp_path / "m2.json", **spec)
    code, payload, _ = run(capsys, ["gmm", "--m1", m1, "--m2", m2])
    assert code == 0
    assert payload["value"] <= 1e-6


def test_gmm_separated_components_map_near_diagonally(tmp_path, capsys):
    m1 = write_gmm(
        tmp_path / "m1.json", [0.5, 0.5], [[0.0], [30.0]], [[[1.0]], [[1.0]]]
    )
    m2 = write_gmm(
        tmp_path / "m2.json", [0.5, 0.5], [[1.0], [31.0]], [[[1.5]], [[0.5]]]
    )
    code, payload, _ = run(capsys, ["gmm", "--m1", m1, "--m2", m2])
    assert code == 0
    coupling = np.array(payload["coupling"])
    assert coupling[0, 0] + coupling[1, 1] >= 0.99


@pytest.mark.parametrize(
    "content",
    ["not json at all", json.dumps({"weights": [1.0], "means": [[0.0]]})],
)
def test_gmm_rejects_malformed_mixture_files(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    good = write_gmm(tmp_path / "good.json", [1.0], [[0.0]], [[[1.0]]])
    code, _, err = run(capsys, ["gmm", "--m1", str(bad), "--m2", good])
    assert code == 1
    assert err.startswith("error:")


# ---- shared behavior ----


def test_out_flag_writes_the_same_payload_to_a_file(tmp_path, capsys, two_point_files):
    x, y = two_point_files
    out_path = tmp_path / "result.json"
    code, stdout_payload, _ = run(capsys, ["lin", "--x", x, "--y", y, "--eps-rel", "1e-3"])
    assert code == 0
    code = main(["lin", "--x", x, "--y", y, "--eps-rel", "1e-3", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_path.read_text()) == stdout_payload


def test_no_temp_files_survive_atomic_writes(tmp_path, capsys, monkeypatch, two_point_files):
    x, y = two_point_files
    before = {p.name for p in tmp_path.iterdir()}
    main(
        [
            "lin",
            "--x",
            x,
            "--y",
            y,
            "--eps-rel",
            "1e-3",
            "--out",
            str(tmp_path / "r.json"),
            "--coupling-out",
            str(tmp_path / "p.csv"),
        ]
    )
    capsys.readouterr()
    after = {p.name for p in tmp_path.iterdir()}
    assert after - before == {"r.json", "p.csv"}
    # The same with the coupling written and the inputs read in two parts.
    split_csv(monkeypatch, 2)
    code = main(["lin", "--x", x, "--y", y, "--eps-rel", "1e-3", "--coupling-out", str(tmp_path / "q.csv")])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "q.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()
    assert_nothing_left(tmp_path, after | {"q.csv"})


# ---- CSV files split across cores ----


def split_csv(monkeypatch, parts):
    """Splits every CSV matrix read or written into ``parts`` row ranges,
    whatever its size and the machine's core count."""
    monkeypatch.setattr("otkit.fileio._MIN_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))


def one_process(monkeypatch, fn, *args):
    """``fn(*args)`` with every CSV handled in one process."""
    with monkeypatch.context() as patch:
        patch.setattr("otkit.fileio._MIN_SPLIT_BYTES", 1 << 62)
        return fn(*args)


def assert_nothing_left(directory, names):
    """No temp file is left in ``directory`` and no child process unreaped."""
    assert {p.name for p in directory.iterdir()} == set(names)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch) -> list:
    """Records every ``os.fork`` call."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@pytest.fixture
def split_reads(monkeypatch) -> list:
    """Records whether each ``read_matrix`` was served by its parts (True)
    or parsed whole in one process (False)."""
    from otkit import fileio

    served, read_parts = [], fileio._read_parts

    def spy(path):
        data = read_parts(path)
        served.append(data is not None)
        return data

    monkeypatch.setattr(fileio, "_read_parts", spy)
    return served


SPLIT_MATRICES = {
    "edges": np.array([[-0.0, 5e-324, 1e-300], [0.1, 1.0 / 3.0, -1.7976931348623157e308],
                       [1.7976931348623157e308, -5e-324, 2.5]]),
    "odd-rows": np.random.default_rng(0).normal(size=(7, 4)) * 10.0 ** np.arange(-3, 4)[:, None],
    "fewer-rows-than-parts": np.array([[1.0, -2.0]]),
    "single-column": np.random.default_rng(1).random((9, 1)),
}


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("name", list(SPLIT_MATRICES))
def test_split_writes_the_one_process_bytes(tmp_path, monkeypatch, forks, parts, name):
    matrix = SPLIT_MATRICES[name]
    one_process(monkeypatch, write_matrix_atomic, str(tmp_path / "one.csv"), matrix)
    assert not forks
    split_csv(monkeypatch, parts)
    write_matrix_atomic(str(tmp_path / "split.csv"), matrix)
    assert len(forks) == parts - 1
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    back = read_matrix(str(tmp_path / "split.csv"))
    assert back.tobytes() == matrix.tobytes()
    assert_nothing_left(tmp_path, {"one.csv", "split.csv"})


def _percent_17g(matrix):
    """The CSV text of ``matrix`` from Python's own "%.17g": the reference."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in matrix.tolist())


_EDGE_VALUES = np.array(
    [0.0, 5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan,
     1e-5, 9.9999999999999991e-05, 1e-4, 1e16, 1e17, 99999999999999984.0, 2.0**53, 2.0**53 + 2, 2.0**63, 1e22,
     1e23, 0.1, 1.0 / 3.0, 12.5]
    # Exact ties at 17 digits (18 significant digits ending in 5), the
    # 17th digit even and odd.
    + [2.0**-25, 3 * 2.0**-25, 9 * 2.0**-23, 11 * 2.0**-23]
)
_EDGES = np.concatenate([_EDGE_VALUES, -_EDGE_VALUES])
_POWERS = np.array([float(f"1e{k}") for k in range(-310, 309)])
_POWERS = np.concatenate([_POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, np.inf)])
_RANDOM_BITS = np.random.default_rng(5).integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64)
FORMAT_MATRICES = {
    # Rows of 250 entries: blocks of whole rows, the last one short.
    "random-bits": _RANDOM_BITS.reshape(240, 250),
    "edges": _EDGES.reshape(-1, 4),
    "powers-of-ten": _POWERS.reshape(-1, 3),
    # Rows longer than a block of the formatter.
    "wide-rows": _RANDOM_BITS[:20_000].reshape(2, 10_000),
    "mixed-rows": np.random.default_rng(6).permutation(
        np.concatenate([_EDGES, _POWERS, _RANDOM_BITS[:2000], np.negative(np.nan)[None]])
    ).reshape(-1, 10),
    "single-column": np.concatenate([_EDGES, _POWERS])[:, None],
    "no-columns": np.zeros((3, 0)),
}


@pytest.mark.parametrize("parts", [1, 3])
@pytest.mark.parametrize("name", list(FORMAT_MATRICES))
def test_matrix_text_is_pythons_percent_17g(tmp_path, monkeypatch, parts, name):
    matrix = FORMAT_MATRICES[name]
    path = tmp_path / "m.csv"
    if parts == 1:
        one_process(monkeypatch, write_matrix_atomic, str(path), matrix)
    else:
        split_csv(monkeypatch, parts)
        write_matrix_atomic(str(path), matrix)
    assert path.read_bytes() == _percent_17g(matrix).encode()


def test_a_one_process_write_holds_no_more_memory_for_more_rows(tmp_path, monkeypatch, traced_peak):
    peaks = []
    for rows in (500, 2000):
        matrix = np.random.default_rng(rows).random((rows, 1000))
        _, peak = traced_peak(lambda: one_process(monkeypatch, write_matrix_atomic, str(tmp_path / "m.csv"), matrix))
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 1 << 20


def test_a_one_process_read_holds_no_more_memory_for_more_rows(tmp_path, monkeypatch, traced_peak):
    extra = []
    for rows in (500, 2000):
        matrix = np.random.default_rng(rows).random((rows, 1000))
        one_process(monkeypatch, write_matrix_atomic, str(tmp_path / "m.csv"), matrix)
        data, peak = traced_peak(lambda: one_process(monkeypatch, read_matrix, str(tmp_path / "m.csv")))
        extra.append(peak - data.nbytes)
    assert extra[1] - extra[0] < 1 << 20


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
@pytest.mark.parametrize("parts", [1, 2])
def test_atomic_writes_give_the_mode_of_open(tmp_path, monkeypatch, umask, mode, parts):
    split_csv(monkeypatch, parts)
    old = os.umask(umask)
    try:
        write_json_atomic(str(tmp_path / "out.json"), {"a": 1})
        write_matrix_atomic(str(tmp_path / "m.csv"), np.arange(12.0).reshape(6, 2))
    finally:
        os.umask(old)
    for name in ("out.json", "m.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode
    assert_nothing_left(tmp_path, {"out.json", "m.csv"})


def _lines(rows, newline="\n"):
    return newline.join(",".join(repr(float(v)) for v in row) for row in rows) + newline


SPLIT_TEXTS = {
    # Comments and blank lines between all rows, so on both sides of any cut.
    "comments-and-blanks": "# header\n" + "".join(
        f"{i}.25,{-i}e-3 # row {i}\n\n# between\n\n" for i in range(24)
    ),
    "crlf": "# header\r\n" + _lines(np.random.default_rng(2).random((30, 3)), "\r\n"),
    "single-column": _lines(np.random.default_rng(3).random((40, 1))),
    "no-final-newline": _lines(np.random.default_rng(4).random((25, 2))).rstrip("\n"),
    # The later parts hold only comments: they have no data rows, so the
    # file is parsed whole, and no loadtxt warning escapes.
    "a-part-of-comments": "1,2\n3,4\n" + "# a long comment line\n" * 40,
    # Whitespace-only lines between all rows, so on both sides of any cut.
    "whitespace-lines": "".join(f"{i}.5,{-i}\n  \n\t\n" for i in range(30)),
}


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("name", list(SPLIT_TEXTS))
def test_split_reads_the_one_process_array(tmp_path, monkeypatch, split_reads, parts, name):
    path = tmp_path / "m.csv"
    path.write_bytes(SPLIT_TEXTS[name].encode())
    expected = one_process(monkeypatch, read_matrix, str(path))
    split_csv(monkeypatch, parts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = read_matrix(str(path))
    assert data.shape == expected.shape
    assert data.tobytes() == expected.tobytes()
    assert split_reads[-1] == (name != "a-part-of-comments")
    assert_nothing_left(tmp_path, {"m.csv"})


@pytest.mark.parametrize("parts", [2, 3])
def test_split_reads_compressed_csvs_whole(tmp_path, monkeypatch, split_reads, parts):
    # np.loadtxt decompresses by the file name; the first part's bytes are
    # the compressed header, which never parses, so the file is read whole.
    path = tmp_path / "m.csv.gz"
    with gzip.open(path, "wt") as handle:
        handle.write(SPLIT_TEXTS["single-column"])
    expected = one_process(monkeypatch, read_matrix, str(path))
    split_csv(monkeypatch, parts)
    assert read_matrix(str(path)).tobytes() == expected.tobytes()
    assert expected.shape == (40, 1)
    assert split_reads[-1] is False
    assert_nothing_left(tmp_path, {"m.csv.gz"})


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1\n  \n2\n", [[1.0], [2.0]]),
        ("1,2\n\t\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ],
    ids=["spaces", "spaces-one-column", "tab"],
)
def test_whitespace_only_lines_are_skipped(tmp_path, monkeypatch, text, expected):
    path = tmp_path / "m.csv"
    path.write_text(text)
    data = one_process(monkeypatch, read_matrix, str(path))
    assert data.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("parts", [2, 3])
def test_a_whitespace_line_just_after_a_cut_is_skipped(tmp_path, monkeypatch, split_reads, parts):
    from otkit.fileio import _cuts

    rows = [f"{i % 10}.5,2\n" for i in range(60)]
    path = tmp_path / "m.csv"
    path.write_text("".join(rows))
    split_csv(monkeypatch, parts)
    # A whitespace line of a row's length keeps every cut where it was.
    cut = _cuts(str(path))[1]
    rows[cut // 6] = " \t   \n"
    path.write_text("".join(rows))
    assert _cuts(str(path))[1] == cut
    expected = np.array([[float(row.split(",")[0]), 2.0] for row in rows if not row.isspace()])
    data = read_matrix(str(path))
    assert data.tobytes() == expected.tobytes()
    assert split_reads[-1] is True
    assert data.tobytes() == one_process(monkeypatch, read_matrix, str(path)).tobytes()
    assert_nothing_left(tmp_path, {"m.csv"})


@pytest.mark.parametrize("parts", [2, 3])
# Ragged rows, a word, and near misses of the parser's grammar; each has the
# good rows' five bytes.
@pytest.mark.parametrize("bad", ["1,2,3", "1.5,x", "1e,22", "--1,2", "1.2.3", "1-2,3", "e5,22", "1,,22"])
def test_split_read_errors_are_the_one_process_errors(tmp_path, monkeypatch, parts, bad):
    rows = ["1.5,2"] * 60
    size = 6 * len(rows)
    # The row just after the last cut, in the last child's range; the bad
    # row has the good rows' length, so the cuts stay where they are.
    rows[(parts - 1) * size // parts // 6 + 1] = bad
    path = tmp_path / "m.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError) as whole:
        one_process(monkeypatch, read_matrix, str(path))
    split_csv(monkeypatch, parts)
    with pytest.raises(ValueError) as split:
        read_matrix(str(path))
    assert str(split.value) == str(whole.value)
    assert_nothing_left(tmp_path, {"m.csv"})


@pytest.fixture
def parser_calls(monkeypatch) -> list:
    """Records, in this process, whether each ``_csvtext.parse_rows`` call
    read its chunk (True) or declined it (False)."""
    from otkit import _csvtext

    calls, parse_rows = [], _csvtext.parse_rows

    def spy(data):
        rows = parse_rows(data)
        calls.append(rows is not None)
        return rows

    monkeypatch.setattr(_csvtext, "parse_rows", spy)
    return calls


def _savetxt(matrix, **kwargs) -> bytes:
    buffer = io.BytesIO()
    np.savetxt(buffer, matrix, delimiter=",", **kwargs)
    return buffer.getvalue()


_FINITE_BITS = _RANDOM_BITS[np.isfinite(_RANDOM_BITS)][:48_000].reshape(-1, 200)
_FIELDS = ["1E5", "1e+05", ".5", "5.", "-0", "007", "1234567890123456789", "12345678901234567891",
           "0.0012111927264277789", "1e-320", "1e400", "-1e400", "1e-400",
           # Mantissas over 24 bytes, the point far from their end.
           "1." + "0" * 60 + "1", "-0." + "0" * 50 + "123e5", "1" * 40 + ".5"]
# Texts and whether the numpy parser reads them (True) or np.loadtxt does.
READ_TEXTS = {
    # FORMAT_MATRICES hold inf or nan, except the powers of ten.
    **{f"percent-17g-{name}": (_percent_17g(FORMAT_MATRICES[name]).encode(), name == "powers-of-ten")
       for name in ("random-bits", "edges", "powers-of-ten", "mixed-rows", "single-column")},
    "percent-17g-finite-bits": (_percent_17g(_FINITE_BITS).encode(), True),
    # Rows longer than a chunk of the parser, and than 1 MiB.
    "percent-17g-long-rows": (_percent_17g(_FINITE_BITS.reshape(4, -1)).encode(), True),
    "percent-17g-longest-row": (_percent_17g(np.tile(_FINITE_BITS.reshape(1, -1), 2)).encode(), False),
    "savetxt-18e": (_savetxt(_FINITE_BITS[:150]), True),
    "savetxt-17g-header": (_savetxt(np.random.default_rng(7).normal(size=(50, 7)), fmt="%.17g", header="a,b"), True),
    "repr": (_lines(np.random.default_rng(8).normal(size=(60, 5)) * 10.0 ** np.arange(-8, 52, 1)[:, None]).encode(),
             True),
    "fields": (((",".join(_FIELDS) + "\n") * 3).encode(), True),
    "one-entry": (b"5", True),
    "no-final-newline": (SPLIT_TEXTS["no-final-newline"].encode(), True),
    "crlf": (SPLIT_TEXTS["crlf"].encode(), False),
    "inline-comments": (SPLIT_TEXTS["comments-and-blanks"].encode(), False),
    "whitespace-lines": (SPLIT_TEXTS["whitespace-lines"].encode(), False),
    "inf-and-nan": (b"1.5,inf\n-inf,nan\n" * 20, False),
}


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("name", list(READ_TEXTS))
def test_reads_are_np_loadtxt_bitwise(tmp_path, monkeypatch, parser_calls, parts, name):
    text, parsed = READ_TEXTS[name]
    path = tmp_path / "m.csv"
    path.write_bytes(text)
    lines = [line for line in text.decode().splitlines(keepends=True) if not line.isspace()]
    expected = np.loadtxt(lines, delimiter=",", comments="#", ndmin=2)
    if parts == 1:
        data = one_process(monkeypatch, read_matrix, str(path))
        # In one process every chunk is read, or the reading stops at the
        # first decline.
        assert False not in parser_calls[:-1]
        assert (parser_calls[-1:] == [True]) == parsed
    else:
        split_csv(monkeypatch, parts)
        data = read_matrix(str(path))
    assert data.shape == expected.shape
    assert data.tobytes() == expected.tobytes()
    assert_nothing_left(tmp_path, {"m.csv"})


def _fail_in_children(monkeypatch, name, error=RuntimeError):
    """Makes ``otkit.fileio.<name>`` raise in forked children only."""
    from otkit import fileio

    parent, real = os.getpid(), getattr(fileio, name)

    def failing(*args):
        if os.getpid() != parent:
            raise error("a part failed")
        return real(*args)

    monkeypatch.setattr(fileio, name, failing)


@pytest.mark.parametrize("parts", [2, 3])
def test_a_failed_child_fails_the_write_and_the_cli_exits_one(tmp_path, capsys, monkeypatch, parts,
                                                              two_point_files):
    split_csv(monkeypatch, parts)
    _fail_in_children(monkeypatch, "_format_rows")
    with pytest.raises(OSError, match="exited with status 1"):
        write_matrix_atomic(str(tmp_path / "m.csv"), np.arange(12.0).reshape(6, 2))
    x, y = two_point_files
    code, payload, err = run(capsys, ["lin", "--x", x, "--y", y, "--coupling-out", str(tmp_path / "p.csv")])
    assert code == 1
    assert payload is None
    assert err.startswith("error:") and "exited with status 1" in err
    assert_nothing_left(tmp_path, {"x.csv", "y.csv"})


def test_an_interrupted_write_reaps_its_children(tmp_path, monkeypatch):
    from otkit import fileio

    split_csv(monkeypatch, 3)
    parent, real = os.getpid(), fileio._format_rows

    def interrupted(rows):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(rows)

    monkeypatch.setattr(fileio, "_format_rows", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_matrix_atomic(str(tmp_path / "m.csv"), np.arange(12.0).reshape(6, 2))
    assert_nothing_left(tmp_path, set())


# ---- lin --coupling-out, written from the potentials ----


def _coupling_case(tmp_path, case):
    """``lin`` arguments for a 600 x 40 problem with zero weights on both
    sides, on a dense cost or a cloud of cost ``case``, and the library
    problem the CLI builds from them."""
    rng = np.random.default_rng(11)
    x, y = rng.random((600, 3)), rng.random((40, 3)) + 0.25
    a, b = rng.random(600), rng.random(40)
    a[[3, 300, 599]], b[[0, 17]] = 0.0, 0.0
    weights = [write_csv(tmp_path / f"{name}.csv", (w / w.sum())[:, None]) for name, w in (("a", a), ("b", b))]
    argv = ["lin", "--a", weights[0], "--b", weights[1], "--eps-rel", "0.05"]
    if case == "dense":
        cost = write_csv(tmp_path / "cost.csv", PointCloudGeometry(x, y).cost_matrix())
        argv += ["--cost-matrix", cost]
        geom = DenseGeometry(read_matrix(cost))
    else:
        x, y = write_csv(tmp_path / "x.csv", x), write_csv(tmp_path / "y.csv", y)
        argv += ["--x", x, "--y", y, "--cost", case]
        geom = PointCloudGeometry(read_matrix(x), read_matrix(y), case)
    # The CLI's weight rule: each weight over the sum.
    return argv, LinearProblem(geom, *(w / w.sum() for w in map(read_vector, weights)))


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("case", ["dense", "sqeucl", "cosine", "eucl"])
def test_lin_coupling_out_is_the_written_transport_matrix(tmp_path, capsys, monkeypatch, case, parts):
    # A budget of 128 rows of 40 entries makes the 600 rows blocks of 128
    # rows, the last 88. Two parts cut inside the third block (at 300) and
    # three inside the second and fourth (at 200 and 400); each part keeps
    # its own rows of the whole blocks.
    monkeypatch.setattr("otkit.geometry._BLOCK_BYTES", 128 * 40 * 8)
    argv, prob = _coupling_case(tmp_path, case)
    assert prob.geom._block_rows(40) == 128
    out = solve_sinkhorn(prob, 0.05 * prob.geom.mean_cost())
    expected = tmp_path / "expected.csv"
    one_process(monkeypatch, write_matrix_atomic, str(expected), transport_matrix(out, prob).matrix)
    plan_calls, plan_blocks = [], Geometry._plan_blocks

    def spy(geom, *args, **kwargs):
        plan_calls.append(kwargs)
        return plan_blocks(geom, *args, **kwargs)

    def refused(*args):
        raise AssertionError("transport_matrix called")

    monkeypatch.setattr(Geometry, "_plan_blocks", spy)
    monkeypatch.setattr("otkit.sinkhorn.transport_matrix", refused)
    split_csv(monkeypatch, parts)
    code, payload, err = run(capsys, argv + ["--coupling-out", str(tmp_path / "coupling.csv")])
    assert code == 0 and payload["iterations"] == out.iterations, err
    assert (tmp_path / "coupling.csv").read_bytes() == expected.read_bytes()
    # This process made the rows of its own part, block by block, and no
    # plan in an n x m array.
    assert [call["rows"] for call in plan_calls if "rows" in call] == [(0, 600 // parts)]
    assert all(call.get("into") is None for call in plan_calls)
    assert_nothing_left(tmp_path, {p.name for p in tmp_path.iterdir() if p.suffix == ".csv"})


def test_a_one_process_coupling_write_holds_no_more_memory_for_more_rows(tmp_path, capsys, monkeypatch):
    from otkit import cli

    extra, write = [], cli.write_rows_atomic

    def measured(*args):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        write(*args)
        extra.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(cli, "write_rows_atomic", measured)
    rng = np.random.default_rng(3)
    y = write_csv(tmp_path / "y.csv", rng.random((1000, 2)))
    for rows in (500, 2000):
        x = write_csv(tmp_path / "x.csv", rng.random((rows, 2)))
        argv = ["lin", "--x", x, "--y", y, "--eps-rel", "0.5", "--coupling-out", str(tmp_path / "p.csv")]
        tracemalloc.start()
        try:
            one_process(monkeypatch, main, argv)
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    # A 2,000 x 1,000 coupling is 16 MB, 12 MB more than a 500 x 1,000 one.
    assert extra[1] - extra[0] < 1 << 20


@pytest.mark.parametrize("parts", [2, 3])
def test_a_failed_child_read_falls_back_to_one_process(tmp_path, monkeypatch, split_reads, parts):
    path = tmp_path / "m.csv"
    path.write_text(SPLIT_TEXTS["crlf"])
    expected = one_process(monkeypatch, read_matrix, str(path))
    split_csv(monkeypatch, parts)
    _fail_in_children(monkeypatch, "_parse_range")
    assert read_matrix(str(path)).tobytes() == expected.tobytes()
    assert split_reads[-1] is False
    assert_nothing_left(tmp_path, {"m.csv"})


def test_log_level_env_var_is_honored(tmp_path, capsys, monkeypatch, two_point_files):
    x, y = two_point_files
    monkeypatch.setenv("OTKIT_LOG", "DEBUG")
    code, payload, _ = run(capsys, ["lin", "--x", x, "--y", y, "--eps-rel", "1e-3"])
    assert code == 0
    assert payload["converged"] is True


def test_csv_comments_and_vector_shapes_are_accepted(tmp_path, capsys):
    x = tmp_path / "x.csv"
    x.write_text("# source points\n0.0\n1.0\n")
    y = tmp_path / "y.csv"
    y.write_text("0.5\n2.0\n")
    a = tmp_path / "a.csv"
    a.write_text("# one weight per row\n0.5\n0.5\n")
    code, payload, _ = run(
        capsys, ["lin", "--x", str(x), "--y", str(y), "--a", str(a), "--eps-rel", "1e-3"]
    )
    assert code == 0
    assert abs(payload["transport_cost"] - 0.625) <= 1e-2


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("text", ["", "# a comment\n# and another one\n"], ids=["empty", "comments-only"])
def test_a_csv_without_data_rows_gives_one_error_line(tmp_path, capsys, monkeypatch, two_point_files, parts, text):
    _, y = two_point_files
    x = tmp_path / "empty.csv"
    x.write_text(text)
    argv = ["lin", "--x", str(x), "--y", y]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if parts == 1:
            code, payload, err = one_process(monkeypatch, run, capsys, argv)
        else:
            split_csv(monkeypatch, parts)
            code, payload, err = run(capsys, argv)
    assert code == 1
    assert payload is None
    assert err == f"error: {x} contains no data rows\n"


def test_importing_otkit_loads_no_scipy():
    import otkit

    src = os.path.dirname(os.path.dirname(otkit.__file__))
    code = "import sys, otkit, otkit.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_csv_text_module():
    # Compiled from source on first use only: a run that reads or writes
    # no matrix skips it.
    import otkit

    src = os.path.dirname(os.path.dirname(otkit.__file__))
    code = "import sys, otkit, otkit.cli; print('otkit._csvtext' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_module_entry_point_runs_the_cli(tmp_path):
    import otkit

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(otkit.__file__))}
    ok = subprocess.run(
        [sys.executable, "-m", "otkit.cli", "softsort", "--values", "3,1,2"],
        env=env, capture_output=True, text=True,
    )
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["command"] == "softsort"
    hist = write_csv(tmp_path / "h.csv", [0.5, 0.5])
    bad = subprocess.run(
        [sys.executable, "-m", "otkit.cli", "barycenter", "--hist", hist],
        env=env, capture_output=True, text=True,
    )
    assert bad.returncode == 1
    assert bad.stdout == ""
    assert bad.stderr.startswith("error:")


# ---- parser ----


def test_subcommand_options_are_the_documented_lists():
    subcommands = _build_parser()._subparsers._group_actions[0].choices
    options = {
        name: [flag for action in sub._actions for flag in action.option_strings if flag not in ("-h", "--help")]
        for name, sub in subcommands.items()
    }
    common = ["--threshold", "--max-iters", "--out"]
    assert options == {
        "lin": ["--x", "--y", "--cost-matrix", "--cost", "--a", "--b", "--solver", "--rank", "--seed",
                "--coupling-out", "--verify", "--eps", "--eps-rel", *common],
        "quad": ["--x", "--y", "--cost", "--coupling-out", "--correspondence-out", "--verify", "--eps",
                 "--eps-rel", *common],
        "barycenter": ["--support", "--grid", "--cost", "--hist", "--weights", "--barycenter-out", "--eps",
                       "--eps-rel", *common],
        "softsort": ["--values", "--input", "--num-targets", "--eps", "--eps-sweep", *common],
        "gmm": ["--m1", "--m2", "--eps-rel", *common],
    }

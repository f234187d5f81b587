"""CLI contract: library round-trips, exit codes, file artifacts."""

import json
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from otkit import (
    BarycenterProblem,
    GridGeometry,
    LinearProblem,
    PointCloudGeometry,
    QuadraticProblem,
    SoftSortSpec,
    gmm_distance,
    grad_points,
    lr_coupling,
    reg_ot_cost,
    solve_barycenter,
    solve_gw,
    solve_lr_sinkhorn,
    solve_sinkhorn,
    sort_transport,
    transport_matrix,
)
from otkit.cli import _build_parser, main
from otkit.fileio import read_gmm, read_matrix, read_vector, write_matrix_atomic


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


def test_lin_streams_costs_above_the_materialization_cap(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(7)
    x = write_csv(tmp_path / "x.csv", rng.random((10, 2)))
    y = write_csv(tmp_path / "y.csv", rng.random((10, 2)))
    argv = ["lin", "--x", x, "--y", y, "--eps-rel", "0.1"]
    _, reference, _ = run(capsys, argv)
    monkeypatch.setattr("otkit.geometry.DEFAULT_DENSE_CAP", 50)  # below 10 x 10
    code, payload, _ = run(capsys, argv)
    assert code == 0
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


def test_no_temp_files_survive_atomic_writes(tmp_path, capsys, two_point_files):
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

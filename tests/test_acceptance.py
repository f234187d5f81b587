"""End-to-end acceptance gate.

Each test function below is one release criterion, so ``pytest -v``
prints exactly one PASSED/FAILED line per criterion. Criteria that
share a problem battery reuse a module-scoped fixture; every battery
is seeded, so the suite is deterministic. Measured margins print to
stdout for inspection with ``-s``.
"""

import json
import time

import numpy as np
import pytest

from otkit import (
    BarycenterProblem,
    DenseGeometry,
    EpsilonSchedule,
    Gaussian,
    GaussianMixture,
    GridGeometry,
    LinearProblem,
    PointCloudGeometry,
    QuadraticProblem,
    SoftSortSpec,
    exact_lp_uniform,
    finite_diff,
    gmm_distance,
    grad_points,
    grad_weights,
    gw_objective,
    reg_ot_cost,
    soft_rank,
    soft_sort,
    solve_barycenter,
    solve_gw,
    solve_lr_sinkhorn,
    solve_sinkhorn,
    transport_matrix,
)
from otkit.cli import main
from otkit.fileio import read_gmm, read_matrix


@pytest.fixture(scope="module")
def entropic_battery():
    """50 small uniform problems solved near the LP limit, shared by criteria 1-3."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst_gap = worst_dual = worst_row = worst_col = 0.0
    n_unconverged = 0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        x = rng.random((n, d))
        y = rng.random((n, d))
        geom = PointCloudGeometry(x, y, "sqeucl")
        eps = 1e-3 * geom.mean_cost()
        prob = LinearProblem(geom)
        out = solve_sinkhorn(
            prob,
            EpsilonSchedule(eps, init_scale=1000.0, decay=0.8),
            threshold=1e-4,
            max_iters=20_000,
        )
        n_unconverged += not out.converged
        lp = exact_lp_uniform(geom.cost_matrix()).value
        cost = reg_ot_cost(out, prob).transport_cost
        worst_gap = max(worst_gap, abs(cost - lp) / (1.0 + lp))
        dual = out.dual_trace
        if dual.size > 1:
            worst_dual = max(worst_dual, float(np.max(dual[:-1] - dual[1:])))
        plan = transport_matrix(out, prob).matrix
        worst_row = max(worst_row, float(np.abs(plan.sum(1) - prob.a).sum()))
        worst_col = max(worst_col, float(np.abs(plan.sum(0) - prob.b).sum()))
    return {
        "elapsed": time.perf_counter() - t0,
        "unconverged": n_unconverged,
        "gap": worst_gap,
        "dual_backstep": worst_dual,
        "row_l1": worst_row,
        "col_l1": worst_col,
    }


def test_criterion_01_sinkhorn_matches_the_exact_lp(entropic_battery):
    print(
        f"worst rel gap {entropic_battery['gap']:.3e} (cap 1e-2), "
        f"{entropic_battery['elapsed']:.2f}s (cap 10s)"
    )
    assert entropic_battery["gap"] <= 1e-2
    assert entropic_battery["elapsed"] < 10.0


def test_criterion_02_dual_objective_never_decreases(entropic_battery):
    print(f"worst dual backstep {entropic_battery['dual_backstep']:.3e} (cap 1e-9)")
    assert entropic_battery["dual_backstep"] <= 1e-9


def test_criterion_03_marginals_are_feasible_at_convergence(entropic_battery):
    print(
        f"worst row L1 {entropic_battery['row_l1']:.3e} (cap 1e-3), "
        f"worst col L1 {entropic_battery['col_l1']:.3e} (cap 2e-3)"
    )
    assert entropic_battery["unconverged"] == 0
    assert entropic_battery["row_l1"] <= 1e-3
    assert entropic_battery["col_l1"] <= 2e-3


def test_criterion_04_matrix_free_kernels_match_dense_oracles():
    rng = np.random.default_rng(3)
    worst = 0.0
    for k in range(100):
        if k % 2 == 0:
            n = int(rng.integers(2, 257))
            m = int(rng.integers(2, 257))
            d = int(rng.integers(1, 4))
            cost_fn = ("sqeucl", "eucl", "cosine")[k % 3]
            x = rng.standard_normal((n, d)) + 0.1
            y = rng.standard_normal((m, d)) + 0.1
            geom = PointCloudGeometry(x, y, cost_fn, block_size=37)
        else:
            sizes = rng.integers(2, 7, size=int(rng.integers(1, 4)))
            axes = [np.sort(rng.random(int(s))) for s in sizes]
            geom = GridGeometry(axes)
            n = m = geom.shape[0]
        dense = DenseGeometry(geom.cost_matrix())
        eps = 0.3 * geom.mean_cost() + 1e-3
        v = rng.random(m) + 0.1
        u = rng.random(n) + 0.1
        f = rng.standard_normal(n)
        g = rng.standard_normal(m)
        for got, ref in (
            (geom.apply_kernel(v, eps, "rows"), dense.apply_kernel(v, eps, "rows")),
            (geom.apply_kernel(u, eps, "cols"), dense.apply_kernel(u, eps, "cols")),
            (geom.apply_lse_kernel(f, g, eps, "rows"), dense.apply_lse_kernel(f, g, eps, "rows")),
            (geom.apply_lse_kernel(f, g, eps, "cols"), dense.apply_lse_kernel(f, g, eps, "cols")),
        ):
            worst = max(worst, float(np.max(np.abs(got - ref) / (1e-300 + np.abs(ref)))))
    print(f"worst rel deviation {worst:.3e} (cap 1e-10)")
    assert worst <= 1e-10


def test_criterion_05_envelope_gradients_match_finite_differences():
    threshold, max_iters = 1e-8, 20_000
    rng = np.random.default_rng(2)
    worst_weights = worst_points = 0.0
    for _ in range(20):
        x = rng.random((5, 2))
        y = rng.random((5, 2))
        geom = PointCloudGeometry(x, y, "sqeucl")
        eps = 0.1 * geom.mean_cost()
        prob = LinearProblem(geom)
        out = solve_sinkhorn(prob, eps, threshold=threshold, max_iters=max_iters)

        grad_a = grad_weights(out, prob)
        delta = rng.standard_normal(5)
        delta -= delta.mean()
        delta /= np.abs(delta).sum()
        step = 1e-5

        def value_at(a):
            reweighted = LinearProblem(geom, a)
            solved = solve_sinkhorn(reweighted, eps, threshold=threshold, max_iters=max_iters)
            return reg_ot_cost(solved, reweighted).dual_objective

        fd = (value_at(prob.a + step * delta) - value_at(prob.a - step * delta)) / (2 * step)
        worst_weights = max(worst_weights, abs(fd - float(grad_a @ delta)) / max(1.0, abs(fd)))

        grad_x = grad_points(out, prob)

        def value_of_points(flat):
            moved = LinearProblem(PointCloudGeometry(flat.reshape(5, 2), y, "sqeucl"))
            solved = solve_sinkhorn(moved, eps, threshold=threshold, max_iters=max_iters)
            return reg_ot_cost(solved, moved).dual_objective

        fd_x = finite_diff(value_of_points, x.reshape(-1), step=step).reshape(5, 2)
        worst_points = max(
            worst_points,
            float(np.linalg.norm(fd_x - grad_x) / max(1.0, np.linalg.norm(fd_x))),
        )
    print(
        f"worst weight-gradient rel {worst_weights:.3e}, "
        f"worst point-gradient rel {worst_points:.3e} (cap 1e-4)"
    )
    assert worst_weights <= 1e-4
    assert worst_points <= 1e-4


def test_criterion_06_soft_sort_interpolates_between_sort_and_mean():
    values = np.array([1.0, 5.0, 4.0, 8.0, 12.0])
    sharp = soft_sort(values, SoftSortSpec(eps=1e-3))
    np.testing.assert_allclose(sharp, [1.0, 4.0, 5.0, 8.0, 12.0], atol=1e-2)
    flat = soft_sort(values, SoftSortSpec(eps=1e3))
    np.testing.assert_allclose(flat, np.full(5, 6.0), atol=1e-2)
    for eps in np.geomspace(1e-3, 1e3, 10):
        out = soft_sort(values, SoftSortSpec(eps=float(eps)))
        assert np.all(np.diff(out) >= -1e-9), f"not sorted at eps={eps}"
    print("sharp limit, mean limit, and 10-point monotone sweep all hold")


def test_criterion_07_gw_oracle_value_and_objective_forms_agree():
    cx = np.array([[0.0, 1.0], [1.0, 0.0]])
    cy = np.array([[0.0, 2.0], [2.0, 0.0]])
    out = solve_gw(QuadraticProblem(DenseGeometry(cx), DenseGeometry(cy)))
    assert abs(out.gw_cost - 0.5) <= 0.05

    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        sx = rng.random((n, n))
        sy = rng.random((m, m))
        sx = 0.5 * (sx + sx.T)
        np.fill_diagonal(sx, 0.0)
        sy = 0.5 * (sy + sy.T)
        np.fill_diagonal(sy, 0.0)
        wa = rng.random(n) + 0.1
        wa /= wa.sum()
        wb = rng.random(m) + 0.1
        wb /= wb.sum()
        qp = QuadraticProblem(DenseGeometry(sx), DenseGeometry(sy), wa, wb)
        plan = np.outer(wa, wb)
        expanded = gw_objective(qp, plan, method="expansion")
        literal = gw_objective(qp, plan, method="literal")
        worst = max(worst, abs(expanded - literal) / (1.0 + abs(literal)))
    print(f"2-point cost {out.gw_cost:.4f} (want 0.5±0.05), worst form gap {worst:.3e} (cap 1e-9)")
    assert worst <= 1e-9


def test_criterion_08_gw_recovers_a_rotated_lifted_copy():
    angle = np.pi / 6
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    masses = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pts = rng.random((10, 2)) * 2.0
        lifted = np.concatenate([pts @ rot.T, np.zeros((10, 1))], axis=1)
        qp = QuadraticProblem(
            PointCloudGeometry(pts, pts, "sqeucl"),
            PointCloudGeometry(lifted, lifted, "sqeucl"),
        )
        out = solve_gw(qp)
        masses.append(float(np.trace(out.coupling.matrix)))
    print(f"diagonal masses {[f'{v:.3f}' for v in masses]} (cap ≥ 0.8 each)")
    assert all(mass >= 0.8 for mass in masses)


def test_criterion_09_low_rank_costs_and_factor_marginals():
    rng = np.random.default_rng(42)

    def weights(n, uniform):
        if uniform:
            return None
        w = rng.random(n) + 0.2
        return w / w.sum()

    worst_rank1 = worst_marginal = 0.0
    for k in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        x = rng.random((n, d))
        y = rng.random((m, d))
        geom = PointCloudGeometry(x, y, "sqeucl")
        a = weights(n, k % 2 == 0)
        b = weights(m, k % 3 == 0)
        prob = LinearProblem(geom, a, b)
        out = solve_lr_sinkhorn(prob, 1, seed=0)
        independent = float(prob.a @ geom.cost_matrix() @ prob.b)
        worst_rank1 = max(worst_rank1, abs(out.costs[-1] - independent))
        fac = out.factors
        worst_marginal = max(
            worst_marginal,
            float(np.abs(fac.q.sum(1) - prob.a).sum()),
            float(np.abs(fac.r.sum(1) - prob.b).sum()),
            float(np.abs(fac.q.sum(0) - fac.g).sum()),
            float(np.abs(fac.r.sum(0) - fac.g).sum()),
        )
    print(f"worst rank-1 gap {worst_rank1:.3e} (cap 1e-6)")
    assert worst_rank1 <= 1e-6

    battery = [(2, 2, True), (3, 3, True), (4, 4, True), (2, 2, False), (3, 3, False), (4, 4, False)]
    worst_gap = -np.inf
    for n, m, uniform in battery:
        x = rng.random((n, 2))
        y = rng.random((m, 2))
        geom = PointCloudGeometry(x, y, "sqeucl")
        a = weights(n, uniform)
        b = weights(m, uniform)
        prob = LinearProblem(geom, a, b)
        out = solve_lr_sinkhorn(prob, min(n, m), seed=0, max_iters=3000)
        if uniform:
            # Exact, and at most the entropic cost, so the stricter
            # reference; entropic solves at this eps stop unconverged here.
            ref_cost = exact_lp_uniform(geom.cost_matrix()).value
        else:
            reference = solve_sinkhorn(prob, 1e-2 * geom.mean_cost(), threshold=1e-6, max_iters=50_000)
            assert reference.converged
            ref_cost = reg_ot_cost(reference, prob).transport_cost
        worst_gap = max(worst_gap, (out.costs[-1] - ref_cost) / abs(ref_cost))
        fac = out.factors
        worst_marginal = max(
            worst_marginal,
            float(np.abs(fac.q.sum(1) - prob.a).sum()),
            float(np.abs(fac.r.sum(1) - prob.b).sum()),
            float(np.abs(fac.q.sum(0) - fac.g).sum()),
            float(np.abs(fac.r.sum(0) - fac.g).sum()),
        )
    print(
        f"worst full-rank gap {worst_gap:+.2%} (cap 10%), "
        f"worst factor marginal {worst_marginal:.3e} (cap 1e-6)"
    )
    assert worst_gap <= 0.10
    assert worst_marginal <= 1e-6


def test_criterion_10_barycenter_places_mass_at_the_weighted_midpoint():
    grid_pts = np.linspace(0.0, 1.0, 101)
    h1 = np.zeros(101)
    h1[25] = 1.0
    h2 = np.zeros(101)
    h2[75] = 1.0
    hists = np.stack([h1, h2])
    geom = PointCloudGeometry(grid_pts[:, None], grid_pts[:, None], "sqeucl")
    eps = 1e-3 * geom.mean_cost()
    for w1 in np.arange(0.1, 0.95, 0.1):
        bp = BarycenterProblem(geom, hists, np.array([w1, 1.0 - w1]))
        out = solve_barycenter(bp, eps)
        location = w1 * 0.25 + (1.0 - w1) * 0.75
        want = int(np.argmin(np.abs(grid_pts - location)))
        got = int(np.argmax(out.barycenter))
        assert got == want, f"w1={w1:.1f}: argmax {got}, want {want}"

    dense_out = solve_barycenter(BarycenterProblem(geom, hists), eps)
    grid_out = solve_barycenter(BarycenterProblem(GridGeometry([grid_pts]), hists), eps)
    l1 = float(np.abs(dense_out.barycenter - grid_out.barycenter).sum())
    print(f"9 weighted midpoints exact, grid-vs-dense L1 {l1:.3e} (cap 1e-9)")
    assert l1 <= 1e-9


def test_criterion_11_gmm_distance_closed_form_and_metric_properties():
    single1 = GaussianMixture(np.array([1.0]), (Gaussian(np.array([0.0]), np.array([[1.0]])),))
    single2 = GaussianMixture(np.array([1.0]), (Gaussian(np.array([2.0]), np.array([[4.0]])),))
    closed_form = gmm_distance(single1, single2).value
    assert abs(closed_form - 5.0) <= 1e-6

    rng = np.random.default_rng(5)
    worst_sym = worst_self = 0.0
    n_unconverged = 0
    for _ in range(20):
        d = int(rng.integers(1, 4))

        def mk():
            num = int(rng.integers(1, 5))
            w = rng.random(num) + 0.2
            w /= w.sum()
            comps = []
            for _ in range(num):
                mean = rng.standard_normal(d) * 2
                m0 = rng.standard_normal((d, d))
                comps.append(Gaussian(mean, m0 @ m0.T + 0.3 * np.eye(d)))
            return GaussianMixture(w, tuple(comps))

        mix1, mix2 = mk(), mk()
        forward = gmm_distance(mix1, mix2)
        backward = gmm_distance(mix2, mix1)
        self_dist = gmm_distance(mix1, mix1)
        n_unconverged += (not forward.converged) + (not backward.converged) + (not self_dist.converged)
        worst_sym = max(worst_sym, abs(forward.value - backward.value))
        worst_self = max(worst_self, self_dist.value)
    print(
        f"closed form {closed_form:.9f} (want 5), worst asymmetry {worst_sym:.3e} (cap 1e-8), "
        f"worst self-distance {worst_self:.3e} (cap 1e-6)"
    )
    assert n_unconverged == 0
    assert worst_sym <= 1e-8
    assert worst_self <= 1e-6


def test_criterion_12_cli_round_trips_bitwise_with_documented_exit_codes(tmp_path, capsys):
    def write_csv(name, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        path = tmp_path / name
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
        return str(path)

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, json.loads(captured.out) if captured.out else None

    x_path = write_csv("x.csv", [[0.0], [1.0]])
    y_path = write_csv("y.csv", [[0.5], [2.0]])
    x = read_matrix(x_path)
    y = read_matrix(y_path)

    # lin, both solvers
    code, payload = run(["lin", "--x", x_path, "--y", y_path, "--eps-rel", "1e-3"])
    assert code == 0
    geom = PointCloudGeometry(x, y, "sqeucl")
    prob = LinearProblem(geom)
    lin_out = solve_sinkhorn(prob, 1e-3 * geom.mean_cost())
    lin_costs = reg_ot_cost(lin_out, prob)
    assert payload["transport_cost"] == lin_costs.transport_cost
    assert payload["dual_objective"] == lin_costs.dual_objective
    assert payload["iterations"] == lin_out.iterations
    assert payload["eps"] == lin_out.eps

    code, payload = run(["lin", "--x", x_path, "--y", y_path, "--solver", "lr", "--rank", "1"])
    assert code == 0
    lr_out = solve_lr_sinkhorn(prob, 1, seed=0)
    assert payload["transport_cost"] == float(lr_out.costs[-1])

    # quad
    y2_path = write_csv("y2.csv", [[0.0], [2.0]])
    code, payload = run(["quad", "--x", x_path, "--y", y2_path, "--cost", "eucl"])
    assert code == 0
    y2 = read_matrix(y2_path)
    gw_out = solve_gw(
        QuadraticProblem(
            PointCloudGeometry(x, x, "eucl"), PointCloudGeometry(y2, y2, "eucl")
        )
    )
    assert payload["gw_cost"] == gw_out.gw_cost
    assert payload["cost_trace"] == gw_out.cost_trace.tolist()

    # barycenter
    support = np.linspace(0.0, 1.0, 11)
    support_path = write_csv("support.csv", support[:, None])
    h1 = np.zeros(11)
    h1[2] = 1.0
    h2 = np.zeros(11)
    h2[8] = 1.0
    h1_path = write_csv("h1.csv", [h1])
    h2_path = write_csv("h2.csv", [h2])
    code, payload = run(
        ["barycenter", "--support", support_path, "--hist", h1_path, "--hist", h2_path]
    )
    assert code == 0
    bary_geom = PointCloudGeometry(support[:, None], support[:, None], "sqeucl")
    bary_out = solve_barycenter(BarycenterProblem(bary_geom, np.stack([h1, h2])))
    assert payload["barycenter"] == bary_out.barycenter.tolist()

    # softsort
    code, payload = run(["softsort", "--values", "1,5,4,8,12", "--eps", "1e-3"])
    assert code == 0
    values = np.array([1.0, 5.0, 4.0, 8.0, 12.0])
    assert payload["sorted_values"] == soft_sort(values, SoftSortSpec(eps=1e-3)).tolist()
    assert payload["ranks"] == soft_rank(values, SoftSortSpec(eps=1e-3)).tolist()

    # gmm
    m1_path = tmp_path / "m1.json"
    m1_path.write_text(json.dumps({"weights": [1.0], "means": [[0.0]], "covs": [[[1.0]]]}))
    m2_path = tmp_path / "m2.json"
    m2_path.write_text(json.dumps({"weights": [1.0], "means": [[2.0]], "covs": [[[4.0]]]}))
    code, payload = run(["gmm", "--m1", str(m1_path), "--m2", str(m2_path)])
    assert code == 0
    gmm_out = gmm_distance(read_gmm(str(m1_path)), read_gmm(str(m2_path)))
    assert payload["value"] == gmm_out.value
    assert payload["coupling"] == gmm_out.coupling.tolist()

    # exit code 1: unusable input; exit code 2: honest non-convergence
    code, payload = run(["lin", "--x", x_path])
    assert code == 1 and payload is None
    code, payload = run(
        ["lin", "--x", x_path, "--y", y_path, "--threshold", "1e-15", "--max-iters", "10"]
    )
    assert code == 2 and payload["converged"] is False
    print("5 commands round-trip bitwise; exit codes 0/1/2 observed")

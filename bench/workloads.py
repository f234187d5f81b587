"""The three seeded workloads: inputs, problem objects and operations.

A workload is built in three steps, so that the runner can time only
what the program does:

* :func:`inputs` draws every array from the seed (not timed);
* :func:`write_files` saves the ``cli-files`` inputs once per run, in
  the runner, so the worker processes only read them;
* :func:`build` turns the inputs into otkit objects (geometries,
  problems, ``epsilon_default``), which the runner times as set-up,
  and returns the operations.

Each :class:`Op` has a ``run`` that calls otkit and is timed, and a
``check`` that verifies the result with :mod:`checks` afterwards.
``scale`` shrinks every size, for the benchmark's own tests only.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from typing import Callable, NamedTuple

import numpy as np

import checks
from checks import OpFailed, expect

SINKHORN_THRESHOLD = 1e-3
LOWRANK_THRESHOLD = 1e-4
LOWRANK_RANK = 5


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _size(n: int, scale: float, floor: int = 6) -> int:
    return max(floor, int(round(n * scale)))


def _weights(rng, n: int, zero_share: float) -> np.ndarray:
    w = rng.random(n) + 0.2
    w[rng.permutation(n)[: int(zero_share * n)]] = 0.0
    return w / w.sum()


# GW and GMM solve times swing severalfold between independent draws, so
# their inputs are a fixed base drawn from this seed, which the run's
# seed perturbs, rotates and shuffles.
BASE_SEED = 0


def _rotated_copy(rng, n: int):
    """A 2-D cloud, its rotated copy lifted to 3-D and shuffled, and the pairing."""
    x = np.random.default_rng([BASE_SEED, n]).random((n, 2)) * 2.0 + rng.normal(scale=0.02, size=(n, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    lifted = np.concatenate([x @ rot.T, np.zeros((n, 1))], axis=1)
    order = rng.permutation(n)
    y = lifted[order]
    partner = np.empty(n, dtype=int)
    partner[order] = np.arange(n)  # x[i] sits at y[partner[i]]
    return x, y, partner


def _mixture_arrays(rng, k: int, d: int, index: int):
    base = np.random.default_rng([BASE_SEED, k, d, index])
    weights = base.random(k) + 0.1 + 0.05 * rng.random(k)
    means = base.normal(scale=3.0, size=(k, d)) + rng.normal(scale=0.1, size=(k, d))
    factors = base.normal(size=(k, d, d)) + rng.normal(scale=0.05, size=(k, d, d))
    covs = factors @ factors.transpose(0, 2, 1) / d + 0.1 * np.eye(d)
    return weights / weights.sum(), means, covs


# Bump centres of the three barycenter inputs; the seed moves each a little.
_BUMP_CENTERS = ((0.3, 0.3), (0.7, 0.35), (0.5, 0.7))


def _bump_histograms(rng, points: np.ndarray) -> list[np.ndarray]:
    hists = []
    for center in _BUMP_CENTERS:
        center = np.asarray(center) + rng.normal(scale=0.02, size=2)
        h = np.exp(-((points - center) ** 2).sum(axis=1) / (2.0 * 0.1**2)) + 1e-4
        hists.append(h / h.sum())
    return hists


def _sort_values(rng, n: int, family: int) -> np.ndarray:
    """Shuffled quantiles of a fixed distribution, lightly jittered.

    The soft-sort solve time depends on how the values spread, so the
    seed changes their order and jitter but not their distribution.
    """
    u = (np.arange(n) + 0.5) / n
    quantiles = (u, np.log(u / (1.0 - u)), -np.log(1.0 - u))[family % 3]
    return rng.permutation(quantiles) + rng.normal(scale=1e-3, size=n)


# ---- cloud-sinkhorn ----

# n, m, dimension, cost, shift of the target cloud (sets the overlap),
# share of zero weights, and whether eps follows a decaying schedule.
# The last column scales the geometry's epsilon_default (5% of the mean
# cost). Convergence is checked every 10 sweeps; each factor puts the
# sweep where the marginals first meet the threshold between 13 and 17 on
# every seed tried, so each solve stops after exactly 20 sweeps instead
# of jumping between 10, 20 and 30 with the draw.
CLOUD_INSTANCES = (
    (900, 900, 2, "sqeucl", 1.0, 0.0, False, 3.5),
    (800, 1100, 5, "eucl", 0.0, 0.1, False, 1.5),
    (1100, 800, 3, "sqeucl", 3.0, 0.1, False, 1.5),
    (800, 800, 4, "sqeucl", 0.5, 0.0, True, 3.0),
)


def _cloud_inputs(seed: int, scale: float) -> list[dict]:
    out = []
    for k, (n, m, d, cost_fn, shift, zeros, schedule, eps_factor) in enumerate(CLOUD_INSTANCES):
        rng = np.random.default_rng([seed, k])
        n, m = _size(n, scale), _size(m, scale)
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(m, d))
        y[:, 0] += shift
        uniform = zeros == 0.0
        a = np.full(n, 1.0 / n) if uniform else _weights(rng, n, zeros)
        b = np.full(m, 1.0 / m) if uniform else _weights(rng, m, zeros)
        out.append(dict(x=x, y=y, a=a, b=b, cost_fn=cost_fn, schedule=schedule, eps_factor=eps_factor,
                        uniform_square=uniform and n == m))
        out[-1]["name"] = f"sinkhorn-{n}x{m}-d{d}-{cost_fn}" + ("-schedule" if schedule else "")
    return out


def _cloud_build(otkit, inst: dict) -> Op:
    geom = otkit.PointCloudGeometry(inst["x"], inst["y"], inst["cost_fn"])
    prob = otkit.LinearProblem(geom, inst["a"], inst["b"])
    eps = inst["eps_factor"] * geom.epsilon_default
    if inst["schedule"]:
        eps = otkit.EpsilonSchedule(eps, init_scale=20.0, decay=0.7)
    sqeucl = inst["cost_fn"] == "sqeucl"

    def run():
        out = otkit.solve_sinkhorn(prob, eps, threshold=SINKHORN_THRESHOLD)
        cost = otkit.reg_ot_cost(out, prob)
        if sqeucl:
            return out, cost, otkit.grad_points(out, prob)
        plan = otkit.transport_matrix(out, prob)
        return out, cost, (plan.row_marginal(), plan.col_marginal())

    def check(result):
        out, cost, reduced = result
        if not out.converged:
            raise OpFailed(f"no convergence in {out.iterations} iterations")
        expect(np.isfinite(cost.dual_objective), "dual objective is not finite")
        c = checks.cost_matrix(inst["x"], inst["y"], inst["cost_fn"])
        plan = checks.sinkhorn_solution(
            out.f, out.g, out.eps, c, inst["a"], inst["b"], SINKHORN_THRESHOLD,
            cost.transport_cost, inst["uniform_square"],
        )
        if sqeucl:
            checks.grad_points(reduced, plan, inst["x"], inst["y"])
        else:
            row, col = reduced
            expect(np.allclose(row, plan.sum(axis=1), rtol=1e-9, atol=1e-15), "transport_matrix row sums")
            expect(np.allclose(col, plan.sum(axis=0), rtol=1e-9, atol=1e-15), "transport_matrix column sums")

    return Op(inst["name"], run, check)


# ---- small-solves ----

SORT_VECTORS = 3
SORT_SIZE = 200
GMM_COMPONENTS = 10
# At the default eps_rel=1e-3 and threshold=1e-12, gmm_distance between
# two 10-component mixtures takes 2 s to minutes and often stops
# unconverged; at 0.5 it converges in a few hundred sweeps.
GMM_EPS_REL = 0.5
GW_SIZE = 80
LOWRANK_SIZE = 100
# The low-rank solver's step count swings between 150 and 800 with the
# draw of its 100 points, which would swamp every other solve in this
# batch, so its instance comes from this constant seed, not the run's.
LOWRANK_INSTANCE_SEED = 0


def _small_inputs(seed: int, scale: float) -> dict:
    rng = np.random.default_rng([seed, 100])
    return dict(
        sorts=[_sort_values(rng, _size(SORT_SIZE, scale), k) for k in range(SORT_VECTORS)],
        mixtures=[_mixture_arrays(rng, _size(GMM_COMPONENTS, scale, 3), 2, k) for k in range(2)],
        gw=_rotated_copy(rng, _size(GW_SIZE, scale, 10)),
        lowrank=_lowrank_points(scale),
    )


def _lowrank_points(scale: float):
    rng = np.random.default_rng([LOWRANK_INSTANCE_SEED, 101])
    n = _size(LOWRANK_SIZE, scale, 10)
    return rng.random((n, 2)), rng.random((n, 2))


def _small_build(otkit, inp: dict) -> list[Op]:
    ops = []
    spec = otkit.SoftSortSpec()
    for k, x in enumerate(inp["sorts"]):
        lo, hi = float(x.min()), float(x.max())
        ops.append(Op(
            f"soft_sort-{k}",
            lambda x=x: otkit.soft_sort(x, spec),
            lambda out, lo=lo, hi=hi, k=k: checks.monotone_within(out, lo, hi, f"soft_sort {k}"),
        ))
        ops.append(Op(
            f"soft_rank-{k}",
            lambda x=x: otkit.soft_rank(x, spec),
            lambda out, x=x, k=k: checks.soft_ranks(out, x, f"soft_rank {k}"),
        ))

    mix_a, mix_b = (
        otkit.GaussianMixture(w, tuple(otkit.Gaussian(mu, cov) for mu, cov in zip(means, covs)))
        for w, means, covs in inp["mixtures"]
    )

    def gmm_check(result):
        ab, ba, aa = result
        if not (ab.converged and ba.converged and aa.converged):
            raise OpFailed("gmm_distance did not converge")
        expect(aa.value == 0.0, f"distance of a mixture to itself is {aa.value!r}")
        expect(np.isfinite(ab.value) and ab.value > 0.0, f"distance {ab.value!r} is not positive")
        checks.close(ba.value, ab.value, 1e-6, "gmm distance symmetry")

    ops.append(Op(
        "gmm_distance",
        lambda: tuple(otkit.gmm_distance(p, q, eps_rel=GMM_EPS_REL) for p, q in ((mix_a, mix_b), (mix_b, mix_a), (mix_a, mix_a))),
        gmm_check,
    ))

    x, y, partner = inp["gw"]
    qp = otkit.QuadraticProblem(otkit.PointCloudGeometry(x, x), otkit.PointCloudGeometry(y, y))

    def gw_check(out):
        if not out.converged:
            raise OpFailed(f"GW did not converge in {out.outer_iterations} outer iterations")
        checks.pairing(out.coupling.matrix, partner, "GW")

    ops.append(Op(f"solve_gw-{x.shape[0]}", lambda: otkit.solve_gw(qp), gw_check))

    x, y = inp["lowrank"]
    prob = otkit.LinearProblem(otkit.PointCloudGeometry(x, y))

    def lr_run():
        out = otkit.solve_lr_sinkhorn(prob, LOWRANK_RANK, threshold=LOWRANK_THRESHOLD)
        plan = otkit.lr_coupling(out.factors)
        return out, plan.row_marginal(), plan.col_marginal()

    def lr_check(result):
        out, row, col = result
        if not out.converged:
            raise OpFailed(f"low-rank solve did not converge in {out.iterations} steps")
        fac = out.factors
        c = checks.cost_matrix(x, y, "sqeucl")
        checks.low_rank(fac.q, fac.r, fac.g, prob.a, prob.b, c, float(out.costs[-1]))
        expect(float(np.abs(row - prob.a).sum()) <= 1e-6 and float(np.abs(col - prob.b).sum()) <= 1e-6,
               "lr_coupling marginals")

    ops.append(Op(f"solve_lr_sinkhorn-{x.shape[0]}", lr_run, lr_check))
    return ops


# ---- cli-files ----

CLI_COST_MATRIX = 1000
CLI_CLOUD = 600
# Just above the 4M-entry materialization cap: 2001 * 2001 > 4_000_000.
CLI_ABOVE_CAP = 2001
CLI_GRID = 48
CLI_SUPPORT = 200
CLI_GW = 60
CLI_SORT = 200


def _cli_inputs(seed: int, scale: float) -> dict:
    rng = np.random.default_rng([seed, 200])
    n = _size(CLI_COST_MATRIX, scale)
    cost_x, cost_y = rng.random((n, 2)), rng.random((n, 2))
    axis = np.linspace(0.0, 1.0, _size(CLI_GRID, scale))
    grid_points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    support = rng.random((_size(CLI_SUPPORT, scale), 2))
    return dict(
        cost_points=(cost_x, cost_y),
        cloud=(rng.normal(size=(_size(CLI_CLOUD, scale), 3)), rng.normal(size=(_size(CLI_CLOUD, scale), 3)) + 0.5),
        above_cap=(rng.random((CLI_ABOVE_CAP, 2)), rng.random((CLI_ABOVE_CAP, 2))),
        axis=axis,
        grid_hists=_bump_histograms(rng, grid_points),
        support=support,
        support_hists=_bump_histograms(rng, support),
        gw=_rotated_copy(rng, _size(CLI_GW, scale, 10)),
        values=3.0 * _sort_values(rng, _size(CLI_SORT, scale), 1),
        mixtures=[_mixture_arrays(rng, _size(GMM_COMPONENTS, scale, 3), 3, k) for k in range(2)],
    )


def _save(path: str, array: np.ndarray) -> None:
    np.savetxt(path, array, delimiter=",", fmt="%.17g")


def write_files(seed: int, directory: str, scale: float = 1.0) -> None:
    """Writes the cli-files inputs; a no-op for the library workloads."""
    inp = _cli_inputs(seed, scale)
    p = functools.partial(os.path.join, directory)
    _save(p("cost.csv"), checks.cost_matrix(*inp["cost_points"], "sqeucl"))
    for name, (x, y) in (("cloud", inp["cloud"]), ("cap", inp["above_cap"])):
        _save(p(f"{name}_x.csv"), x)
        _save(p(f"{name}_y.csv"), y)
    _save(p("axis.csv"), inp["axis"])
    for k, h in enumerate(inp["grid_hists"]):
        _save(p(f"grid_hist{k}.csv"), h)
    _save(p("support.csv"), inp["support"])
    for k, h in enumerate(inp["support_hists"]):
        _save(p(f"support_hist{k}.csv"), h)
    x, y, _ = inp["gw"]
    _save(p("gw_x.csv"), x)
    _save(p("gw_y.csv"), y)
    _save(p("values.csv"), inp["values"])
    for k, (w, means, covs) in enumerate(inp["mixtures"]):
        with open(p(f"mix{k}.json"), "w") as handle:
            json.dump({"weights": w.tolist(), "means": means.tolist(), "covs": covs.tolist()}, handle)


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _cli_build(otkit, inp: dict, src: str, out: str) -> list[Op]:
    s = functools.partial(os.path.join, src)
    o = functools.partial(os.path.join, out)

    def op(name: str, argv: list[str], check: Callable[[dict], None]) -> Op:
        argv = argv + ["--out", o(f"{name}.json")]

        def run():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = otkit.cli.main(argv)
            return code, err.getvalue()

        def verify(result):
            code, err = result
            if code != 0:
                last = err.strip().splitlines()[-1] if err.strip() else ""
                raise OpFailed(f"exit {code}: {last}")
            with open(o(f"{name}.json")) as handle:
                payload = json.load(handle)
            expect(payload.get("converged") is True, f"{name}: converged is {payload.get('converged')!r}")
            check(payload)

        return Op(name, run, verify)

    def lin_check(points: tuple, coupling: str | None):
        def check(payload):
            cost = checks.cost_matrix(*points, "sqeucl")
            n, m = cost.shape
            expect(payload["command"] == "lin" and payload["solver"] == "sinkhorn", "lin: wrong command fields")
            expect(payload["iterations"] >= 1 and payload["eps"] > 0, "lin: iterations or eps out of range")
            expect(np.isfinite(payload["dual_objective"]), "lin: dual objective is not finite")
            slack = SINKHORN_THRESHOLD * float(cost.max())
            floor = checks.exact_ot_uniform(cost) - slack if n == m else 0.0
            expect(payload["transport_cost"] >= floor, f"lin: transport cost {payload['transport_cost']!r} < {floor!r}")
            if coupling is None:
                # No plan file to check the cost against: recompute the
                # entropic plan at the reported eps, to a tighter tolerance
                # than the program's solve threshold.
                entropic = checks.entropic_transport_cost(cost, payload["eps"])
                expect(abs(payload["transport_cost"] - entropic) <= slack,
                       f"lin: transport cost {payload['transport_cost']!r} is not the entropic cost {entropic!r}")
            else:
                plan = _read_csv(o(coupling))
                checks.marginals(plan, np.full(n, 1.0 / n), np.full(m, 1.0 / m), SINKHORN_THRESHOLD, "lin coupling")
                checks.close(payload["transport_cost"], float((cost * plan).sum()), 1e-9, "lin transport cost")

        return check

    def bary_check(size: int, csv_out: str):
        def check(payload):
            expect(payload["command"] == "barycenter" and payload["num_histograms"] == 3, "barycenter: fields")
            p = checks.probability_vector(payload["barycenter"], size, "barycenter")
            expect(np.array_equal(_read_csv(o(csv_out)).reshape(-1), p), "barycenter CSV differs from the JSON")

        return check

    def quad_check(payload):
        x, _, partner = inp["gw"]
        n = x.shape[0]
        expect(payload["command"] == "quad" and payload["gw_cost"] >= 0.0, "quad: fields")
        expect(len(payload["cost_trace"]) == payload["outer_iterations"] + 1, "quad: cost trace length")
        plan = _read_csv(o("quad_coupling.csv"))
        checks.marginals(plan, np.full(n, 1.0 / n), np.full(n, 1.0 / n), SINKHORN_THRESHOLD, "quad coupling")
        pairs = _read_csv(o("quad_pairs.csv"))
        expect(pairs.shape == (n, 3) and np.array_equal(pairs[:, 1], plan.argmax(axis=1)), "quad: correspondences")
        checks.pairing(plan, partner, "quad")

    def sort_check(payload):
        x = inp["values"]
        lo, hi = float(x.min()), float(x.max())
        checks.monotone_within(payload["sorted_values"], lo, hi, "softsort")
        checks.soft_ranks(payload["ranks"], x, "softsort ranks")
        expect(len(payload["sweep"]) == 4, "softsort: sweep length")
        for entry in payload["sweep"]:
            checks.monotone_within(entry["sorted_values"], lo, hi, f"softsort eps={entry['eps']}")

    def gmm_check(payload):
        w1, w2 = inp["mixtures"][0][0], inp["mixtures"][1][0]
        coupling = np.asarray(payload["coupling"], dtype=float)
        expect(np.isfinite(payload["value"]) and payload["value"] > 0.0, "gmm: value is not positive")
        expect(coupling.shape == (w1.size, w2.size), "gmm: coupling shape")
        checks.marginals(coupling, w1, w2, 1e-9, "gmm coupling")

    grid_hists = [arg for k in range(3) for arg in ("--hist", s(f"grid_hist{k}.csv"))]
    support_hists = [arg for k in range(3) for arg in ("--hist", s(f"support_hist{k}.csv"))]
    cap_n = inp["above_cap"][0].shape[0]
    return [
        op("lin-cost-matrix", ["lin", "--cost-matrix", s("cost.csv"), "--eps-rel", "0.5",
                               "--coupling-out", o("lin_coupling.csv")],
           lin_check(inp["cost_points"], "lin_coupling.csv")),
        op("lin-cloud", ["lin", "--x", s("cloud_x.csv"), "--y", s("cloud_y.csv"), "--eps-rel", "0.15"],
           lin_check(inp["cloud"], None)),
        # Above the cap without --coupling-out: the library materializes
        # the cost anyway and the CLI exits 1 (a known defect).
        op(f"lin-above-cap-{cap_n}", ["lin", "--x", s("cap_x.csv"), "--y", s("cap_y.csv"), "--eps-rel", "0.5"],
           lin_check(inp["above_cap"], None)),
        op("barycenter-grid", ["barycenter", "--grid", s("axis.csv"), s("axis.csv"), *grid_hists,
                               "--barycenter-out", o("grid_bary.csv")],
           bary_check(inp["axis"].size ** 2, "grid_bary.csv")),
        op("barycenter-support", ["barycenter", "--support", s("support.csv"), *support_hists,
                                  "--weights", "0.5,0.3,0.2", "--barycenter-out", o("support_bary.csv")],
           bary_check(inp["support"].shape[0], "support_bary.csv")),
        op("quad", ["quad", "--x", s("gw_x.csv"), "--y", s("gw_y.csv"), "--coupling-out", o("quad_coupling.csv"),
                    "--correspondence-out", o("quad_pairs.csv")], quad_check),
        op("softsort", ["softsort", "--input", s("values.csv"), "--eps-sweep", "1e-2,1,4"], sort_check),
        op("gmm", ["gmm", "--m1", s("mix0.json"), "--m2", s("mix1.json"), "--eps-rel", str(GMM_EPS_REL)], gmm_check),
    ]


# ---- entry points ----


def inputs(name: str, seed: int, scale: float = 1.0):
    """Every generated array of a workload; the same seed gives the same inputs."""
    if name == "cloud-sinkhorn":
        return _cloud_inputs(seed, scale)
    if name == "small-solves":
        return _small_inputs(seed, scale)
    if name == "cli-files":
        return _cli_inputs(seed, scale)
    raise ValueError(f"unknown workload {name!r}")


def build(name: str, otkit, inp, files: str, out: str) -> list[Op]:
    """Problem objects and operations; ``files`` holds the cli-files inputs."""
    if name == "cloud-sinkhorn":
        return [_cloud_build(otkit, inst) for inst in inp]
    if name == "small-solves":
        return _small_build(otkit, inp)
    return _cli_build(otkit, inp, files, out)

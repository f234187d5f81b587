"""File-driven command line interface.

Subcommands map one-to-one onto library calls: ``lin`` (entropic or
low-rank OT), ``quad`` (Gromov-Wasserstein between two point clouds),
``barycenter``, ``softsort`` and ``gmm``. Inputs are headerless CSV
(comma-separated, '#' starts a comment) or JSON for mixtures; the
result is a JSON summary on stdout or ``--out``, plus optional CSV
artifacts, all written atomically.

Exit codes: 0 on success, 1 on input errors, 2 when a solver stopped
without converging. Every rejection of input exits 1 with one
``error:`` line on stderr, whether argparse, the CLI's weight rule (a
sum within 1e-6 of 1 is rescaled to 1) or a library check turns it
away. Set ``OTKIT_LOG=DEBUG|INFO|WARNING|ERROR`` to control log
verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from .barycenter import BarycenterProblem, solve_barycenter
from .errors import DivergedError
from .fileio import (
    read_gmm,
    read_matrix,
    read_vector,
    write_json_atomic,
    write_matrix_atomic,
    write_text_atomic,
)
from .geometry import COST_FNS, DenseGeometry, GridGeometry, PointCloudGeometry
from .lowrank import lr_coupling, solve_lr_sinkhorn
from .quadratic import QuadraticProblem, solve_gw
from .reference import exact_gw_2x2, exact_lp_uniform
from .sinkhorn import LinearProblem, _as_weights, reg_ot_cost, solve_sinkhorn, transport_matrix
from .tools import SoftSortSpec, _ranks, _sorted_values, gmm_distance, sort_transport

logger = logging.getLogger(__name__)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # Route argparse usage errors through the common exit-code-1 path.
    def error(self, message):
        raise ValueError(message)


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("OTKIT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except DivergedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


# ---- shared helpers ----


def _emit(args, payload: dict) -> None:
    if args.out:
        write_json_atomic(args.out, payload)
    else:
        print(json.dumps(payload, indent=2))


def _as_cli_weights(w: np.ndarray, size: int, name: str) -> np.ndarray:
    # The CLI's own rule: a sum within 1e-6 of 1 is rescaled to 1
    # (dividing by 1.0 is exact); the negated test turns NaN away too.
    # Shape, sign and finiteness are the library's checks.
    total = w.sum()
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError(f"{name} sums to {total!r}; expected 1 (within 1e-6)")
    w = _as_weights(w / total, size, name)
    if abs(total - 1.0) > 1e-9:
        logger.warning("%s sums to %.12g; rescaling to 1", name, total)
    return w


def _floats(raw: str, expected: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in raw.split(",")])
    except ValueError:
        raise ValueError(f"{expected}, got {raw!r}") from None


def _resolve_eps(args, geom) -> float | None:
    if args.eps is not None:
        return args.eps
    if args.eps_rel is not None:
        return args.eps_rel * geom.mean_cost()
    return None


def _solver_opts(args) -> dict:
    opts = {}
    if args.threshold is not None:
        opts["threshold"] = args.threshold
    if args.max_iters is not None:
        opts["max_iters"] = args.max_iters
    return opts


# ---- lin ----


def _cmd_lin(args) -> int:
    if (args.cost_matrix is None) == (args.x is None or args.y is None):
        raise ValueError("provide either --cost-matrix or both --x and --y")
    if args.cost_matrix is not None:
        geom = DenseGeometry(read_matrix(args.cost_matrix))
    else:
        geom = PointCloudGeometry(read_matrix(args.x), read_matrix(args.y), args.cost)
    if args.coupling_out:
        # Only this flag needs the dense coupling; above the cap, refuse
        # (exit 1) before solving.
        geom._check_cap(None)
    n, m = geom.shape
    a = _as_cli_weights(read_vector(args.a), n, "a") if args.a else None
    b = _as_cli_weights(read_vector(args.b), m, "b") if args.b else None
    prob = LinearProblem(geom, a, b)
    eps = _resolve_eps(args, geom)
    opts = _solver_opts(args)

    if args.solver == "lr":
        if args.rank is None:
            raise ValueError("--solver lr requires --rank")
        if eps is not None:
            logger.warning("the low-rank solver has no entropic eps; ignoring --eps/--eps-rel")
        out = solve_lr_sinkhorn(prob, args.rank, seed=args.seed, **opts)
        fields = {"rank": args.rank, "transport_cost": float(out.costs[-1]), "dual_objective": None}
        solved_eps = None
    else:
        out = solve_sinkhorn(prob, eps, **opts)
        costs = reg_ot_cost(out, prob)
        fields = {"transport_cost": costs.transport_cost, "dual_objective": costs.dual_objective}
        solved_eps = out.eps
    payload = {
        "command": "lin",
        "solver": args.solver,
        **fields,
        "iterations": out.iterations,
        "converged": out.converged,
        "eps": solved_eps,
    }
    if args.verify:
        payload["verify"] = _verify_lin(geom, prob, payload["transport_cost"])
    if args.coupling_out:
        coupling = lr_coupling(out.factors) if args.solver == "lr" else transport_matrix(out, prob)
        write_matrix_atomic(args.coupling_out, coupling.matrix)
    _emit(args, payload)
    return 0 if payload["converged"] else 2


def _verify_lin(geom, prob, transport_cost: float) -> dict:
    n, m = geom.shape
    uniform = np.allclose(prob.a, 1.0 / n) and np.allclose(prob.b, 1.0 / m)
    if n != m or n > 7 or not uniform:
        return {"skipped": "exact LP oracle needs uniform weights and n == m <= 7"}
    oracle = exact_lp_uniform(geom.cost_matrix())
    return {"oracle_value": oracle.value, "gap": transport_cost - oracle.value}


# ---- quad ----


def _cmd_quad(args) -> int:
    x = read_matrix(args.x)
    y = read_matrix(args.y)
    qp = QuadraticProblem(PointCloudGeometry(x, x, args.cost), PointCloudGeometry(y, y, args.cost))
    kwargs = {}
    if args.eps is not None:
        kwargs["eps"] = args.eps
    if args.eps_rel is not None:
        kwargs["eps_rel"] = args.eps_rel
    if args.threshold is not None:
        kwargs["outer_threshold"] = args.threshold
    if args.max_iters is not None:
        kwargs["outer_iters"] = args.max_iters
    out = solve_gw(qp, **kwargs)
    payload = {
        "command": "quad",
        "gw_cost": out.gw_cost,
        "outer_iterations": out.outer_iterations,
        "converged": out.converged,
        "cost_trace": out.cost_trace.tolist(),
    }
    if args.verify:
        payload["verify"] = _verify_quad(qp, out.gw_cost)
    plan = out.coupling.matrix
    if args.coupling_out:
        write_matrix_atomic(args.coupling_out, plan)
    if args.correspondence_out:
        partner = plan.argmax(axis=1)
        lines = [f"{i},{partner[i]},{float(plan[i, partner[i]])!r}" for i in range(plan.shape[0])]
        write_text_atomic(args.correspondence_out, "\n".join(lines) + "\n")
    _emit(args, payload)
    return 0 if out.converged else 2


def _verify_quad(qp, gw_cost: float) -> dict:
    if qp.geom_x.shape[0] != 2 or qp.geom_y.shape[0] != 2:
        return {"skipped": "exact GW oracle needs n == m == 2"}
    oracle = exact_gw_2x2(qp.geom_x.cost_matrix(), qp.geom_y.cost_matrix(), qp.a, qp.b)
    return {"oracle_value": oracle.value, "gap": gw_cost - oracle.value}


# ---- barycenter ----


def _cmd_barycenter(args) -> int:
    if args.support is not None:
        support = read_matrix(args.support)
        geom = PointCloudGeometry(support, support, args.cost)
    else:
        geom = GridGeometry([read_vector(p) for p in args.grid])
    hists = np.stack(
        [_as_cli_weights(read_vector(p), geom.shape[0], f"histogram {i}") for i, p in enumerate(args.hist)]
    )
    weights = _parse_weights_arg(args.weights, hists.shape[0])
    bp = BarycenterProblem(geom, hists, weights)
    eps = _resolve_eps(args, geom)
    out = solve_barycenter(bp, eps, **_solver_opts(args))
    payload = {
        "command": "barycenter",
        "converged": out.converged,
        "iterations": out.iterations,
        "eps": out.eps,
        "num_histograms": int(hists.shape[0]),
        "support_size": int(geom.shape[0]),
        "barycenter": out.barycenter.tolist(),
    }
    if args.barycenter_out:
        write_matrix_atomic(args.barycenter_out, out.barycenter.reshape(-1, 1))
    _emit(args, payload)
    return 0 if out.converged else 2


def _parse_weights_arg(raw: str | None, size: int) -> np.ndarray | None:
    if raw is None:
        return None
    if os.path.exists(raw):
        w = read_vector(raw)
    else:
        w = _floats(raw, "--weights must be a CSV path or comma-separated floats")
    return _as_cli_weights(w, size, "weights")


# ---- softsort ----


def _cmd_softsort(args) -> int:
    if args.values is not None:
        x = _floats(args.values, "--values must be comma-separated floats")
    else:
        x = read_vector(args.input)
    spec = SoftSortSpec(num_targets=args.num_targets, eps=args.eps if args.eps is not None else 1e-2)
    opts = _solver_opts(args)
    plan, converged = sort_transport(x, spec, **opts)
    payload = {
        "command": "softsort",
        "eps": spec.eps,
        "converged": converged,
        "sorted_values": _sorted_values(plan, x).tolist(),
        "ranks": _ranks(plan).tolist() if plan.shape == (x.size, x.size) else None,
    }
    if args.eps_sweep:
        sweep = []
        for eps in _parse_sweep(args.eps_sweep):
            plan_e, conv_e = sort_transport(x, dataclasses.replace(spec, eps=eps), **opts)
            converged = converged and conv_e
            sweep.append({"eps": eps, "sorted_values": _sorted_values(plan_e, x).tolist()})
        payload["sweep"] = sweep
        payload["converged"] = converged
    _emit(args, payload)
    return 0 if converged else 2


def _parse_sweep(raw: str) -> list[float]:
    try:
        lo, hi, count = raw.split(",")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(f"--eps-sweep must be LO,HI,COUNT, got {raw!r}") from None
    if not (0 < lo <= hi < np.inf) or count < 1:
        raise ValueError("--eps-sweep needs 0 < LO <= HI < inf and COUNT >= 1")
    return [float(e) for e in np.geomspace(lo, hi, count)]


# ---- gmm ----


def _cmd_gmm(args) -> int:
    mix1 = read_gmm(args.m1)
    mix2 = read_gmm(args.m2)
    kwargs = _solver_opts(args)
    if args.eps_rel is not None:
        kwargs["eps_rel"] = args.eps_rel
    result = gmm_distance(mix1, mix2, **kwargs)
    payload = {
        "command": "gmm",
        "value": result.value,
        "converged": result.converged,
        "coupling": result.coupling.tolist(),
    }
    _emit(args, payload)
    return 0 if result.converged else 2


# ---- parser ----


def _add_common(sub, eps: bool = True) -> None:
    if eps:
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--eps", type=float, help="absolute regularization strength")
        group.add_argument("--eps-rel", type=float, help="regularization as a fraction of the mean cost")
    sub.add_argument("--threshold", type=float, help="solver convergence threshold")
    sub.add_argument("--max-iters", type=int, help="solver iteration cap")
    sub.add_argument("--out", help="write the JSON summary here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="otkit", description="optimal transport solvers over CSV/JSON files")
    commands = parser.add_subparsers(dest="command", required=True)

    lin = commands.add_parser("lin", help="entropic or low-rank OT between two discrete measures")
    lin.add_argument("--x", help="source points CSV (one point per row)")
    lin.add_argument("--y", help="target points CSV")
    lin.add_argument("--cost-matrix", help="explicit cost matrix CSV (alternative to --x/--y)")
    lin.add_argument("--cost", choices=COST_FNS, default="sqeucl", help="point-cloud cost function")
    lin.add_argument("--a", help="source weights CSV (default uniform)")
    lin.add_argument("--b", help="target weights CSV (default uniform)")
    lin.add_argument("--solver", choices=("sinkhorn", "lr"), default="sinkhorn")
    lin.add_argument("--rank", type=int, help="factor rank for --solver lr")
    lin.add_argument("--seed", type=int, default=0, help="seed for the low-rank random start")
    lin.add_argument("--coupling-out", help="write the coupling matrix CSV here")
    lin.add_argument("--verify", action="store_true", help="cross-check against the exact LP oracle")
    _add_common(lin)
    lin.set_defaults(handler=_cmd_lin)

    quad = commands.add_parser("quad", help="Gromov-Wasserstein matching of two point clouds")
    quad.add_argument("--x", required=True, help="first cloud CSV")
    quad.add_argument("--y", required=True, help="second cloud CSV (dimension may differ)")
    quad.add_argument("--cost", choices=COST_FNS, default="sqeucl", help="within-space cost function")
    quad.add_argument("--coupling-out", help="write the coupling matrix CSV here")
    quad.add_argument("--correspondence-out", help="write row-argmax correspondences (i,j,mass) here")
    quad.add_argument("--verify", action="store_true", help="cross-check against the exact 2x2 oracle")
    _add_common(quad)
    quad.set_defaults(handler=_cmd_quad)

    bary = commands.add_parser("barycenter", help="fixed-support barycenter of histograms")
    domain = bary.add_mutually_exclusive_group(required=True)
    domain.add_argument("--support", help="support points CSV (dense mode)")
    domain.add_argument("--grid", nargs="+", help="per-axis coordinate CSVs (separable grid mode)")
    bary.add_argument("--cost", choices=COST_FNS, default="sqeucl", help="support cost function (dense mode)")
    bary.add_argument("--hist", action="append", required=True, help="histogram CSV; repeat per input")
    bary.add_argument("--weights", help="barycentric weights: comma-separated floats or a CSV path")
    bary.add_argument("--barycenter-out", help="write the barycenter CSV here")
    _add_common(bary)
    bary.set_defaults(handler=_cmd_barycenter)

    softsort = commands.add_parser("softsort", help="entropic sorting and ranking of a value list")
    source = softsort.add_mutually_exclusive_group(required=True)
    source.add_argument("--values", help="comma-separated input values")
    source.add_argument("--input", help="input values CSV (alternative to --values)")
    softsort.add_argument("--num-targets", type=int, help="number of sort targets (default: input length)")
    softsort.add_argument("--eps", type=float, help="regularization in squashed units (default 1e-2)")
    softsort.add_argument("--eps-sweep", help="LO,HI,COUNT geometric eps sweep; one output row per eps")
    _add_common(softsort, eps=False)
    softsort.set_defaults(handler=_cmd_softsort)

    gmm = commands.add_parser("gmm", help="OT distance between two Gaussian mixtures")
    gmm.add_argument("--m1", required=True, help="first mixture JSON (weights/means/covs)")
    gmm.add_argument("--m2", required=True, help="second mixture JSON")
    gmm.add_argument("--eps-rel", type=float, help="regularization as a fraction of the mean pair cost")
    _add_common(gmm, eps=False)
    gmm.set_defaults(handler=_cmd_gmm)

    return parser


if __name__ == "__main__":
    sys.exit(main())

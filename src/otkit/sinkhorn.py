"""Sinkhorn solver for entropic optimal transport.

Solves ``min_{P in U(a,b)} <C, P> + eps <P, log P - 1>`` by alternating
exact maximization of the dual over the potentials (f, g). Under
``DEFAULT_DENSE_CAP`` entries the updates are kernel scalings
u = a / (K v), v = b / (K^T u) with one cached kernel K = exp(-C/eps);
above the cap, when eps is small against the cost range, or once a
scaling under- or overflows, they run in the log domain, which keeps
very small eps usable. The coupling is only materialized on demand
(``transport_matrix``), while the cost and gradient reductions stream it
in row blocks.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import NamedTuple

import numpy as np

from .errors import DivergedError
from .geometry import EpsilonSchedule, Geometry, PointCloudGeometry

logger = logging.getLogger(__name__)

# Smallest normal float64: scalings and their denominators below it lose
# precision, so the sweep hands over to the log domain.
_TINY = np.finfo(float).tiny

__all__ = [
    "LinearProblem",
    "SinkhornOutput",
    "Coupling",
    "RegOTCost",
    "solve_sinkhorn",
    "transport_matrix",
    "reg_ot_cost",
    "grad_weights",
    "grad_points",
]


def _as_weights(w: np.ndarray | None, size: int, name: str) -> np.ndarray:
    if w is None:
        return np.full(size, 1.0 / size)
    w = np.asarray(w, dtype=float)
    if w.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError(f"{name} must be entrywise finite and nonnegative")
    if abs(w.sum() - 1.0) > 1e-8:
        raise ValueError(f"{name} must sum to 1, got {w.sum()!r}")
    return w


@dataclasses.dataclass(frozen=True, eq=False)
class LinearProblem:
    """Entropic OT task: a geometry plus two marginal histograms.

    ``a`` and ``b`` default to uniform weights. Zero entries are
    allowed; the corresponding potentials sit at -inf and the coupling
    carries no mass there.
    """

    geom: Geometry
    a: np.ndarray | None = None
    b: np.ndarray | None = None

    def __post_init__(self):
        n, m = self.geom.shape
        object.__setattr__(self, "a", _as_weights(self.a, n, "a"))
        object.__setattr__(self, "b", _as_weights(self.b, m, "b"))


@dataclasses.dataclass(frozen=True, eq=False)
class SinkhornOutput:
    """Converged (or truncated) state of a Sinkhorn run.

    ``errors`` holds the L1 deviation of the row marginal from ``a`` at
    each measurement point; after every full sweep the column marginal
    matches ``b`` exactly, so the row error is the full infeasibility.
    ``dual_trace`` holds the dual objective at the same points.
    """

    f: np.ndarray
    g: np.ndarray
    errors: np.ndarray
    dual_trace: np.ndarray
    iterations: int
    converged: bool
    eps: float


@dataclasses.dataclass(frozen=True, eq=False)
class Coupling:
    """A transport plan, stored as its dense matrix."""

    matrix: np.ndarray

    def row_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


class RegOTCost(NamedTuple):
    transport_cost: float
    dual_objective: float


def _resolve_schedule(geom: Geometry, eps) -> EpsilonSchedule:
    if isinstance(eps, EpsilonSchedule):
        return eps
    return EpsilonSchedule(geom._resolve_eps(eps))


def _dual_objective(f, g, a, b, eps, total_mass):
    with np.errstate(invalid="ignore"):
        fa = np.where(a > 0, f * a, 0.0).sum()
        gb = np.where(b > 0, g * b, 0.0).sum()
    return float(fa + gb - eps * (total_mass - 1.0))


def solve_sinkhorn(
    prob: LinearProblem,
    eps: float | EpsilonSchedule | None = None,
    *,
    threshold: float = 1e-3,
    max_iters: int = 2000,
    inner_iters: int = 10,
) -> SinkhornOutput:
    """Runs Sinkhorn iterations until the marginals match.

    Under ``DEFAULT_DENSE_CAP`` entries, and while max|C|/eps fits in
    float64's exponent range, the sweeps multiply scalings by one n x m
    kernel exp(-C/eps), built once per solve and again whenever the
    schedule changes eps. Otherwise, and from the first sweep whose
    scalings leave the normal range, they run in the log domain.

    Args:
      prob: the problem to solve.
      eps: regularization strength; a float, an :class:`EpsilonSchedule`
        decaying toward its target, or ``None`` for the geometry default.
      threshold: stop once the L1 row-marginal error drops below this.
      max_iters: hard cap on the number of (f, g) sweeps.
      inner_iters: check convergence every this many sweeps.

    Returns:
      A :class:`SinkhornOutput`; ``converged`` is False when the
      iteration budget ran out first.

    Raises:
      DivergedError: if a log-domain potential turns NaN or +inf, or
        -inf at a positive weight, which points at an eps too small for
        the cost scale.
    """
    return _sinkhorn_iterations(prob, eps, threshold, max_iters, inner_iters, None)


def _sinkhorn_iterations(prob, eps, threshold, max_iters, inner_iters, g_init) -> SinkhornOutput:
    if max_iters < 1 or inner_iters < 1:
        raise ValueError("max_iters and inner_iters must be >= 1")
    if not (threshold > 0):
        raise ValueError("threshold must be positive")
    geom = prob.geom
    schedule = _resolve_schedule(geom, eps)
    target = schedule.target
    f = np.zeros(geom.shape[0])
    g = np.zeros(geom.shape[1]) if g_init is None else np.asarray(g_init, dtype=float).copy()
    errors: list[float] = []
    duals: list[float] = []
    converged = False
    # The kernel is rebuilt (in place) only when the schedule changes eps;
    # once it is declined or a scaling fails, the log domain takes over.
    kernel = None
    kernel_eps = None
    scaling = True
    t = 0
    for t in range(1, max_iters + 1):
        e = schedule.at(t - 1)
        if scaling and e != kernel_eps:
            kernel, kernel_eps = geom._kernel_matrix(e, kernel), e
            scaling = kernel is not None
        step = _scaling_sweep(kernel, prob.a, prob.b, g, e) if scaling else None
        if step is None:
            if scaling:
                logger.debug("sinkhorn: scalings left the normal range at iteration %d; continuing in the log domain", t)
            scaling, kernel = False, None
            step = _log_sweep(geom, prob.a, prob.b, g, e, t)
        f, g = step
        if t % inner_iters == 0 or t == max_iters:
            if e > target:
                continue  # still warming up the schedule; errors not comparable yet
            if kernel is None:
                row = np.exp(geom.apply_lse_kernel(f, g, e, axis="rows") / e)
            else:
                row = np.exp(f / e) * (kernel @ np.exp(g / e))
            err = float(np.abs(row - prob.a).sum())
            errors.append(err)
            duals.append(_dual_objective(f, g, prob.a, prob.b, e, row.sum()))
            if err <= threshold:
                converged = True
                break
    if not converged:
        logger.info("sinkhorn: no convergence after %d iterations (last error %s)", t, errors[-1] if errors else None)
    return SinkhornOutput(
        f=f,
        g=g,
        errors=np.asarray(errors),
        dual_trace=np.asarray(duals),
        iterations=t,
        converged=converged,
        eps=target,
    )


def _scalings(w: np.ndarray, kv: np.ndarray) -> np.ndarray | None:
    """``w / kv``, or None where that loses precision: a denominator or a
    scaling below float64's normal range (or non-finite) at a positive
    weight, or anything but 0 at a zero weight."""
    s = w / kv
    ok = np.where(w > 0, (kv >= _TINY) & (s >= _TINY), s == 0.0)
    return s if ok.all() else None


def _scaling_sweep(kernel, a, b, g, e):
    """One sweep u = a / (K v), v = b / (K^T u) from v = exp(g/eps), as
    potentials (eps log u, eps log v); None when a scaling fails."""
    with np.errstate(all="ignore"):
        u = _scalings(a, kernel @ np.exp(g / e))
        v = None if u is None else _scalings(b, u @ kernel)
        if v is None:
            return None
        return e * np.log(u), e * np.log(v)


def _log_sweep(geom, a, b, g, e, t):
    """One log-domain sweep; raises DivergedError at sweep ``t`` when a
    potential is NaN or +inf, or -inf at a positive weight."""
    n, m = geom.shape
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = e * np.log(a) - geom.apply_lse_kernel(np.zeros(n), g, e, axis="rows")
        _check_diverged(f, a, t)
        g = e * np.log(b) - geom.apply_lse_kernel(f, np.zeros(m), e, axis="cols")
        _check_diverged(g, b, t)
    return f, g


def _check_diverged(p: np.ndarray, w: np.ndarray, t: int) -> None:
    # Zero weights sit at exactly -inf; every other entry must be finite.
    if not np.where(w > 0, np.isfinite(p), p == -np.inf).all():
        raise DivergedError(
            "non-finite Sinkhorn potentials; eps is likely too small for the cost scale",
            iteration=t,
        )


def transport_matrix(out: SinkhornOutput, prob: LinearProblem) -> Coupling:
    """Materializes the coupling; refuses above ``DEFAULT_DENSE_CAP`` entries."""
    geom = prob.geom
    geom._check_cap(None)
    plan = np.empty(geom.shape)
    for start, stop, _, rows in geom._plan_blocks(out.f, out.g, out.eps):
        plan[start:stop] = rows
    return Coupling(plan)


def reg_ot_cost(out: SinkhornOutput, prob: LinearProblem) -> RegOTCost:
    """Primal transport cost <C, P> and dual objective, streamed in row blocks."""
    n = prob.geom.shape[0]
    row_cost = np.empty(n)
    row_mass = np.empty(n)
    for start, stop, cost, plan in prob.geom._plan_blocks(out.f, out.g, out.eps):
        row_cost[start:stop] = (cost * plan).sum(axis=1)
        row_mass[start:stop] = plan.sum(axis=1)
    dual = _dual_objective(out.f, out.g, prob.a, prob.b, out.eps, row_mass.sum())
    return RegOTCost(float(row_cost.sum()), dual)


def grad_weights(out: SinkhornOutput, prob: LinearProblem) -> np.ndarray:
    """Gradient of the regularized OT value in the source weights a.

    By the envelope theorem this is the dual potential f, centered to
    zero mean so it acts on tangent (zero-sum) perturbations of the
    simplex. Refuses non-converged solutions, whose potentials are not
    valid dual certificates.
    """
    if not out.converged:
        raise ValueError("grad_weights requires a converged solution")
    return out.f - out.f.mean()


def grad_points(out: SinkhornOutput, prob: LinearProblem) -> np.ndarray:
    """Gradient of the regularized OT value in the source points x.

    Envelope theorem again: the coupling is treated as constant, so row
    i is ``sum_j P_ij * 2 (x_i - y_j)``. Only defined for point clouds
    with the squared Euclidean cost, whose derivative in x is linear.
    """
    if not out.converged:
        raise ValueError("grad_points requires a converged solution")
    geom = prob.geom
    if not isinstance(geom, PointCloudGeometry) or geom.cost_fn != "sqeucl":
        raise ValueError("grad_points requires a PointCloudGeometry with the sqeucl cost")
    grad = np.empty_like(geom.x)
    for start, stop, _, plan in geom._plan_blocks(out.f, out.g, out.eps):
        grad[start:stop] = 2.0 * (plan.sum(axis=1)[:, None] * geom.x[start:stop] - plan @ geom.y)
    return grad

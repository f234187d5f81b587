"""Sinkhorn solver for entropic optimal transport.

Solves ``min_{P in U(a,b)} <C, P> + eps <P, log P - 1>`` by alternating
exact maximization of the dual over the potentials (f, g):
f = eps log a - eps log(K e^{g/eps}), then g likewise against b. Each
such sweep goes through the geometry's kernel step, which owns the
iterate: on a kernel built once per eps (per-axis on grids, recomputed
from cost blocks on dense costs and point clouds above
``DEFAULT_DENSE_CAP``, one pass per sweep) it holds the scalings
u = e^{(f - c)/eps} and v = e^{g/eps}, c the cost's midrange, and a sweep
is u = a / K v, v = b / K^T u, with no exp or log; the potentials are
formed only at a convergence check, an eps change, the end of the solve
and a fall to the log domain, which keeps very small eps usable. The
coupling (``transport_matrix``) streams from the potentials in row
blocks; only its ``matrix`` is n x m, made on demand.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
from collections.abc import Callable, Iterable
from typing import NamedTuple

import numpy as np

from .geometry import EpsilonSchedule, Geometry, PointCloudGeometry, _KernelStep, _as_count

logger = logging.getLogger(__name__)

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
        raise ValueError(f"{name} must sum to 1, got {float(w.sum())}")
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
    """An n x m transport plan (``shape``) made a row block at a time: ``source(start, stop)``
    yields ``(lo, hi, rows)``, in order, the whole blocks of a fixed row grid that hold a row
    in [start, stop), in buffers of that pass; :meth:`blocks` cuts them to the range, so any
    range has the whole plan's bits. ``matrix`` and both marginals take one pass each."""

    shape: tuple[int, int]
    source: Callable[[int, int], Iterable[tuple]]

    def blocks(self, start: int = 0, stop: int | None = None):
        """Yields ``(lo, hi, rows)``, the plan's rows [lo, hi), over [start, stop)."""
        stop = self.shape[0] if stop is None else stop
        for lo, hi, rows in self.source(start, stop):
            yield max(lo, start), min(hi, stop), rows[max(lo, start) - lo : min(hi, stop) - lo]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        plan = np.empty(self.shape)
        for lo, hi, rows in self.blocks():
            if hi - lo == len(plan):
                return rows
            plan[lo:hi] = rows
        return plan

    @functools.cached_property
    def _marginals(self) -> tuple[np.ndarray, np.ndarray]:
        row, col = np.empty(self.shape[0]), np.zeros(self.shape[1])
        for lo, hi, rows in self.blocks():
            row[lo:hi] = rows.sum(axis=1)
            col += rows.sum(axis=0)
        return row, col

    def row_marginal(self) -> np.ndarray:
        return self._marginals[0].copy()

    def col_marginal(self) -> np.ndarray:
        return self._marginals[1].copy()


class RegOTCost(NamedTuple):
    transport_cost: float
    dual_objective: float


def _resolve_schedule(geom: Geometry, eps) -> EpsilonSchedule:
    if isinstance(eps, EpsilonSchedule):
        return eps
    return EpsilonSchedule(geom._resolve_eps(eps))


def _dual_objective(f, g, a, b, support, eps, total_mass):
    """<f, a> + <g, b> - eps (total_mass - 1) over ``support``, the masks
    (a > 0, b > 0): f and g are -inf off them. Callers run it under
    ``np.errstate(invalid="ignore")``."""
    fa = np.where(support[0], f * a, 0.0).sum()
    gb = np.where(support[1], g * b, 0.0).sum()
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

    While half the cost range over eps fits in float64's exponent range,
    the sweeps multiply by the kernel exp((c - C)/eps), c the midrange of
    C, rebuilt when the schedule changes eps; the range of C is scanned
    once per geometry. On grids of any size it is one kernel per axis. On
    dense costs and point clouds it is the exp of the geometry's exponent
    blocks: one n x m matrix under ``DEFAULT_DENSE_CAP`` entries, written
    straight from them (for squared-Euclidean and cosine clouds, one
    matrix product of the cost factors per block), and above the cap the
    blocks again, in one pass per sweep, so no n x m array is held beyond
    a dense cost itself, which is never written. A block holds about
    512 KiB (the geometry's block rows, at least 16), whatever n and m.
    On a kernel the sweeps run on the scalings u = exp((f - c)/eps) and
    v = exp(g/eps): the two products, one min and one max over them,
    u = a / K v and v = b / K^T u. Once eps is at its target, the sweeps
    between two checks are one call to the kernel step, whose one loop
    makes every sweep, bitwise the same sweeps as one call each; its
    product step is picked once per eps, two inline matrix products on
    the one n x m kernel. The potentials f = eps log u + c and
    g = eps log v are formed only at a check, at an eps change, at the
    end, and when the solve leaves the kernel: when it is declined, and
    from the first product outside float64's normal range, whose whole
    sweep is redone from those potentials, inside a run of sweeps too.
    From there on the sweeps run in the log domain, which reduces the
    same blocks one at a time and so holds one block on every backend
    but grids, which contract per axis.

    Args:
      prob: the problem to solve.
      eps: regularization strength; a float, an :class:`EpsilonSchedule`
        decaying toward its target, or ``None`` for the geometry default.
      threshold: stop once the L1 row-marginal error drops below this.
      max_iters: hard cap on the number of (f, g) sweeps returned; a
        check at the cap, like every check, runs one more sweep.
      inner_iters: check convergence every this many sweeps, from the
        first product of the next sweep, which is K e^{g/eps}.

    Returns:
      A :class:`SinkhornOutput`; ``converged`` is False when the
      iteration budget ran out first.

    Raises:
      DivergedError: if a log-domain kernel application is not finite,
        which points at an eps too small for the cost scale; its
        ``iteration`` is the sweep whose product failed.
    """
    return _sinkhorn_iterations(prob, eps, threshold, max_iters, inner_iters, None)


def _sinkhorn_iterations(prob, eps, threshold, max_iters, inner_iters, g_init) -> SinkhornOutput:
    max_iters, inner_iters = _as_count(max_iters, "max_iters"), _as_count(inner_iters, "inner_iters")
    if max_iters < 1 or inner_iters < 1:
        raise ValueError("max_iters and inner_iters must be >= 1")
    if not (threshold > 0):
        raise ValueError("threshold must be positive")
    geom = prob.geom
    schedule = _resolve_schedule(geom, eps)
    target = schedule.target
    g = np.zeros(geom.shape[1]) if g_init is None else np.asarray(g_init, dtype=float)
    errors: list[float] = []
    duals: list[float] = []
    converged = checking = False
    t = 0
    support = prob.a > 0, prob.b > 0
    with np.errstate(all="ignore"):
        step = _KernelStep(geom, prob.a, g, prob.b)
        while t < max_iters or checking:
            e = schedule.at(t)
            if checking:
                # The row marginal of (f, g) comes from the next sweep's
                # first product.
                f, g = step.potentials()
                row = step.sweep(e, t + 1, check=True)
                err = float(np.abs(row - prob.a).sum())
                errors.append(err)
                duals.append(_dual_objective(f, g, prob.a, prob.b, support, e, row.sum()))
                converged = err <= threshold
                if converged or t == max_iters:
                    break
                t += 1
            else:
                # Once eps is at its target, the sweeps up to the next
                # check run in one call.
                count = 1 if e > target else min((t // inner_iters + 1) * inner_iters, max_iters) - t
                step.sweep(e, t + 1, count=count)
                t += count
            # While the schedule warms up, errors are not comparable yet.
            checking = (t % inner_iters == 0 or t == max_iters) and e <= target
        if not checking:
            f, g = step.potentials()
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


def transport_matrix(out: SinkhornOutput, prob: LinearProblem) -> Coupling:
    """The solve's coupling, from its potentials; refuses above ``DEFAULT_DENSE_CAP`` entries."""
    prob.geom._check_cap(None)
    return _coupling(out, prob)


def _coupling(out: SinkhornOutput, prob: LinearProblem) -> Coupling:
    """The coupling exp((f + g - C)/eps) of a solve, in the geometry's row blocks."""
    f, g = prob.geom._check_potentials(out.f, out.g)
    return Coupling(prob.geom.shape, lambda start, stop: prob.geom._plan_blocks(f, g, out.eps, rows=(start, stop)))


def reg_ot_cost(out: SinkhornOutput, prob: LinearProblem) -> RegOTCost:
    """Primal transport cost <C, P> and dual objective, streamed in row blocks."""
    row_cost, row_mass = prob.geom._transport_rows(out.f, out.g, out.eps)
    with np.errstate(invalid="ignore"):
        dual = _dual_objective(out.f, out.g, prob.a, prob.b, (prob.a > 0, prob.b > 0), out.eps, row_mass.sum())
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
    for start, stop, plan in _coupling(out, prob).blocks():
        grad[start:stop] = 2.0 * (plan.sum(axis=1)[:, None] * geom.x[start:stop] - plan @ geom.y)
    return grad

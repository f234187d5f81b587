"""Low-rank Sinkhorn: transport plans factored as P = Q diag(1/g) R^T.

The factors Q (n x r), R (m x r) and the shared inner marginal g (r,)
are optimized by mirror descent on the transport cost, where every step
is followed by a Dykstra-style alternating-scaling projection onto the
three marginal constraints Q1 = a, R1 = b, Q^T 1 = R^T 1 = g. The
projection sweeps on scalings u = a / (K v), the rank-length recursion
kept in logs, and restarts in the log domain when a product leaves
float64's normal range.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .errors import DivergedError
from .geometry import _lse
from .sinkhorn import Coupling, LinearProblem, _sinkhorn_iterations, transport_matrix

logger = logging.getLogger(__name__)

__all__ = ["LowRankFactors", "LowRankOutput", "solve_lr_sinkhorn", "lr_coupling"]

# Inner projection: floor on g, sweep cap per outer step, marginal tolerance.
_G_FLOOR = 1e-10
_DYKSTRA_MAX_SWEEPS = 100
_DYKSTRA_TOL = 1e-9
# Scaling sweeps keep v and K^T u within [tiny, max / rank].
_LOG_TINY = np.log(np.finfo(float).tiny)
_LOG_MAX = np.log(np.finfo(float).max)
# A step is only accepted when its projection residual is this small and
# the transport cost did not go up; otherwise the step size is halved and
# the step retried. After a clean streak the step size recovers (doubles,
# capped at its starting value) so one bad stretch does not pin the
# iteration at a microscopic step forever.
_PROJECTION_ACCEPT = 5e-7
_MAX_BACKOFFS_PER_STEP = 10
_RECOVERY_WINDOW = 25
_DESCENT_SLACK = 1e-9
# Starting factors are carved out of a moderately blurred entropic plan;
# the blur keeps the guide solve cheap and stable while its support still
# points at the right basin of the (nonconvex) factored problem.
_GUIDE_EPS_SCALE = 0.05
_GUIDE_THRESHOLD = 1e-4
_GUIDE_MAX_ITERS = 2000
_INIT_JITTER = 0.05
_INIT_DIAG_BLEND = 0.2


@dataclasses.dataclass(frozen=True, eq=False)
class LowRankFactors:
    """Factored transport plan: P = q diag(1/g) r^T."""

    q: np.ndarray
    r: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if self.q.ndim != 2 or self.r.ndim != 2 or self.g.ndim != 1:
            raise ValueError("q and r must be 2-D, g 1-D")
        rank = self.g.size
        if self.q.shape[1] != rank or self.r.shape[1] != rank:
            raise ValueError("q, r and g disagree on the rank")

    @property
    def rank(self) -> int:
        return self.g.size


@dataclasses.dataclass(frozen=True, eq=False)
class LowRankOutput:
    factors: LowRankFactors
    costs: np.ndarray
    iterations: int
    converged: bool


def lr_coupling(factors: LowRankFactors) -> Coupling:
    """Assembles the dense coupling q diag(1/g) r^T from the factors."""
    if np.any(factors.g <= 0):
        raise ValueError("inner marginal g must be strictly positive")
    return Coupling((factors.q / factors.g[None, :]) @ factors.r.T)


def _dykstra(lk1, lk2, lk3, log_a, log_b, a, b):
    """KL projection of factor kernels onto the marginal constraints.

    The alternating scaling recursion with Dykstra correction terms.
    Columns of the returned factors match g exactly by construction; the
    sweeps run until the row-marginal residual is at most
    ``_DYKSTRA_TOL`` or ``_DYKSTRA_MAX_SWEEPS`` sweeps are spent,
    whichever comes first. The tolerance sits far below the step
    acceptance level ``_PROJECTION_ACCEPT`` because the descent test
    compares costs within ``_DESCENT_SLACK``: projections stopped at the
    acceptance level leave cost errors above that slack, and a rank-1
    solve then finds no acceptable first step. The sweeps run on
    scalings (``_scaling_dykstra``); when those decline, the projection
    restarts from the same inputs in the log domain (``_log_dykstra``,
    the reference) and returns exactly what that returns. Floating-point
    warnings are off in both: a too-large step overflows, and the step
    backoff of ``solve_lr_sinkhorn`` handles it. Returns the factor logs
    plus the final row-marginal residual.
    """
    with np.errstate(all="ignore"):
        result = _scaling_dykstra(lk1, lk2, lk3, a, b)
        if result is None:
            logger.debug("lowrank: a projection product left the normal range; projecting in the log domain")
            result = _log_dykstra(lk1, lk2, lk3, log_a, log_b, a, b)
    return result


def _shifted_kernel(lk, w):
    """``(exp(lk - c), c)``, c the row maxima of ``lk``; rows of zero
    weight get c = 0 and a kernel row of ones."""
    c = np.where(w > 0, lk.max(axis=1), 0.0)
    return np.exp(np.where(w[:, None] > 0, lk - c[:, None], 0.0)), c


def _scaling_dykstra(lk1, lk2, lk3, a, b):
    """``_log_dykstra``'s sweeps with the n x r products taken on scalings
    u = a / (K v) and v, the rank-length recursion kept in logs; None
    from the first product outside float64's normal range on, or on a
    non-finite residual.

    Each kernel row is shifted by its max. The shift cancels between u
    and K^T u and returns in the factor logs; zero-weight rows hold ones
    and keep u = 0.
    """
    rank = lk3.size
    log_hi = _LOG_MAX - np.log(rank)
    k1, c1 = _shifted_kernel(lk1, a)
    k2, c2 = _shifted_kernel(lk2, b)
    lv1t = np.zeros(rank)
    lv2t = np.zeros(rank)
    lq1 = np.zeros(rank)
    lq2 = np.zeros(rank)
    lq3_1 = np.zeros(rank)
    lq3_2 = np.zeros(rank)
    lgt = lk3.copy()
    log_floor = np.log(_G_FLOOR)
    # K v at v = 1; the residual of one sweep computes those of the next.
    kv1 = k1.sum(axis=1)
    kv2 = k2.sum(axis=1)
    for _ in range(_DYKSTRA_MAX_SWEEPS):
        u1 = a / kv1
        u2 = b / kv2
        lg = np.maximum(log_floor, lgt + lq3_1)
        lq3_1 = lgt + lq3_1 - lg
        lgt = lg
        lktu1 = np.log(u1 @ k1)
        lktu2 = np.log(u2 @ k2)
        lg = (lgt + lq3_2 + (lv1t + lq1 + lktu1) + (lv2t + lq2 + lktu2)) / 3.0
        lv1 = lg - lktu1
        lv2 = lg - lktu2
        lq1 = lv1t + lq1 - lv1
        lq2 = lv2t + lq2 - lv2
        lq3_2 = lgt + lq3_2 - lg
        lv1t, lv2t, lgt = lv1, lv2, lg
        # A positive-weight row of the shifted kernel holds an entry 1, so
        # min(v) <= K v <= rank * max(v): v and K^T u in [tiny, max / rank]
        # keep the n- and m-length products K v in range too, and u at
        # most 1 / tiny, with no reduction over them.
        span = np.concatenate((lktu1, lktu2, lv1, lv2))
        if not (span.min() >= _LOG_TINY and span.max() <= log_hi):
            return None
        kv1 = k1 @ np.exp(lv1)
        kv2 = k2 @ np.exp(lv2)
        err = np.abs(u1 * kv1 - a).sum() + np.abs(u2 * kv2 - b).sum()
        if err <= _DYKSTRA_TOL:
            break
    if not err < np.inf:
        return None
    lq = (np.log(u1) - c1)[:, None] + lk1 + lv1[None, :]
    lr = (np.log(u2) - c2)[:, None] + lk2 + lv2[None, :]
    return lq, lr, lgt, float(err)


def _log_dykstra(lk1, lk2, lk3, log_a, log_b, a, b):
    """``_dykstra`` in the log domain: 4 log-sum-exps over the factor
    kernels per sweep. Callers turn floating-point warnings off."""
    rank = lk3.size
    lv1t = np.zeros(rank)
    lv2t = np.zeros(rank)
    lq1 = np.zeros(rank)
    lq2 = np.zeros(rank)
    lq3_1 = np.zeros(rank)
    lq3_2 = np.zeros(rank)
    lgt = lk3.copy()
    log_floor = np.log(_G_FLOOR)
    # Row log-sum-exps of the factor kernels against the column scalings;
    # the residual of one sweep computes those of the next.
    ls1 = _lse(lk1 + lv1t[None, :], axis=1)
    ls2 = _lse(lk2 + lv2t[None, :], axis=1)
    for _ in range(_DYKSTRA_MAX_SWEEPS):
        lu1 = np.where(a > 0, log_a - ls1, -np.inf)
        lu2 = np.where(b > 0, log_b - ls2, -np.inf)
        lg = np.maximum(log_floor, lgt + lq3_1)
        lq3_1 = lgt + lq3_1 - lg
        lgt = lg
        lktu1 = _lse(lk1 + lu1[:, None], axis=0)
        lktu2 = _lse(lk2 + lu2[:, None], axis=0)
        lg = (lgt + lq3_2 + (lv1t + lq1 + lktu1) + (lv2t + lq2 + lktu2)) / 3.0
        lv1 = lg - lktu1
        lv2 = lg - lktu2
        lq1 = lv1t + lq1 - lv1
        lq2 = lv2t + lq2 - lv2
        lq3_2 = lgt + lq3_2 - lg
        lv1t, lv2t, lgt = lv1, lv2, lg
        ls1 = _lse(lk1 + lv1[None, :], axis=1)
        ls2 = _lse(lk2 + lv2[None, :], axis=1)
        row1 = np.exp(lu1 + ls1)
        row2 = np.exp(lu2 + ls2)
        err = np.abs(row1 - a).sum() + np.abs(row2 - b).sum()
        if err <= _DYKSTRA_TOL:
            break
    lq = lu1[:, None] + lk1 + lv1[None, :]
    lr = lu2[:, None] + lk2 + lv2[None, :]
    return lq, lr, lgt, float(err)


def _initial_factors(prob, rank, seed, cost, log_a, log_b):
    """Seeded starting logs for (Q, R, g).

    The start must not be a product a u^T: rank-one factor states are
    invariant under both the mirror step and the projection (gradients
    become constant per column), so a product start would pin the
    iteration at the independence coupling. Instead, a blurred entropic
    plan is solved once and its columns are folded round-robin into the
    rank columns of Q; R starts near-diagonal so that each factor column
    inherits a distinct slice of the plan's support. Multiplicative
    jitter (seeded) keeps restarts meaningful. When the guide solve is
    unusable the start falls back to entrywise randomness with rows
    rescaled to the marginals, which is feasible and reproducible.
    """
    n, m = prob.geom.shape
    rng = np.random.default_rng(seed)
    eps0 = _GUIDE_EPS_SCALE * float(cost.mean())
    guide = None
    if eps0 > 0:
        try:
            sk = _sinkhorn_iterations(prob, eps0, _GUIDE_THRESHOLD, _GUIDE_MAX_ITERS, 10, None)
        except DivergedError:
            pass
        else:
            plan = transport_matrix(sk, prob).matrix
            if np.all(np.isfinite(plan)):
                guide = plan
    if guide is not None:
        groups = np.arange(m) % rank
        q0 = np.zeros((n, rank))
        for j in range(m):
            q0[:, groups[j]] += guide[:, j]
        q0 += 1e-12
        q0 *= np.exp(_INIT_JITTER * rng.standard_normal(q0.shape))
        w = rng.random(rank) + 0.2
        w /= w.sum()
        r0 = _INIT_DIAG_BLEND * np.outer(prob.b, w)
        r0[np.arange(m), groups] += (1.0 - _INIT_DIAG_BLEND) * prob.b
        r0 *= np.exp(_INIT_JITTER * rng.standard_normal(r0.shape))
        # Zero-weight rows of b are zero here; any positive row keeps
        # their logs at -inf instead of NaN.
        r0[prob.b == 0] = 1.0
    else:
        q0 = rng.random((n, rank)) + 0.5
        r0 = rng.random((m, rank)) + 0.5
    with np.errstate(divide="ignore"):
        lq = log_a[:, None] + np.log(q0 / q0.sum(axis=1, keepdims=True))
        lr = log_b[:, None] + np.log(r0 / r0.sum(axis=1, keepdims=True))
    g0 = np.exp(lq).sum(axis=0) + np.exp(lr).sum(axis=0) + 1e-12
    lg = np.log(g0 / g0.sum())
    return lq, lr, lg


def solve_lr_sinkhorn(
    prob: LinearProblem,
    rank: int,
    *,
    gamma: float | None = None,
    threshold: float = 1e-6,
    max_iters: int = 1000,
    inner_iters: int = 10,
    seed: int = 0,
) -> LowRankOutput:
    """Runs mirror descent on the factored coupling.

    Args:
      prob: the linear OT problem; its cost matrix is materialized once.
      rank: number of inner columns r; must satisfy 1 <= r <= min(n, m).
      gamma: mirror-descent step size. Defaults to 10 / max|gradient|
        measured at the first iteration. Whatever the starting value,
        steps whose projection stays infeasible or whose cost goes up
        are retried at half the size, so this acts as an upper bound.
      threshold: stop when the cost moved by at most
        ``threshold * (1 + |cost|)`` over the last ``inner_iters`` steps.
      max_iters: hard cap on mirror-descent steps.
      inner_iters: stopping-check cadence (and comparison window).
      seed: seed for the start factors (guide-plan jitter or the random
        fallback); fixed seed means a fully deterministic solve.

    Returns:
      A :class:`LowRankOutput` with the factors and the transport-cost
      trace (one entry per iterate, starting with the initial point).

    Raises:
      DivergedError: if factors turn NaN, typically a too-large gamma.
    """
    n, m = prob.geom.shape
    rank = int(rank)
    if rank < 1 or rank > min(n, m):
        raise ValueError(f"rank must lie in [1, {min(n, m)}], got {rank}")
    if gamma is not None and not (gamma > 0):
        raise ValueError("gamma must be positive")
    if max_iters < 1 or inner_iters < 1:
        raise ValueError("max_iters and inner_iters must be >= 1")
    cost = prob.geom.cost_matrix()
    a, b = prob.a, prob.b
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)

    lq, lr, lg = _initial_factors(prob, rank, seed, cost, log_a, log_b)
    lq, lr, lg, _ = _dykstra(lq, lr, lg, log_a, log_b, a, b)
    q, r, g = np.exp(lq), np.exp(lr), np.exp(lg)
    # cost @ (r / g) is both the transport cost's product and the next
    # step's q-gradient, so each accepted iterate computes it once.
    grad_q = cost @ (r / g[None, :])
    costs = [float(np.sum(q * grad_q))]
    converged = False
    gamma_cap = gamma
    clean_streak = 0
    t = 0
    for t in range(1, max_iters + 1):
        grad_r = cost.T @ (q / g[None, :])
        grad_g = -np.einsum("ik,ik->k", q, grad_q) / g
        if gamma is None:
            peak = max(np.abs(grad_q).max(), np.abs(grad_r).max(), np.abs(grad_g).max())
            gamma = 10.0 / peak if peak > 0 else 1.0
            gamma_cap = gamma
            logger.debug("lowrank: default gamma = %g", gamma)
        # Near a vertex the step kernels degenerate and the projection
        # cannot reach feasibility within its sweep budget, and too-long
        # steps can also overshoot the bilinear objective. Halve the
        # step and retry until the projection is clean and the cost does
        # not increase; if even tiny steps fail, the factorization has
        # hit its resolution limit and the last iterate is the answer.
        saw_finite = False
        for _ in range(_MAX_BACKOFFS_PER_STEP):
            lq_new, lr_new, lg_new, residual = _dykstra(
                lq - gamma * grad_q, lr - gamma * grad_r, lg - gamma * grad_g, log_a, log_b, a, b
            )
            if np.isfinite(residual):
                saw_finite = True
            if residual <= _PROJECTION_ACCEPT:
                q_new, r_new, g_new = np.exp(lq_new), np.exp(lr_new), np.exp(lg_new)
                grad_q_new = cost @ (r_new / g_new[None, :])
                cost_new = float(np.sum(q_new * grad_q_new))
                if np.isfinite(cost_new) and cost_new <= costs[-1] + _DESCENT_SLACK * (
                    1.0 + abs(costs[-1])
                ):
                    break
            gamma *= 0.5
            clean_streak = 0
        else:
            if not saw_finite:
                raise DivergedError(
                    "low-rank factors blew up despite step-size backoff", iteration=t
                )
            logger.info(
                "lowrank: no acceptable step at iteration %d (residual %.2e); stopping", t, residual
            )
            converged = t > 1
            break
        clean_streak += 1
        if clean_streak >= _RECOVERY_WINDOW and gamma < gamma_cap:
            gamma = min(gamma * 2.0, gamma_cap)
            clean_streak = 0
        lq, lr, lg = lq_new, lr_new, lg_new
        q, r, g, grad_q = q_new, r_new, g_new, grad_q_new
        costs.append(cost_new)
        if t % inner_iters == 0 and len(costs) > inner_iters:
            if abs(costs[-1] - costs[-1 - inner_iters]) <= threshold * (1.0 + abs(costs[-1])):
                converged = True
                break
    factors = LowRankFactors(q=q, r=r, g=g)
    return LowRankOutput(factors=factors, costs=np.asarray(costs), iterations=t, converged=converged)

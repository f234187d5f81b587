"""Low-rank Sinkhorn: transport plans factored as P = Q diag(1/g) R^T.

The factors Q (n x r), R (m x r) and the shared inner marginal g (r,)
are optimized by mirror descent on the transport cost, where every step
is followed by a KL projection onto the three marginal constraints
Q1 = a, R1 = b, Q^T 1 = R^T 1 = g (Scetbon, Cuturi & Peyre, "Low-Rank
Sinkhorn Factorization", 2021). The projection takes damped Newton steps
on its dual, which has only 2r variables once the row scalings are
solved in closed form, starting from the dual of the last accepted
projection, which predicts the next one's; a step whose projection
Newton declines counts as infeasible and is retried at half the size.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .errors import DivergedError
from .geometry import DEFAULT_EPSILON_SCALE, Geometry
from .sinkhorn import Coupling, LinearProblem, _as_count, _coupling, solve_sinkhorn

logger = logging.getLogger(__name__)

__all__ = ["LowRankFactors", "LowRankOutput", "solve_lr_sinkhorn", "lr_coupling"]

# Inner projection: floor on g, Newton step cap, marginal tolerance, and
# the Newton line search's halvings, sufficient-increase factor and the
# relative rounding of the dual.
_G_FLOOR = 1e-10
_PROJECTION_MAX_STEPS = 100
_PROJECTION_TOL = 1e-9
_LINE_SEARCH_HALVINGS = 30
_ARMIJO = 1e-4
_ROUNDING = 1e-12
# A step is only accepted when Newton projects it with a residual this
# small; otherwise, a declined projection included, the step size is
# halved, for this and every later step, and the step retried.
_PROJECTION_ACCEPT = 5e-7
_MAX_BACKOFFS_PER_STEP = 10
# Starting factors are carved out of a moderately blurred entropic plan
# (eps = DEFAULT_EPSILON_SCALE times the mean cost); the blur keeps the
# guide solve cheap and stable while its support still points at the
# right basin of the (nonconvex) factored problem.
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
    """The coupling q diag(1/g) r^T, streamed from the factors in row blocks."""
    if not np.all((factors.g > 0) & (factors.g < np.inf)):
        raise ValueError("inner marginal g must be positive and finite")

    def source(start, stop):
        for lo, hi, rows in Geometry()._blocks(len(factors.q), len(factors.r), rows=(start, stop)):
            yield lo, hi, np.matmul(factors.q[lo:hi] / factors.g, factors.r.T, out=rows)

    return Coupling((len(factors.q), len(factors.r)), source)


def _softmax_cols(z):
    """Column softmax of z and its column log-sum-exps."""
    hi = z.max(axis=0)
    p = np.exp(z - hi)
    total = p.sum(axis=0)
    return p / total, np.log(total) + hi


def _newton(lk1, lk2, lk3, a, b, h):
    """The projection by damped Newton steps on its 2r-variable dual,
    from the dual h.

    With the row scalings solved in closed form, the duals h = (h1, h2)
    of the two column constraints give Q = a * rowsoftmax(lk1 + h1),
    R = b * rowsoftmax(lk2 + h2) and g = exp(lk3 - h1 - h2), so the rows
    of Q and R match a and b exactly. The dual
    F(h) = -a . lse(lk1 + h1) - b . lse(lk2 + h2) - sum(g) is concave,
    with gradient (g - Q^T 1, g - R^T 1). The rows of both factors are
    the columns of one 2r x (n + m) array, each -inf in the other
    factor's rows, so one column softmax gives Q^T and R^T stacked and
    one product both blocks of the Hessian; along its short axis of 2r,
    numpy reduces whole rows at a time. A step along e = (1, -1) changes
    neither Q, R nor g, so e e^T is added to the negative Hessian and the
    stopping test ignores the gradient's e-component, which is
    sum(b) - sum(a) at every h. At near-vertex factors the system can
    still be singular: rows whose softmax is flat in h leave directions
    (x, -x) with sum(x) = 0 that move neither Q, R nor g, and the
    minimum-norm step, which has no component along them, is taken
    instead. Returns the factor logs, the L1 norm of the gradient (the
    column-marginal error) and the final h; returns None on a non-finite
    system, a stalled line search, a spent step cap or a g below
    ``_G_FLOOR``, where the floored projection differs.
    """
    rank = lk3.size
    rows1, rows2 = a > 0, b > 0
    n1 = np.count_nonzero(rows1)
    k = np.full((2 * rank, n1 + np.count_nonzero(rows2)), -np.inf)
    k[:rank, :n1] = lk1[rows1].T
    k[rank:, n1:] = lk2[rows2].T
    w = np.concatenate((a[rows1], b[rows2]))
    e = np.repeat([1.0, -1.0], rank)
    # The negative Hessian less its factor blocks: g on the diagonal of
    # all four r x r blocks, and e e^T.
    blocks = np.tile(np.eye(rank), (2, 2))
    gauge = np.outer(e, e)

    def dual(h):
        s, l = _softmax_cols(k + h[:, None])
        g = np.exp(lk3 - h[:rank] - h[rank:])
        return -(w @ l) - g.sum(), s, g, l

    state = dual(h)
    for _ in range(_PROJECTION_MAX_STEPS):
        f, s, g, l = state
        if not np.isfinite(f):
            return _decline("non-finite dual")
        p = s * w
        col = p.sum(axis=1)
        gg = np.concatenate((g, g))
        grad = gg - col
        if np.abs(grad - (grad @ e / e.size) * e).sum() <= _PROJECTION_TOL:
            break
        hess = blocks * gg + gauge - s @ p.T
        hess.flat[:: 2 * rank + 1] += col
        try:
            d = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(hess, grad, rcond=None)[0]
        slope = grad @ d
        if not np.isfinite(slope):
            return _decline("non-finite system")
        # Below F's rounding the line search cannot see an increase, so
        # the (locally quadratic) full step is taken as it is.
        t = 1.0
        for _ in range(_LINE_SEARCH_HALVINGS):
            trial = dual(h + t * d)
            if slope <= _ROUNDING * (1.0 + abs(f)) or trial[0] >= f + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return _decline("stalled line search")
        h = h + t * d
        state = trial
    else:
        return _decline("step cap")
    if not g.min() >= _G_FLOOR:
        return _decline("g below its floor")
    logs = np.log(w) + k + h[:, None] - l
    lq = np.full(lk1.shape, -np.inf)
    lr = np.full(lk2.shape, -np.inf)
    lq[rows1] = logs[:rank, :n1].T
    lr[rows2] = logs[rank:, n1:].T
    return lq, lr, lk3 - h[:rank] - h[rank:], float(np.abs(grad).sum()), h


def _decline(reason):
    logger.debug("lowrank: Newton projection declined (%s)", reason)
    return None


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
    eps0 = DEFAULT_EPSILON_SCALE * float(cost.mean())
    q0 = None
    if eps0 > 0:
        try:
            sk = solve_sinkhorn(prob, eps0, threshold=_GUIDE_THRESHOLD, max_iters=_GUIDE_MAX_ITERS)
        except DivergedError:
            pass
        else:
            # Column j adds into column j % rank, in ascending j.
            q0 = np.zeros((n, rank))
            for start, stop, rows in _coupling(sk, prob).blocks():
                for j in range(0, m, rank):
                    cols = rows[:, j : j + rank]
                    q0[start:stop, : cols.shape[1]] += cols
            if not np.all(np.isfinite(q0)):
                q0 = None
    if q0 is not None:
        groups = np.arange(m) % rank
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
        measured at the first iteration. A step whose projection stays
        infeasible is retried at half the size, and the halved size is
        kept for every later step, so this acts as an upper bound. A
        step tries at most 10 sizes, each half the last, and its tenth
        decline leaves gamma cut 1,024-fold: a gamma that far above
        what the first step accepts returns the projected start,
        unconverged.
      threshold: stop when the cost moved by at most
        ``threshold * (1 + |cost|)`` over the last ``inner_iters`` steps.
      max_iters: hard cap on mirror-descent steps.
      inner_iters: stopping-check cadence (and comparison window).
      seed: seed for the start factors (guide-plan jitter or the random
        fallback); fixed seed means a fully deterministic solve.

    Each step's factors are projected back onto the marginal constraints
    by Newton's method on the projection's dual, started from the dual
    of the last accepted projection (the start factors' from 0), retries
    included. A step whose projection Newton declines is infeasible like
    one whose residual is too large: it is retried at half the size. When
    no halving is accepted, the solve stops at the last accepted iterate,
    unconverged.

    Returns:
      A :class:`LowRankOutput` with the factors and the transport-cost
      trace (one entry per iterate, starting with the initial point).

    Raises:
      ValueError: on a rank or iteration count that is not an integer,
        or a rank, gamma, threshold or iteration cap out of range.
      DivergedError: if Newton cannot project the start factors, so that
        there is no feasible iterate to return; its ``iteration`` is 0.
    """
    n, m = prob.geom.shape
    rank = _as_count(rank, "rank")
    if rank < 1 or rank > min(n, m):
        raise ValueError(f"rank must lie in [1, {min(n, m)}], got {rank}")
    if gamma is not None and not (0 < gamma < np.inf):
        raise ValueError(f"gamma must be positive and finite, got {float(gamma)}")
    if not (threshold > 0):
        raise ValueError("threshold must be positive")
    max_iters, inner_iters = _as_count(max_iters, "max_iters"), _as_count(inner_iters, "inner_iters")
    if max_iters < 1 or inner_iters < 1:
        raise ValueError("max_iters and inner_iters must be >= 1")
    cost = prob.geom.cost_matrix()
    a, b = prob.a, prob.b
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)

    lq, lr, lg = _initial_factors(prob, rank, seed, cost, log_a, log_b)
    with np.errstate(all="ignore"):
        start = _newton(lq, lr, lg, a, b, np.zeros(2 * rank))
    if start is None:
        raise DivergedError("Newton cannot project the low-rank start factors", iteration=0)
    lq, lr, lg, _, h = start
    q, r, g = np.exp(lq), np.exp(lr), np.exp(lg)
    # cost @ (r / g) is both the transport cost's product and the next
    # step's q-gradient, so each accepted iterate computes it once.
    grad_q = cost @ (r / g[None, :])
    costs = [float(np.sum(q * grad_q))]
    converged = False
    t = 0
    for t in range(1, max_iters + 1):
        grad_r = cost.T @ (q / g[None, :])
        grad_g = -np.einsum("ik,ik->k", q, grad_q) / g
        if gamma is None:
            peak = max(np.abs(grad_q).max(), np.abs(grad_r).max(), np.abs(grad_g).max())
            gamma = 10.0 / peak if peak > 0 else 1.0
            logger.debug("lowrank: default gamma = %g", gamma)
        # A too-long step can overflow the step kernels or leave them too
        # degenerate for Newton to project; floating-point warnings are
        # off because the backoff handles both. Halve the step until the
        # projection is clean; if even tiny steps fail, the last iterate
        # is the answer, unconverged.
        for _ in range(_MAX_BACKOFFS_PER_STEP):
            with np.errstate(all="ignore"):
                step = _newton(lq - gamma * grad_q, lr - gamma * grad_r, lg - gamma * grad_g, a, b, h)
            residual = np.inf if step is None else step[3]
            if residual <= _PROJECTION_ACCEPT:
                break
            gamma *= 0.5
        else:
            logger.info(
                "lowrank: no acceptable step at iteration %d (residual %.2e); stopping", t, residual
            )
            break
        lq, lr, lg, _, h = step
        q, r, g = np.exp(lq), np.exp(lr), np.exp(lg)
        grad_q = cost @ (r / g[None, :])
        costs.append(float(np.sum(q * grad_q)))
        if t % inner_iters == 0 and len(costs) > inner_iters:
            if abs(costs[-1] - costs[-1 - inner_iters]) <= threshold * (1.0 + abs(costs[-1])):
                converged = True
                break
    factors = LowRankFactors(q=q, r=r, g=g)
    return LowRankOutput(factors=factors, costs=np.asarray(costs), iterations=t, converged=converged)

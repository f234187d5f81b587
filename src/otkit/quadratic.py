"""Gromov-Wasserstein solver by iterated linearization.

Matches two metric-measure spaces given only their within-space cost
matrices: minimizes ``sum_{ijkl} (Cx_ik - Cy_jl)^2 P_ij P_kl`` over
couplings P in U(a, b). Each outer step freezes P inside the quadratic,
yielding a linear OT problem that an entropic Sinkhorn solve handles,
with warm-started potentials across steps.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .errors import DivergedError
from .geometry import DenseGeometry, Geometry
from .sinkhorn import Coupling, LinearProblem, _as_count, _as_weights, _sinkhorn_iterations, transport_matrix

logger = logging.getLogger(__name__)

__all__ = ["QuadraticProblem", "GWOutput", "gw_objective", "gw_linearized_cost", "solve_gw"]

_LITERAL_SIZE_CAP = 8


@dataclasses.dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """Two within-space geometries plus weights on each space.

    Both geometries must be square (costs of a space against itself).
    Dense cost matrices are additionally checked for symmetry; matrix-
    free backends are trusted, since checking would materialize them.
    """

    geom_x: Geometry
    geom_y: Geometry
    a: np.ndarray | None = None
    b: np.ndarray | None = None

    def __post_init__(self):
        for name, geom in (("geom_x", self.geom_x), ("geom_y", self.geom_y)):
            n, m = geom.shape
            if n != m:
                raise ValueError(f"{name} must be square, got shape {(n, m)}")
            if isinstance(geom, DenseGeometry):
                c = geom.cost_matrix()
                if not np.allclose(c, c.T, rtol=1e-8, atol=1e-12):
                    raise ValueError(f"{name} cost matrix must be symmetric")
        object.__setattr__(self, "a", _as_weights(self.a, self.geom_x.shape[0], "a"))
        object.__setattr__(self, "b", _as_weights(self.b, self.geom_y.shape[0], "b"))


@dataclasses.dataclass(frozen=True, eq=False)
class GWOutput:
    coupling: Coupling
    gw_cost: float
    outer_iterations: int
    cost_trace: np.ndarray
    converged: bool


class _SquareLoss:
    """Square-loss split terms (Peyre, Cuturi & Solomon, ICML 2016) of one problem:
    both cost matrices, their squares and the constant ``(Cx^2 a) 1^T + 1 (Cy^2 b)^T``."""

    def __init__(self, qp: QuadraticProblem):
        self.cost_x = qp.geom_x.cost_matrix()
        self.cost_y = qp.geom_y.cost_matrix()
        self.sq_x = self.cost_x**2
        self.sq_y = self.cost_y**2
        self.const = (self.sq_x @ qp.a)[:, None] + (self.sq_y @ qp.b)[None, :]

    def plan(self, plan: Coupling | np.ndarray) -> np.ndarray:
        plan = plan.matrix if isinstance(plan, Coupling) else np.asarray(plan, dtype=float)
        if plan.shape != self.const.shape:
            raise ValueError(f"coupling shape {plan.shape} does not match the geometries")
        return plan

    def at(self, plan: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective and linearized cost of a plan, from one product Cx P Cy^T."""
        cross = self.cost_x @ plan @ self.cost_y.T
        row = plan.sum(axis=1)
        col = plan.sum(axis=0)
        quad_x = float(row @ self.sq_x @ row)
        quad_y = float(col @ self.sq_y @ col)
        return quad_x + quad_y - 2.0 * float(np.sum(cross * plan)), self.const - 2.0 * cross


def gw_objective(qp: QuadraticProblem, plan: Coupling | np.ndarray, method: str = "expansion") -> float:
    """Quartic matching objective of a coupling.

    ``method="expansion"`` uses the algebraic split into two marginal
    quadratic forms and one cross term; ``method="literal"`` evaluates
    the full quartic sum (only for n, m <= 8) as an independent check.
    """
    terms = _SquareLoss(qp)
    plan = terms.plan(plan)
    if method == "literal":
        if max(plan.shape) > _LITERAL_SIZE_CAP:
            raise ValueError(f"literal quartic evaluation is capped at {_LITERAL_SIZE_CAP} points per side")
        diff = terms.cost_x[:, None, :, None] - terms.cost_y[None, :, None, :]
        return float(np.einsum("ijkl,ij,kl->", diff**2, plan, plan))
    if method != "expansion":
        raise ValueError(f"method must be 'expansion' or 'literal', got {method!r}")
    return terms.at(plan)[0]


def gw_linearized_cost(qp: QuadraticProblem, plan: Coupling | np.ndarray) -> np.ndarray:
    """Linear surrogate cost whose OT solution is the next outer iterate.

    Equals half the gradient of :func:`gw_objective` in P at feasible
    couplings: constant terms from the fixed marginals plus the cross
    term ``-2 Cx P Cy^T``. Entrywise nonnegative for feasible P.
    """
    terms = _SquareLoss(qp)
    return terms.at(terms.plan(plan))[1]


def solve_gw(
    qp: QuadraticProblem,
    *,
    eps: float | None = None,
    eps_rel: float = 1e-2,
    outer_iters: int = 20,
    outer_threshold: float = 1e-5,
    inner_threshold: float = 1e-3,
    inner_max_iters: int = 2000,
) -> GWOutput:
    """Minimizes the matching objective by repeated linearization.

    Starts from the independence coupling a b^T. Each outer step builds
    the linearized cost at the current coupling and solves the entropic
    OT problem on it, warm-starting the dual potentials from the
    previous step. The inner regularization is ``eps`` when given,
    otherwise ``eps_rel`` times the current linearized cost's mean,
    recomputed every step. Stops when the objective moves by at most
    ``outer_threshold * (1 + |cost|)``; returns the best iterate seen.
    The cost terms are built once per solve, and each plan's product
    ``Cx P Cy^T`` once. Under ``eps_rel``, all-zero costs stop it before
    any step (``outer_iterations`` 0).

    Raises:
      DivergedError: when an inner solve blows up; the iteration index
        reported is the outer step.
    """
    outer_iters = _as_count(outer_iters, "outer_iters")
    inner_max_iters = _as_count(inner_max_iters, "inner_max_iters")
    for name, count in (("outer_iters", outer_iters), ("inner_max_iters", inner_max_iters)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1")
    for name, threshold in (("outer_threshold", outer_threshold), ("inner_threshold", inner_threshold)):
        if not (threshold > 0):
            raise ValueError(f"{name} must be positive")
    if eps is not None and not (0 < eps < np.inf):
        raise ValueError(f"eps must be positive and finite, got {float(eps)}")
    if not (0 < eps_rel < np.inf):
        raise ValueError(f"eps_rel must be positive and finite, got {float(eps_rel)}")
    terms = _SquareLoss(qp)
    plan = np.outer(qp.a, qp.b)
    cost_t, lin_cost = terms.at(plan)
    trace = [cost_t]
    best_cost = trace[0]
    best_plan = plan
    converged = False
    g_prev = None
    for t in range(1, outer_iters + 1):
        eps_t = eps if eps is not None else eps_rel * float(lin_cost.mean())
        if not (eps_t > 0):
            # Degenerate all-zero surrogate: any feasible plan is optimal.
            converged = True
            break
        if t == 1:
            # On exactly symmetric instances the independence start is a
            # stationary point: the surrogate comes out constant, every
            # feasible plan ties, and the inner solve hands back the
            # same coupling forever. A tiny index-monotone discount
            # breaks the tie deterministically (favoring the identity
            # pairing) so the outer loop can leave the saddle.
            scale = float(np.abs(lin_cost).max())
            if float(lin_cost.max() - lin_cost.min()) <= 1e-9 * (1.0 + scale):
                n, m = lin_cost.shape
                bias = np.outer(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, m))
                lin_cost = lin_cost - 1e-3 * (1.0 + scale) * bias
        lin_prob = LinearProblem(DenseGeometry(lin_cost), qp.a, qp.b)
        try:
            out = _sinkhorn_iterations(
                lin_prob, eps_t, inner_threshold, inner_max_iters, 10, g_prev
            )
        except DivergedError as exc:
            raise DivergedError("inner Sinkhorn solve diverged", iteration=t) from exc
        g_prev = out.g
        plan = terms.plan(transport_matrix(out, lin_prob))
        cost_t, lin_cost = terms.at(plan)
        trace.append(cost_t)
        if cost_t < best_cost:
            best_cost = cost_t
            best_plan = plan
        if abs(cost_t - trace[-2]) <= outer_threshold * (1.0 + abs(cost_t)):
            converged = True
            break
    if not converged:
        logger.info("gw: no convergence after %d outer iterations", outer_iters)
    return GWOutput(
        coupling=Coupling(best_plan),
        gw_cost=best_cost,
        outer_iterations=len(trace) - 1,
        cost_trace=np.asarray(trace),
        converged=converged,
    )

"""Fixed-support Wasserstein barycenters via iterative Bregman projections.

Given K histograms on a common support and a square geometry on that
support, finds the weight vector p minimizing the weighted sum of
entropic OT costs to the inputs. Classic scaling iterations: per
histogram scalings (u_k, v_k) are updated against the shared barycenter
p, which is the weighted geometric mean of the back-projected scalings.
Each pair of half-steps is a Sinkhorn sweep through the geometry's
kernel step, so it runs on Sinkhorn's kernel (per-axis kernels on grids,
streamed from cost blocks on dense costs and point clouds above
``DEFAULT_DENSE_CAP``) and in the log domain where that kernel is
declined, zero histogram entries are fine, and an eps too small for the
costs raises ``DivergedError`` instead of returning NaN.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .errors import DivergedError
from .geometry import Geometry, _KernelStep
from .sinkhorn import _as_count, _as_weights

logger = logging.getLogger(__name__)

__all__ = ["BarycenterProblem", "BarycenterOutput", "solve_barycenter"]


@dataclasses.dataclass(frozen=True, eq=False)
class BarycenterProblem:
    """K histograms on one support plus barycentric weights.

    ``geom`` must be square (support against itself); ``histograms`` is
    a (K, N) array of probability vectors; ``weights`` (K,) defaults to
    uniform.
    """

    geom: Geometry
    histograms: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        n, m = self.geom.shape
        if n != m:
            raise ValueError(f"barycenter geometry must be square, got shape {(n, m)}")
        hists = np.atleast_2d(np.asarray(self.histograms, dtype=float))
        if hists.shape[0] < 1:
            raise ValueError("need at least one histogram")
        for i, h in enumerate(hists):
            _as_weights(h, n, f"histogram {i}")
        object.__setattr__(self, "histograms", hists)
        object.__setattr__(self, "weights", _as_weights(self.weights, hists.shape[0], "weights"))


@dataclasses.dataclass(frozen=True, eq=False)
class BarycenterOutput:
    barycenter: np.ndarray
    converged: bool
    iterations: int
    eps: float


def solve_barycenter(
    bp: BarycenterProblem,
    eps: float | None = None,
    *,
    threshold: float = 1e-4,
    max_iters: int = 1000,
) -> BarycenterOutput:
    """Runs the scaling iterations until all couplings share one marginal.

    Convergence is declared once the barycenter-side marginal of every
    coupling matches the current p within ``threshold`` in L1. The
    returned p is normalized to sum exactly to 1, from log p, so it stays
    finite when every entry of p has underflowed.

    Raises:
      DivergedError: at the iteration where a log-domain kernel
        application is not finite, or the unnormalized barycenter
        p = exp(log p) has a NaN or +inf entry: eps is too small to
        couple the support at the given costs.
    """
    max_iters = _as_count(max_iters, "max_iters")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not (threshold > 0):
        raise ValueError("threshold must be positive")
    geom = bp.geom
    eps = geom._resolve_eps(eps)
    k, n = bp.histograms.shape
    converged = False
    t = 0
    with np.errstate(all="ignore"):
        # One iterate per histogram, stacked, so each sweep makes the
        # products of all of them in one pass over the kernel.
        step = _KernelStep(geom, bp.histograms, np.zeros((k, n)))
        for t in range(1, max_iters + 1):
            step.sweep(eps, t)
            log_p = bp.weights @ step.col_logs()
            p = np.exp(log_p)
            if not np.isfinite(p).all():
                raise DivergedError(
                    "non-finite barycenter iterates; eps is likely too small for the cost scale",
                    iteration=t,
                )
            # Each coupling's marginal on the barycenter side, before its update.
            err = float(np.abs(step.col_marginal() - p).sum(axis=1).max())
            step.set_cols(p, log_p)
            if err <= threshold:
                converged = True
                break
        p = np.exp(log_p - log_p.max())
    if not converged:
        logger.info("barycenter: no convergence after %d iterations", t)
    return BarycenterOutput(barycenter=p / p.sum(), converged=converged, iterations=t, eps=eps)

"""Fixed-support Wasserstein barycenters via iterative Bregman projections.

Given K histograms on a common support and a square geometry on that
support, finds the weight vector p minimizing the weighted sum of
entropic OT costs to the inputs. Classic scaling iterations: per
histogram scalings (u_k, v_k) are updated against the shared barycenter
p, which is the weighted geometric mean of the back-projected scalings.
Each half-step is a log-domain Sinkhorn update on the shared geometry, so
zero histogram entries are fine, and the iteration checks its potentials
with Sinkhorn's divergence test: an eps too small for the costs raises
``DivergedError`` instead of returning NaN.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .errors import DivergedError
from .geometry import Geometry
from .sinkhorn import _as_weights, _check_diverged

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
    returned p is normalized to sum exactly to 1.

    Raises:
      DivergedError: at the iteration where a potential f_k fails
        Sinkhorn's divergence test (NaN or +inf, or -inf at a positive
        histogram entry), a back-projection is not finite, or the
        unnormalized barycenter p = exp(log p) has a NaN or +inf entry:
        eps is too small to couple the support at the given costs.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not (threshold > 0):
        raise ValueError("threshold must be positive")
    geom = bp.geom
    eps = geom._resolve_eps(eps)
    k, n = bp.histograms.shape
    zeros = np.zeros(n)
    g = np.zeros((k, n))
    back = np.zeros((k, n))  # eps * log(K^T u_k) per histogram
    converged = False
    t = 0
    # Overflow, log(0) and inf - inf only show up in the potentials, which
    # are checked below, so none of them is worth a warning.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_hists = np.log(bp.histograms)
        for t in range(1, max_iters + 1):
            for i in range(k):
                f = eps * log_hists[i] - geom.apply_lse_kernel(zeros, g[i], eps, axis="rows")
                _check_diverged(f, bp.histograms[i], t)
                back[i] = geom.apply_lse_kernel(f, zeros, eps, axis="cols")
            log_p = (bp.weights @ back) / eps
            p = np.exp(log_p)
            if not (np.isfinite(back).all() and np.isfinite(p).all()):
                raise DivergedError(
                    "non-finite barycenter iterates; eps is likely too small for the cost scale",
                    iteration=t,
                )
            err = 0.0
            for i in range(k):
                # Marginal of coupling i before its g update: g + the "cols" kernel of (f, 0).
                marginal = np.exp((g[i] + back[i]) / eps)
                err = max(err, float(np.abs(marginal - p).sum()))
                g[i] = eps * log_p - back[i]
            if err <= threshold:
                converged = True
                break
    if not converged:
        logger.info("barycenter: no convergence after %d iterations", t)
    return BarycenterOutput(barycenter=p / p.sum(), converged=converged, iterations=t, eps=eps)

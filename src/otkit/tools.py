"""Differentiable-programming utilities built on the entropic solver.

Soft sorting and ranking reduce, in row blocks, the plan of a 1-D
transport problem between the (rescaled) input values and a fixed
grid of targets; Gaussian and Gaussian-mixture distances combine the
Gaussian closed form, evaluated for all pairs of components at once on
stacked arrays, with a small discrete OT over mixture weights.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .geometry import DenseGeometry, PointCloudGeometry
from .sinkhorn import LinearProblem, _as_weights, solve_sinkhorn, transport_matrix

__all__ = [
    "SoftSortSpec",
    "sort_transport",
    "soft_sort",
    "soft_rank",
    "Gaussian",
    "GaussianMixture",
    "GMMDistance",
    "bures_w2",
    "gmm_distance",
]


# ---- soft sorting ----


@dataclasses.dataclass(frozen=True)
class SoftSortSpec:
    """Knobs for the transport behind soft sorting.

    ``num_targets`` defaults to the input length; ``eps`` lives in
    squashed units (inputs are min-max rescaled to [0, 1] unless
    ``squash="none"``). Constant inputs squash to all 0.5.
    """

    num_targets: int | None = None
    eps: float = 1e-2
    squash: str = "minmax"

    def __post_init__(self):
        if self.num_targets is not None and self.num_targets < 1:
            raise ValueError("num_targets must be >= 1")
        if not (0 < self.eps < np.inf):
            raise ValueError(f"eps must be positive and finite, got {float(self.eps)}")
        if self.squash not in ("minmax", "none"):
            raise ValueError(f"squash must be 'minmax' or 'none', got {self.squash!r}")


def sort_transport(
    x: np.ndarray,
    spec: SoftSortSpec = SoftSortSpec(),
    *,
    threshold: float = 1e-4,
    max_iters: int = 10_000,
) -> tuple[np.ndarray, bool]:
    """Coupling between the squashed inputs and the sort targets.

    Returns the n x m transport plan (uniform weights on both sides,
    squared cost in squashed units) and whether the solve converged.
    :func:`soft_sort` and :func:`soft_rank` reduce this plan in row
    blocks without building it. Here it is dense, so n * m must not
    exceed ``DEFAULT_DENSE_CAP``; above it, a ``ValueError`` is raised
    before solving.
    """
    _, prob = _sort_problem(x, spec)
    prob.geom._check_cap(None)
    out = solve_sinkhorn(prob, spec.eps, threshold=threshold, max_iters=max_iters)
    return transport_matrix(out, prob).matrix, out.converged


def soft_sort(
    x: np.ndarray,
    spec: SoftSortSpec = SoftSortSpec(),
    *,
    threshold: float = 1e-4,
    max_iters: int = 10_000,
) -> np.ndarray:
    """Entropic order statistics of x, ascending, in original units.

    Transports the squashed inputs (uniform weights) onto equally
    spaced targets in [0, 1] and reads off the barycentric projection
    of the original values: entry j is ``m * (P^T x)_j``. Small eps
    approaches the hard sort; large eps flattens toward the mean. The
    plan is reduced in row blocks, so any n * m works.

    The result does not say whether the solve converged: a sort that
    ran out of ``max_iters`` is returned like any other. ``otkit
    softsort`` reports it, in its ``converged`` field and exit code 2.
    """
    return _soft_sort_rank(x, spec, threshold=threshold, max_iters=max_iters)[0]


def soft_rank(
    x: np.ndarray,
    spec: SoftSortSpec = SoftSortSpec(),
    *,
    threshold: float = 1e-4,
    max_iters: int = 10_000,
) -> np.ndarray:
    """Entropic ranks of x: entry i is the expected target index of x_i.

    Requires as many targets as inputs; ranks are ``n * (P @ (0..n-1))``
    and approach the integer ranks as eps shrinks. Like :func:`soft_sort`,
    it does not report convergence; ``otkit softsort`` does.
    """
    if spec.num_targets is not None and spec.num_targets != np.size(x):
        raise ValueError("soft_rank requires num_targets == len(x)")
    return _soft_sort_rank(x, spec, threshold=threshold, max_iters=max_iters)[1]


def _sort_problem(x: np.ndarray, spec: SoftSortSpec) -> tuple[np.ndarray, LinearProblem]:
    """The validated input and its transport problem onto the sort targets."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("input must be a non-empty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite entries")
    m = spec.num_targets if spec.num_targets is not None else x.size
    if spec.squash == "minmax":
        # Halved (exact above the subnormals), the span cannot overflow.
        lo, hi = x.min() / 2, x.max() / 2
        squashed = (x / 2 - lo) / (hi - lo) if hi > lo else np.full_like(x, 0.5)
    else:
        squashed = x
    targets = np.linspace(0.0, 1.0, m) if m > 1 else np.array([0.5])
    return x, LinearProblem(PointCloudGeometry(squashed[:, None], targets[:, None], "sqeucl"))


def _soft_sort_rank(x: np.ndarray, spec: SoftSortSpec, defaults=soft_sort.__kwdefaults__, **solve_opts) -> tuple:
    """``(m P^T x, n P (0..n-1) if m == n else None, converged)`` of the
    sort plan P, from one pass over its row blocks. Omitted ``solve_opts``
    take ``defaults``, :func:`soft_sort`'s, bound when this is defined."""
    x, prob = _sort_problem(x, spec)
    out = solve_sinkhorn(prob, spec.eps, **{**defaults, **solve_opts})
    n, m = prob.geom.shape
    values, ranks = np.zeros(m), np.empty(n)
    for start, stop, plan in prob.geom._plan_blocks(out.f, out.g, out.eps):
        values += x[start:stop] @ plan
        ranks[start:stop] = plan @ np.arange(m, dtype=float)
    return m * values, n * ranks if m == n else None, out.converged


# ---- Gaussians and mixtures ----


@dataclasses.dataclass(frozen=True, eq=False)
class Gaussian:
    """A Gaussian measure given by mean (d,) and covariance (d, d)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be 1-D")
        d = mean.size
        if cov.shape != (d, d):
            raise ValueError(f"cov must be {d}x{d}, got {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and cov must be finite")
        if not np.allclose(cov, cov.T, atol=1e-10, rtol=0.0):
            raise ValueError("cov must be symmetric (within 1e-10)")
        cov = 0.5 * (cov + cov.T)
        if np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ValueError("cov must be positive semidefinite (within 1e-10)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclasses.dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Weighted collection of Gaussians of one common dimension."""

    weights: np.ndarray
    components: tuple[Gaussian, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ValueError(f"components disagree on dimension: {sorted(dims)}")
        if self.weights is None:
            raise ValueError("mixture weights are required")
        object.__setattr__(self, "weights", _as_weights(self.weights, len(comps), "weights"))
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim


class GMMDistance(NamedTuple):
    value: float
    coupling: np.ndarray
    converged: bool = True


def _psd_sqrt(mats: np.ndarray) -> np.ndarray:
    # Symmetric eigendecompositions of a stack of matrices, in one call;
    # eigenvalues clamped at zero so tiny negative rounding noise cannot
    # poison the square roots.
    vals, vecs = np.linalg.eigh(mats)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _bures(means1: np.ndarray, covs1: np.ndarray, means2: np.ndarray, covs2: np.ndarray) -> np.ndarray:
    """K1 x K2 matrix of squared W2 distances between stacked Gaussians
    (means (K, d), covariances (K, d, d)): one stacked eigendecomposition
    for the K1 roots S1^{1/2} and one for the K1 K2 cross roots."""
    mean_term = np.sum((means1[:, None] - means2[None]) ** 2, axis=-1)
    roots1 = _psd_sqrt(covs1)[:, None]
    cross = _psd_sqrt(roots1 @ covs2[None] @ roots1)
    traces1, traces2 = np.trace(covs1, axis1=-2, axis2=-1), np.trace(covs2, axis1=-2, axis2=-1)
    cov_term = traces1[:, None] + traces2[None] - 2.0 * np.trace(cross, axis1=-2, axis2=-1)
    return np.maximum(mean_term + cov_term, 0.0)


def bures_w2(g1: Gaussian, g2: Gaussian) -> float:
    """Squared Wasserstein-2 distance between two Gaussians.

    ``|m1 - m2|^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2})``,
    clamped at zero against rounding. The square roots come from
    symmetric eigendecompositions, with eigenvalues clamped at zero; it is
    the formula :func:`gmm_distance` applies to all pairs of components at
    once, here on one pair.
    """
    if g1.dim != g2.dim:
        raise ValueError("Gaussians must share a dimension")
    return float(_bures(g1.mean[None], g1.cov[None], g2.mean[None], g2.cov[None])[0, 0])


def _round_to_feasible(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Projects an almost-feasible plan onto U(a, b) exactly.

    Scale rows down to at most their targets, then columns, then patch
    the leftover mass with a rank-one correction. Cheap and exact.
    """
    row = plan.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(row > 0, np.minimum(1.0, a / row), 1.0)
    plan = plan * scale[:, None]
    col = plan.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(col > 0, np.minimum(1.0, b / col), 1.0)
    plan = plan * scale[None, :]
    missing_a = a - plan.sum(axis=1)
    missing_b = b - plan.sum(axis=0)
    slack = missing_a.sum()
    if slack > 0:
        plan = plan + np.outer(missing_a, missing_b) / slack
    return plan


def _pairwise_bures(mix1: GaussianMixture, mix2: GaussianMixture) -> np.ndarray:
    stacked = [
        (np.stack([c.mean for c in mix.components]), np.stack([c.cov for c in mix.components]))
        for mix in (mix1, mix2)
    ]
    return _bures(*stacked[0], *stacked[1])


def _entropic_value(
    cost: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    eps_rel: float,
    threshold: float,
    max_iters: int,
) -> tuple[float, np.ndarray, bool]:
    """Sharp transport cost of the entropic coupling at eps_rel * mean(cost)."""
    mean_cost = float(cost.mean())
    if mean_cost <= 0.0:
        # All-zero costs: every feasible coupling achieves value 0.
        return 0.0, np.outer(a, b), True
    prob = LinearProblem(DenseGeometry(cost), a, b)
    out = solve_sinkhorn(prob, eps_rel * mean_cost, threshold=threshold, max_iters=max_iters)
    plan = transport_matrix(out, prob).matrix
    plan = _round_to_feasible(plan, a, b)
    return float((cost * plan).sum()), plan, out.converged


def gmm_distance(
    mix1: GaussianMixture,
    mix2: GaussianMixture,
    *,
    eps_rel: float = 1e-3,
    threshold: float = 1e-12,
    max_iters: int = 50_000,
) -> GMMDistance:
    """Mixture-level OT distance with the Gaussian W2^2 as ground cost.

    Builds the K1 x K2 matrix of pairwise :func:`bures_w2` values, the
    same formula on stacked arrays: one eigendecomposition call for the
    roots of the K1 covariances of ``mix1`` and one for the K1 K2 cross
    matrices. It then solves the entropic OT problem over the mixture
    weights at ``eps = eps_rel * mean(cost)``; the near-converged coupling is
    rounded to exact feasibility before its sharp cost is read off.
    The reported value subtracts half of each mixture's self-transport
    cost, computed the same way, which cancels the entropic blur: a
    mixture is at distance exactly 0 from itself and the value stays
    symmetric in its arguments. The coupling is the (uncorrected)
    mixture-component map between the two inputs.
    """
    if mix1.dim != mix2.dim:
        raise ValueError("mixtures must share a dimension")
    solve_opts = (eps_rel, threshold, max_iters)
    value_ab, plan, conv_ab = _entropic_value(
        _pairwise_bures(mix1, mix2), mix1.weights, mix2.weights, *solve_opts
    )
    value_aa, _, conv_aa = _entropic_value(
        _pairwise_bures(mix1, mix1), mix1.weights, mix1.weights, *solve_opts
    )
    value_bb, _, conv_bb = _entropic_value(
        _pairwise_bures(mix2, mix2), mix2.weights, mix2.weights, *solve_opts
    )
    value = max(value_ab - 0.5 * (value_aa + value_bb), 0.0)
    return GMMDistance(value, plan, conv_ab and conv_aa and conv_bb)

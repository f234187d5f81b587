"""Cost geometries: dense matrices, point clouds, and separable grids.

A geometry describes ground costs c(x_i, y_j) between two families of
locations without necessarily storing the full n-by-m cost matrix.
Solvers interact with costs exclusively through the geometry: it
materializes the matrix (``cost_matrix``), applies the Gibbs kernel
exp(-C/eps) to a vector (``apply_kernel``) or in the log domain
(``apply_lse_kernel``), and builds and applies a solve's kernel
(``_gibbs``, ``_contract``), which ``_KernelStep`` uses for Sinkhorn and
the barycenter, falling back to the log domain. Couplings are formed
only in row blocks (``_cost_blocks``, ``_plan_blocks``): ``reg_ot_cost``,
``grad_points`` and ``otkit lin`` without ``--coupling-out`` stream them,
while ``transport_matrix`` (``--coupling-out``), the low-rank solver and
Gromov-Wasserstein materialize n x m matrices and refuse above
``DEFAULT_DENSE_CAP`` entries.

Backends:

* :class:`DenseGeometry` wraps an explicit cost matrix.
* :class:`PointCloudGeometry` derives costs from two point sets and
  streams kernel applications over row blocks, so the matrix never has
  to exist in memory.
* :class:`GridGeometry` handles costs that separate over the axes of a
  Cartesian grid; kernel applications, the solvers' included, factor
  into one small contraction per axis at any grid size, and nothing
  N x N is allocated.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DivergedError

logger = logging.getLogger(__name__)

__all__ = [
    "Geometry",
    "DenseGeometry",
    "PointCloudGeometry",
    "GridGeometry",
    "EpsilonSchedule",
    "DEFAULT_EPSILON_SCALE",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_DENSE_CAP",
    "COST_FNS",
]

# epsilon_default = this fraction of the (estimated) mean cost.
DEFAULT_EPSILON_SCALE = 0.05
# Mean cost estimation samples at most this many pairs on point clouds.
_MEAN_COST_SAMPLES = 1000
# Rows per cost block in streamed kernels, reductions and kernel builds.
DEFAULT_BLOCK_SIZE = 256
# Refuse to materialize cost matrices larger than this many entries.
DEFAULT_DENSE_CAP = 4_000_000
# Largest half cost range over eps for which a Gibbs kernel is built: on
# the cost shifted by its midrange, its entries, and scalings of the
# inverse size, then stay in float64's normal range.
_KERNEL_EXPONENT_LIMIT = 0.5 * np.log(np.finfo(float).max)
_TINY = np.finfo(float).tiny

COST_FNS = ("sqeucl", "eucl", "cosine")


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp along ``axis`` with max subtraction; tolerates -inf slices."""
    hi = np.max(x, axis=axis, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(x - hi), axis=axis)) + np.squeeze(hi, axis=axis)


def _check_axis(axis: str) -> None:
    if axis not in ("rows", "cols"):
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")


def _check_vector(v: np.ndarray, size: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _check_epsilon_default(eps: float | None) -> float | None:
    if eps is not None and not (0 < eps < np.inf):
        raise ValueError(f"epsilon_default must be positive and finite, got {eps!r}")
    return eps


def _check_potential(p: np.ndarray, size: int, name: str) -> np.ndarray:
    # Potentials may carry -inf (zero-weight locations); NaN and +inf may not.
    p = np.asarray(p, dtype=float)
    if p.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {p.shape}")
    if np.isnan(p).any() or np.any(p == np.inf):
        raise ValueError(f"{name} contains NaN or +inf entries")
    return p


class EpsilonSchedule:
    """Geometric decay of the regularization toward a target value.

    At iteration t the solver uses ``max(target, target * init_scale *
    decay**t)``: a loose start that tightens geometrically and then
    stays at ``target``.
    """

    def __init__(self, target: float, init_scale: float = 1.0, decay: float = 1.0):
        if not (0 < target < np.inf):
            raise ValueError(f"target must be positive and finite, got {target!r}")
        if not (1.0 <= init_scale < np.inf):
            raise ValueError(f"init_scale must be finite and >= 1, got {init_scale!r}")
        if not (0.0 < decay <= 1.0):
            raise ValueError("decay must lie in (0, 1]")
        if init_scale > 1.0 and decay == 1.0:
            raise ValueError("schedule with init_scale > 1 and decay = 1 never reaches its target")
        self.target = float(target)
        self.init_scale = float(init_scale)
        self.decay = float(decay)

    def at(self, t: int) -> float:
        return max(self.target, self.target * self.init_scale * self.decay**t)


class Geometry:
    """Abstract cost structure between n source and m target locations."""

    _shape: tuple[int, int]
    _epsilon_default: float | None
    block_size: int = DEFAULT_BLOCK_SIZE

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def epsilon_default(self) -> float:
        """Default regularization: a small fraction of the mean cost."""
        if self._epsilon_default is None:
            self._epsilon_default = DEFAULT_EPSILON_SCALE * self.mean_cost()
        return self._epsilon_default

    def mean_cost(self) -> float:
        """Mean entry of the cost matrix, possibly estimated by sampling."""
        raise NotImplementedError

    def cost_matrix(self, max_entries: int | None = None) -> np.ndarray:
        """Materializes the full cost matrix.

        Refuses when n*m exceeds ``max_entries`` (default
        ``DEFAULT_DENSE_CAP``), so matrix-free pipelines fail loudly
        instead of allocating by accident.
        """
        self._check_cap(max_entries)
        return self._cost_rows(0, self.shape[0])

    def apply_kernel(self, v: np.ndarray, eps: float | None = None, axis: str = "rows") -> np.ndarray:
        """Applies the Gibbs kernel K = exp(-C/eps) to a vector.

        Args:
          v: vector of length m for ``axis="rows"`` (returns K v, length
            n) or length n for ``axis="cols"`` (returns K^T v, length m).
          eps: positive regularization; ``None`` uses ``epsilon_default``.
          axis: which side of the kernel to contract.
        """
        raise NotImplementedError

    def apply_lse_kernel(
        self, f: np.ndarray, g: np.ndarray, eps: float | None = None, axis: str = "rows"
    ) -> np.ndarray:
        """Log-domain kernel application with max-subtraction.

        For ``axis="rows"`` returns, for each i,
        ``eps * log sum_j exp((f_i + g_j - C_ij)/eps)``; for
        ``axis="cols"`` the symmetric contraction over i. Equals
        ``eps * log(e^{f/eps} * (K e^{g/eps}))`` without ever forming K.
        Potentials may contain -inf entries (excluded mass).
        """
        raise NotImplementedError

    def _cost_blocks(self, transpose: bool = False):
        """Yields ``(start, stop, cost_rows)`` over blocks of ``block_size``
        rows of C, or of C^T when ``transpose``, from ``_cost_rows``."""
        n = self.shape[1 if transpose else 0]
        for start in range(0, n, self.block_size):
            stop = min(start + self.block_size, n)
            yield start, stop, self._cost_rows(start, stop, transpose)

    def _plan_blocks(self, f: np.ndarray, g: np.ndarray, eps: float):
        """Yields ``(start, stop, cost_rows, plan_rows)`` of the coupling
        exp((f + g - C)/eps) over the row blocks of ``_cost_blocks``."""
        n, m = self.shape
        f = _check_potential(f, n, "f")
        g = _check_potential(g, m, "g")
        for start, stop, cost in self._cost_blocks():
            plan = f[start:stop, None] + g[None, :] - cost
            plan /= eps
            yield start, stop, cost, np.exp(plan, out=plan)

    def _gibbs(self, eps: float, old: tuple | None) -> tuple | None:
        """``(factors, c, floor)`` of the kernel exp((c - C)/eps), c the
        midrange of C, or None when half the cost range over eps exceeds
        ``_KERNEL_EXPONENT_LIMIT``. ``floor`` is tiny times the largest entry:
        an underflowed or subnormal scaling then moves no product at least
        ``floor`` by more than rounding. Here one n x m matrix, refused above
        ``DEFAULT_DENSE_CAP`` entries and refilled in place from ``old``.
        """
        n, m = self.shape
        if n * m > DEFAULT_DENSE_CAP:
            return None
        kernel = old[0][0] if old else np.empty((n, m))
        lo, hi = np.inf, -np.inf
        for start, stop, cost in self._cost_blocks():
            lo, hi = min(lo, cost.min()), max(hi, cost.max())
            if 0.5 * (hi - lo) > _KERNEL_EXPONENT_LIMIT * eps:
                return None
            kernel[start:stop] = cost
        half_range = 0.5 * (hi - lo)
        shift = lo + half_range
        np.subtract(shift, kernel, out=kernel)
        kernel /= eps
        return (np.exp(kernel, out=kernel),), shift, _TINY * np.exp(half_range / eps)

    def _contract(self, factors, v: np.ndarray, axis: str) -> np.ndarray:
        """K v for ``axis="rows"``, K^T v for ``"cols"``, K from ``_gibbs``."""
        (kernel,) = factors
        return kernel @ v if axis == "rows" else v @ kernel

    def _resolve_eps(self, eps: float | None) -> float:
        eps = float(self.epsilon_default if eps is None else eps)
        if not (0 < eps < np.inf):
            raise ValueError(f"eps must be positive and finite, got {eps!r}")
        return eps

    def _check_cap(self, max_entries: int | None) -> None:
        cap = DEFAULT_DENSE_CAP if max_entries is None else int(max_entries)
        n, m = self.shape
        if n * m > cap:
            raise ValueError(
                f"cost matrix with {n}x{m} = {n * m} entries exceeds the materialization cap {cap}"
            )


class _KernelStep:
    """``eps * log(K exp(p / eps))``, K = exp(-C/eps), for one solve.

    ``"rows"`` maps a length-m p to length n, ``"cols"`` a length-n p to
    length m. It multiplies by the geometry's kernel on the cost shifted
    by its midrange (``_gibbs``), built again whenever eps changes. When
    the geometry declines, and from the first product outside float64's
    normal range on, it calls ``apply_lse_kernel`` and raises
    ``DivergedError`` at iteration t on a non-finite result. Callers run
    it under ``np.errstate(all="ignore")``.
    """

    def __init__(self, geom: Geometry):
        # gibbs is () before the first build and None in the log domain.
        self.geom, self.gibbs, self.eps = geom, (), None

    def __call__(self, p: np.ndarray, eps: float, axis: str, t: int) -> np.ndarray:
        if self.gibbs is not None and eps != self.eps:
            self.gibbs, self.eps = self.geom._gibbs(eps, self.gibbs), eps
        if self.gibbs is not None:
            factors, shift, floor = self.gibbs
            # "rows" results and "cols" inputs carry the shift: from g near
            # 0, f = eps log a - step(g, "rows") lies near c, so both
            # scalings stay near the weights' scale.
            rows = axis == "rows"
            kv = self.geom._contract(factors, np.exp((p if rows else p - shift) / eps), axis)
            if kv.min() >= floor and kv.max() < np.inf:
                return eps * np.log(kv) - (shift if rows else 0.0)
            logger.debug("kernel step: a product left the normal range at iteration %d; continuing in the log domain", t)
            self.gibbs = None
        zeros = np.zeros(self.geom.shape[0 if axis == "rows" else 1])
        f, g = (zeros, p) if axis == "rows" else (p, zeros)
        r = self.geom.apply_lse_kernel(f, g, eps, axis)
        if not np.isfinite(r).all():
            raise DivergedError("non-finite potentials; eps is likely too small for the cost scale", iteration=t)
        return r


class DenseGeometry(Geometry):
    """Geometry backed by an explicit cost matrix."""

    def __init__(self, cost: np.ndarray, epsilon_default: float | None = None):
        cost = np.asarray(cost, dtype=float)
        if cost.ndim != 2 or cost.size == 0:
            raise ValueError(f"cost must be a non-empty 2-D array, got shape {cost.shape}")
        if not np.all(np.isfinite(cost)):
            raise ValueError("cost matrix contains non-finite entries")
        self._cost = cost
        self._shape = cost.shape
        self._epsilon_default = _check_epsilon_default(epsilon_default)

    def mean_cost(self) -> float:
        return float(self._cost.mean())

    def _cost_rows(self, start: int, stop: int, transpose: bool = False) -> np.ndarray:
        return (self._cost.T if transpose else self._cost)[start:stop]

    def apply_kernel(self, v, eps=None, axis="rows"):
        _check_axis(axis)
        eps = self._resolve_eps(eps)
        v = _check_vector(v, self.shape[0 if axis == "cols" else 1], "v")
        return self._contract((np.exp(-self._cost / eps),), v, axis)

    def apply_lse_kernel(self, f, g, eps=None, axis="rows"):
        _check_axis(axis)
        eps = self._resolve_eps(eps)
        n, m = self.shape
        f = _check_potential(f, n, "f")
        g = _check_potential(g, m, "g")
        z = (f[:, None] + g[None, :] - self._cost) / eps
        return eps * _lse(z, axis=1 if axis == "rows" else 0)


class PointCloudGeometry(Geometry):
    """Pairwise costs between two point sets, streamed in row blocks.

    Supported cost functions: squared Euclidean (``"sqeucl"``),
    Euclidean (``"eucl"``) and cosine (``"cosine"``, one minus the
    cosine similarity; zero vectors are rejected). Kernel applications
    materialize at most ``block_size`` cost rows at a time, so memory
    stays O(block_size * max(n, m)). The block size is a performance
    knob only; every output entry is reduced over its full axis in one
    call, so results do not depend on it.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        cost_fn: str = "sqeucl",
        epsilon_default: float | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.ndim != 2:
            raise ValueError("x and y must be 2-D arrays of shape (num_points, dim)")
        if x.shape[0] == 0 or y.shape[0] == 0:
            raise ValueError("point sets must be non-empty")
        if x.shape[1] != y.shape[1]:
            raise ValueError(f"dimension mismatch: x has d={x.shape[1]}, y has d={y.shape[1]}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("points contain non-finite entries")
        if cost_fn not in COST_FNS:
            raise ValueError(f"cost_fn must be one of {COST_FNS}, got {cost_fn!r}")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if cost_fn == "cosine":
            if np.any(np.linalg.norm(x, axis=1) == 0) or np.any(np.linalg.norm(y, axis=1) == 0):
                raise ValueError("cosine cost is undefined for zero vectors")
        self.x = x
        self.y = y
        self.cost_fn = cost_fn
        self.block_size = int(block_size)
        self._shape = (x.shape[0], y.shape[0])
        self._epsilon_default = _check_epsilon_default(epsilon_default)
        # Same point set on both sides: enforce an exactly zero diagonal,
        # which pairwise formulas only give up to rounding.
        self._same_points = x is y or (x.shape == y.shape and np.array_equal(x, y))

    def _cost_block(self, xs: np.ndarray, ys: np.ndarray, pairs: bool = False) -> np.ndarray:
        """Costs between every row of xs and every row of ys, or with
        ``pairs`` only between xs[k] and ys[k]."""

        def dot(u, v):
            return np.einsum("kd,kd->k", u, v) if pairs else u @ v.T

        if self.cost_fn == "cosine":
            xy = dot(
                xs / np.linalg.norm(xs, axis=1, keepdims=True),
                ys / np.linalg.norm(ys, axis=1, keepdims=True),
            )
            return np.subtract(1.0, xy, out=xy)
        xx = np.einsum("id,id->i", xs, xs)
        yy = np.einsum("jd,jd->j", ys, ys)
        sq = xx + yy if pairs else xx[:, None] + yy[None, :]
        sq -= dot(2.0 * xs, ys)
        np.maximum(sq, 0.0, out=sq)
        if self.cost_fn == "eucl":
            np.sqrt(sq, out=sq)
        return sq

    def _cost_rows(self, start: int, stop: int, transpose: bool = False) -> np.ndarray:
        """Cost rows [start, stop) of C, or of C^T when ``transpose``."""
        xs, ys = (self.y, self.x) if transpose else (self.x, self.y)
        block = self._cost_block(xs[start:stop], ys)
        if self._same_points:
            idx = np.arange(start, min(stop, ys.shape[0]))
            block[idx - start, idx] = 0.0
        return block

    def mean_cost(self) -> float:
        n, m = self.shape
        if n * m <= _MEAN_COST_SAMPLES:
            return float(self._cost_rows(0, n).mean())
        rng = np.random.default_rng(0)
        i = rng.integers(0, n, size=_MEAN_COST_SAMPLES)
        j = rng.integers(0, m, size=_MEAN_COST_SAMPLES)
        vals = self._cost_block(self.x[i], self.y[j], pairs=True)
        if self._same_points:
            vals = np.where(i == j, 0.0, vals)
        return float(vals.mean())

    def apply_kernel(self, v, eps=None, axis="rows"):
        _check_axis(axis)
        eps = self._resolve_eps(eps)
        # The "cols" contraction is the "rows" one over (y, x).
        n, m = self.shape if axis == "rows" else self.shape[::-1]
        v = _check_vector(v, m, "v")
        out = np.empty(n)
        for start, stop, cost in self._cost_blocks(axis == "cols"):
            out[start:stop] = np.exp(-cost / eps) @ v
        return out

    def apply_lse_kernel(self, f, g, eps=None, axis="rows"):
        _check_axis(axis)
        eps = self._resolve_eps(eps)
        n, m = self.shape
        f = _check_potential(f, n, "f")
        g = _check_potential(g, m, "g")
        outer, inner = (f, g) if axis == "rows" else (g, f)
        out = np.empty(outer.size)
        for start, stop, cost in self._cost_blocks(axis == "cols"):
            z = (outer[start:stop, None] + inner[None, :] - cost) / eps
            out[start:stop] = eps * _lse(z, axis=1)
        return out


class GridGeometry(Geometry):
    """Separable costs on a Cartesian product grid.

    The support is the product of ``axes`` (d coordinate vectors) in
    row-major unraveling, and the cost between two grid nodes is the sum
    of per-axis costs, by default squared coordinate differences. The
    Gibbs kernel then factors into a tensor product of d small per-axis
    kernels, and both kernel applications run as d successive per-axis
    contractions on the reshaped input instead of one N^2 product.
    """

    def __init__(
        self,
        axes: list[np.ndarray],
        cost_matrices: list[np.ndarray] | None = None,
        epsilon_default: float | None = None,
    ):
        if not axes:
            raise ValueError("need at least one axis")
        axes = [np.asarray(ax, dtype=float) for ax in axes]
        for k, ax in enumerate(axes):
            if ax.ndim != 1 or ax.size == 0:
                raise ValueError(f"axis {k} must be a non-empty 1-D array")
            if not np.all(np.isfinite(ax)):
                raise ValueError(f"axis {k} contains non-finite entries")
        if cost_matrices is None:
            cost_matrices = [(ax[:, None] - ax[None, :]) ** 2 for ax in axes]
        cost_matrices = [np.asarray(c, dtype=float) for c in cost_matrices]
        if len(cost_matrices) != len(axes):
            raise ValueError("need exactly one cost matrix per axis")
        for k, (ax, c) in enumerate(zip(axes, cost_matrices)):
            if c.shape != (ax.size, ax.size):
                raise ValueError(f"cost matrix {k} must be {ax.size}x{ax.size}, got {c.shape}")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"cost matrix {k} contains non-finite entries")
        self.axes = axes
        self.cost_matrices = cost_matrices
        self.grid_shape = tuple(ax.size for ax in axes)
        total = int(np.prod(self.grid_shape))
        self._shape = (total, total)
        self._epsilon_default = _check_epsilon_default(epsilon_default)

    def mean_cost(self) -> float:
        # The mean of a separable cost is the sum of per-axis means: exact
        # at every size, with no sampling and nothing N x N.
        return float(sum(c.mean() for c in self.cost_matrices))

    def _cost_rows(self, start: int, stop: int, transpose: bool = False) -> np.ndarray:
        # Row i of C is the sum over axes k of row i_k of cost matrix k,
        # broadcast along grid axis k; (i_k) is the multi-index of i.
        rows = stop - start
        block = np.zeros((rows,) + self.grid_shape)
        coords = np.unravel_index(np.arange(start, stop), self.grid_shape)
        for k, (c, i) in enumerate(zip(self.cost_matrices, coords)):
            shape = [1] * len(self.grid_shape)
            shape[k] = c.shape[1]
            block += (c.T if transpose else c)[i].reshape(rows, *shape)
        return block.reshape(rows, -1)

    def _gibbs(self, eps, old):
        # A separable cost's range, and so its midrange, is the sum of its
        # axes': one kernel per axis on that axis's midrange, whose products,
        # intermediate contractions included, obey the n x m kernel's floor.
        lo = [c.min() for c in self.cost_matrices]
        half = [0.5 * (c.max() - low) for c, low in zip(self.cost_matrices, lo)]
        if sum(half) > _KERNEL_EXPONENT_LIMIT * eps:
            return None
        mid = [low + h for low, h in zip(lo, half)]
        factors = [np.exp((m - c) / eps) for m, c in zip(mid, self.cost_matrices)]
        return factors, sum(mid), _TINY * np.exp(sum(half) / eps)

    def _contract(self, factors, v, axis):
        t = v.reshape(self.grid_shape)
        for k, kernel in enumerate(factors):
            t = np.moveaxis(np.tensordot(kernel if axis == "rows" else kernel.T, t, axes=(1, k)), 0, k)
        return t.reshape(-1)

    def apply_kernel(self, v, eps=None, axis="rows"):
        _check_axis(axis)
        eps = self._resolve_eps(eps)
        v = _check_vector(v, self.shape[0], "v")
        return self._contract([np.exp(-c / eps) for c in self.cost_matrices], v, axis)

    def apply_lse_kernel(self, f, g, eps=None, axis="rows"):
        _check_axis(axis)
        eps = self._resolve_eps(eps)
        total = self.shape[0]
        f = _check_potential(f, total, "f")
        g = _check_potential(g, total, "g")
        # eps*log(K e^{g/eps}) factors into per-axis log-space
        # contractions; the remaining potential enters additively.
        outer, inner = (f, g) if axis == "rows" else (g, f)
        t = (inner / eps).reshape(self.grid_shape)
        for k, c in enumerate(self.cost_matrices):
            log_kernel = -(c if axis == "rows" else c.T) / eps
            moved = np.moveaxis(t, k, -1)
            contracted = _lse(moved[..., None, :] + log_kernel, axis=-1)
            t = np.moveaxis(contracted, -1, k)
        return outer + eps * t.reshape(-1)

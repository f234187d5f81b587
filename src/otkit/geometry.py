"""Cost geometries: dense matrices, point clouds, and separable grids.

A geometry describes ground costs c(x_i, y_j) between two families of
locations without necessarily storing the full n-by-m cost matrix.
Solvers reach costs only through the geometry: it materializes the
matrix (``cost_matrix``), applies the Gibbs kernel exp(-C/eps) to a
vector (``apply_kernel``) or in the log domain (``apply_lse_kernel``),
and builds a solve's kernel (``_gibbs``) and applies it (``_contract``,
``_sweep``) for ``_KernelStep``, which holds a solve's iterate and runs
the Sinkhorn and barycenter sweeps: on a kernel, on the scalings
u = exp((f - c)/eps) and v = exp(g/eps), forming the potentials f and g
only at checks, eps changes, the end and a fall to the log domain.
:class:`DenseGeometry` wraps a cost matrix, read in place and never
written; :class:`PointCloudGeometry` factors its cost once as
C = A B^T; :class:`GridGeometry` contracts costs that separate over the
axes of a grid one axis at a time, allocating nothing N x N.

On dense costs and point clouds every plan, kernel and log-sum-exp comes
from one pass, ``_exponent_blocks``: row blocks of (f_i + g_j - C_ij)/eps,
each in one reused ``block_size x m`` buffer or in its rows of a given
array. The base version adds f_i + g_j, then subtracts the cost rows and
divides by eps; squared-Euclidean and cosine clouds take each block from
one product of factors augmented with f and g. Coupling reductions
exponentiate the blocks (``_plan_blocks``), and the log domain reduces
each in place, so neither holds more than one block. A solve's kernel is
exp((c - C)/eps), c the midrange of C, which is scanned once per
geometry: one n x m matrix written from the blocks up to
``DEFAULT_DENSE_CAP`` entries, and above it the blocks again at every
sweep, whose two products share one pass. ``transport_matrix``, the
low-rank solver and Gromov-Wasserstein materialize n x m matrices and
refuse above the cap. ``block_size`` is a performance knob only, except
in a sweep's second product, which sums over row blocks and so depends
on them up to rounding.
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


def _lse(x: np.ndarray, axis: int, overwrite: bool = False) -> np.ndarray:
    """Log-sum-exp along ``axis`` with max subtraction; tolerates -inf
    slices. ``overwrite`` lets it work in ``x``."""
    hi = np.max(x, axis=axis, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    x = np.subtract(x, hi, out=x if overwrite else None)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(x, out=x), axis=axis)) + np.squeeze(hi, axis=axis)


def _exp(blocks):
    """Exponentiates each block ``(start, stop, rows)`` in place."""
    for start, stop, rows in blocks:
        yield start, stop, np.exp(rows, out=rows)


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
        raise ValueError(f"epsilon_default must be positive and finite, got {float(eps)}")
    return eps


class EpsilonSchedule:
    """Geometric decay of the regularization toward a target value.

    At iteration t the solver uses ``max(target, target * init_scale *
    decay**t)``: a loose start that tightens geometrically and then
    stays at ``target``.
    """

    def __init__(self, target: float, init_scale: float = 1.0, decay: float = 1.0):
        if not (0 < target < np.inf):
            raise ValueError(f"target must be positive and finite, got {float(target)}")
        if not (1.0 <= init_scale < np.inf):
            raise ValueError(f"init_scale must be finite and >= 1, got {float(init_scale)}")
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
    # Whether ``_cost_rows`` returns views of a stored C, and whether
    # ``_exponent_blocks`` needs no cost rows.
    _stores_cost: bool = False
    _factored: bool = False
    _range: tuple[float, float] | None = None

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
        _check_axis(axis)
        eps = self._resolve_eps(eps)
        v = _check_vector(v, self.shape[1 if axis == "rows" else 0], "v")
        # The streamed kernel at shift 0: 0 - C is exactly -C.
        return self._contract((0.0, eps), v, axis)

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
        _check_axis(axis)
        eps = self._resolve_eps(eps)
        return self._lse_kernel(*self._check_potentials(f, g), eps, axis)

    def _lse_kernel(self, f: np.ndarray, g: np.ndarray, eps: float, axis: str) -> np.ndarray:
        """``apply_lse_kernel`` on potentials, eps and axis already checked."""
        out = np.empty(len(f) if axis == "rows" else len(g))
        # Each exponent block is reduced in its own buffer.
        for start, stop, rows in self._exponent_blocks(f, g, eps, axis == "cols"):
            out[start:stop] = _lse(rows, axis=1, overwrite=True)
        return eps * out

    def _check_potentials(self, f, g) -> tuple[np.ndarray, np.ndarray]:
        # Potentials may carry -inf (zero-weight locations); NaN and +inf may not.
        checked = []
        for p, size, name in ((f, self.shape[0], "f"), (g, self.shape[1], "g")):
            p = np.asarray(p, dtype=float)
            if p.shape != (size,):
                raise ValueError(f"{name} must have shape ({size},), got {p.shape}")
            if np.isnan(p).any() or np.any(p == np.inf):
                raise ValueError(f"{name} contains NaN or +inf entries")
            checked.append(p)
        return tuple(checked)

    def _blocks(self, n: int, m: int, into=None):
        """Yields ``(start, stop, out)`` over blocks of ``block_size`` rows of
        an n x m array: rows of ``into`` if given, else of one reused buffer."""
        buffer = np.empty((min(self.block_size, n), m)) if into is None else None
        for start in range(0, n, self.block_size):
            stop = min(start + self.block_size, n)
            yield start, stop, buffer[: stop - start] if into is None else into[start:stop]

    def _cost_blocks(self, transpose: bool = False, into=None):
        """Yields ``(start, stop, cost_rows)`` over the row blocks of C, or of
        C^T when ``transpose``, to read: in ``into`` if given, else views of
        a stored C or one reused buffer."""
        n, m = self.shape[::-1] if transpose else self.shape
        views = into is None and self._stores_cost
        for start, stop, out in self._blocks(n, 0 if views else m, into):
            yield start, stop, self._cost_rows(start, stop, transpose, out=None if views else out)

    def _exponent_blocks(self, f, g, eps: float, transpose: bool = False, into=None):
        """Yields ``(start, stop, rows)`` over the row blocks (``_blocks``) of
        (f_i + g_j - C_ij)/eps, or of its transpose when ``transpose``."""
        return ((start, stop, rows) for start, stop, _, rows in self._cost_exponents(f, g, eps, transpose, into))

    def _cost_exponents(self, f, g, eps: float, transpose: bool = False, into=None):
        """Yields ``(start, stop, cost_rows, exponent_rows)``, the exponent
        formed as f_i + g_j, less the cost rows, over eps."""
        outer, inner = (g, f) if transpose else (f, g)
        blocks = self._blocks(len(outer), len(inner), into)
        for (start, stop, cost), (_, _, rows) in zip(self._cost_blocks(transpose), blocks):
            np.add(outer[start:stop, None], inner, out=rows)
            rows -= cost
            rows /= eps
            yield start, stop, cost, rows

    def _plan_blocks(self, f, g, eps: float, into=None):
        """Yields ``(start, stop, plan_rows)`` of the coupling exp((f + g - C)/eps)."""
        f, g = self._check_potentials(f, g)
        return _exp(self._exponent_blocks(f, g, eps, into=into))

    def _transport_rows(self, f, g, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """``(<C_i, P_i>, sum_j P_ij)`` over the rows i of the coupling P."""
        f, g = self._check_potentials(f, g)
        row_cost, row_mass = np.empty(len(f)), np.empty(len(f))
        for start, stop, cost, plan in self._cost_exponents(f, g, eps):
            np.exp(plan, out=plan)
            row_mass[start:stop] = plan.sum(axis=1)
            plan *= cost
            row_cost[start:stop] = plan.sum(axis=1)
        return row_cost, row_mass

    def _gibbs(self, eps: float, old: tuple | None) -> tuple | None:
        """``(factors, c, floor)`` of the kernel exp((c - C)/eps), c the
        midrange of C, or None when half the cost range over eps exceeds
        ``_KERNEL_EXPONENT_LIMIT``. ``floor`` is tiny times the largest entry:
        an underflowed or subnormal scaling then moves no product at least
        ``floor`` by more than rounding. Up to ``DEFAULT_DENSE_CAP`` entries
        the factors are one n x m matrix (``old``'s, if given), the exp of
        ``_exponent_blocks``; above it they are ``(c, eps)``, and every
        product recomputes those blocks (``_kernel_blocks``).
        """
        n, m = self.shape
        kernel = None
        if n * m <= DEFAULT_DENSE_CAP:
            kernel = old[0][0] if old else np.empty((n, m))
        # The first range scan leaves C in the kernel; without factors, the
        # exponent is then formed there in place.
        in_place = self._range is None and not self._factored
        lo, hi = self._cost_range(kernel)
        half_range = 0.5 * (hi - lo)
        if half_range > _KERNEL_EXPONENT_LIMIT * eps:
            return None
        shift, floor = lo + half_range, _TINY * np.exp(half_range / eps)
        if kernel is None:
            return (shift, eps), shift, floor
        if in_place:
            np.subtract(shift, kernel, out=kernel)
            kernel /= eps
        else:
            for _ in self._exponent_blocks(np.full(n, shift), np.zeros(m), eps, into=kernel):
                pass
        return (np.exp(kernel, out=kernel),), shift, floor

    def _cost_range(self, into=None) -> tuple[float, float]:
        """``(min C, max C)``, kept (in ``_range``) from one pass over the
        cost blocks, in ``into`` if given: it does not depend on eps."""
        if self._range is None:
            lo, hi = zip(*((cost.min(), cost.max()) for _, _, cost in self._cost_blocks(into=into)))
            self._range = float(min(lo)), float(max(hi))
        return self._range

    def _kernel_blocks(self, factors, transpose: bool = False):
        """``(start, stop, kernel_rows)`` over the row blocks of the kernel
        from ``_gibbs``, or of its transpose: the n x m kernel as one
        block, or the streamed one's blocks."""
        if len(factors) == 1:  # the n x m kernel
            kernel = factors[0].T if transpose else factors[0]
            return ((0, kernel.shape[0], kernel),)
        return self._streamed_blocks(*factors, transpose)

    def _streamed_blocks(self, shift: float, eps: float, transpose: bool):
        """The blocks of exp((shift - C)/eps), or of its transpose."""
        n, m = self.shape
        return _exp(self._exponent_blocks(np.full(n, shift), np.zeros(m), eps, transpose))

    def _contract(self, factors, v: np.ndarray, axis: str) -> np.ndarray:
        """K v for ``axis="rows"``, K^T v for ``"cols"``, K from ``_gibbs``."""
        out = np.empty(self.shape[0 if axis == "rows" else 1])
        for start, stop, kernel in self._kernel_blocks(factors, axis == "cols"):
            np.matmul(kernel, v, out=out[start:stop])
        return out

    def _sweep(self, factors, v: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """u = a / K v, with K v written into ``out[..., :n]`` and K^T u into
        ``out[..., n:]``, K from ``_gibbs``: the two products of one Sinkhorn
        sweep in scaling form, from one pass over the kernel's row blocks.
        ``v`` and ``a`` may stack problems along a leading axis."""
        n = self.shape[0]
        kv, ktu = out[..., :n], out[..., n:]
        u = np.empty_like(kv)
        for start, stop, kernel in self._kernel_blocks(factors):
            kv_rows = np.matmul(v, kernel.T, out=kv[..., start:stop])
            u_rows = np.divide(a[..., start:stop], kv_rows, out=u[..., start:stop])
            # The first block's term starts the sum, bitwise 0 + term: no
            # term is -0.
            if start:
                ktu += u_rows @ kernel
            else:
                np.matmul(u_rows, kernel, out=ktu)
        return u

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
    """A solve's iterate and its Sinkhorn sweeps (``sweep``), each two
    products K e^{g/eps} and K^T e^{f/eps}, K = exp(-C/eps).

    On the geometry's kernel of the cost shifted by its midrange c
    (``_gibbs``), built again whenever eps changes, the iterate is the
    scalings u = e^{(f - c)/eps} and v = e^{g/eps}. A sweep is
    ``_sweep``'s two products in one buffer, one min and one max over it,
    u = a / K v and v = b / K^T u. The potentials f = eps log u + c and
    g = eps log v are formed (``potentials``) only at a check, at an eps
    change, at the end, and when the step leaves the kernel: when the
    geometry declines, and from the first product outside float64's
    normal range on. The whole sweep then runs again from those
    potentials in the log domain, on ``_lse_kernel``, and raises
    ``DivergedError`` at sweep t on a non-finite result.

    ``a`` and g may stack problems on a leading axis, which then share
    each pass over the kernel. Without ``b`` the caller updates the
    columns itself, from ``col_logs`` and ``col_marginal``, through
    ``set_cols``. Callers run it under ``np.errstate(all="ignore")``.
    """

    def __init__(self, geom: Geometry, a: np.ndarray, g: np.ndarray, b: np.ndarray | None = None):
        self.geom, self.a, self.b = geom, a, b
        self.log_a, self.log_b = np.log(a), None if b is None else np.log(b)
        # gibbs is () before the first build and None in the log domain.
        self.gibbs, self.eps = (), None
        # Potentials, and on a kernel the scalings; u and f stay None
        # until the first sweep makes them.
        self.f, self.g, self.u, self.v = None, g, None, None
        self.back = None  # eps log(K^T e^{f/eps}) of a log-domain sweep
        self.n = geom.shape[0]
        self.products = np.empty(a.shape[:-1] + (self.n + geom.shape[1],))

    def sweep(self, eps: float, t: int, check: bool = False) -> np.ndarray | None:
        """Makes f = eps log a - eps log(K e^{g/eps}), then, given b,
        g = eps log b - eps log(K^T e^{f/eps}). With ``check``, returns the
        row marginal of the iterate before the sweep, which eps must not
        have changed: u times the first product."""
        if eps != self.eps:
            self._set_eps(eps)
        if self.gibbs:
            factors, _, floor = self.gibbs
            out = self.products
            u = self.geom._sweep(factors, self.v, self.a, out)
            # Both products lie in [floor, inf), NaN-free.
            if out.min() >= floor and out.max() < np.inf:
                row = self.u * out[..., : self.n] if check else None
                self.u = u
            else:
                logger.debug("kernel step: a product left the normal range at iteration %d; continuing in the log domain", t)
                self.f, self.g = self.potentials()
                self.gibbs = None
        if not self.gibbs:
            f = eps * self.log_a - self._lse(self.g, eps, "rows", t)
            # f is -inf where a is 0.
            row = np.where(self.a > 0, self.a * np.exp((self.f - f) / eps), 0.0) if check else None
            self.f, self.back = f, self._lse(f, eps, "cols", t)
        if self.b is not None:
            self.set_cols(self.b, self.log_b)
        return row

    def potentials(self) -> tuple:
        """``(f, g)`` of the iterate; f is None before the first sweep."""
        if not self.gibbs:
            return self.f, self.g
        eps, shift = self.eps, self.gibbs[1]
        return None if self.u is None else eps * np.log(self.u) + shift, eps * np.log(self.v)

    def col_products(self) -> np.ndarray:
        """The last sweep's second product K^T (a / K v), on a kernel."""
        return self.products[..., self.n :]

    def col_logs(self) -> np.ndarray:
        """log(K^T e^{f/eps}) of the last sweep."""
        return np.log(self.col_products()) if self.gibbs else self.back / self.eps

    def col_marginal(self) -> np.ndarray:
        """Column marginal of the last sweep's f with the g before it."""
        return self.v * self.col_products() if self.gibbs else np.exp((self.g + self.back) / self.eps)

    def set_cols(self, b: np.ndarray, log_b: np.ndarray) -> None:
        """g = eps log b - eps log(K^T e^{f/eps}), from the last sweep."""
        if self.gibbs:
            self.v = b / self.col_products()
        else:
            self.g = self.eps * log_b - self.back

    def _set_eps(self, eps: float) -> None:
        """Rebuilds the kernel at eps, and the scalings from the potentials."""
        if self.gibbs:
            self.f, self.g = self.potentials()
        if self.gibbs is not None:
            self.gibbs = self.geom._gibbs(eps, self.gibbs)
        self.eps = eps
        if self.gibbs:
            self.v = np.exp(self.g / eps)
            self.u = None if self.f is None else np.exp((self.f - self.gibbs[1]) / eps)

    def _lse(self, p: np.ndarray, eps: float, axis: str, t: int) -> np.ndarray:
        zeros = np.zeros(self.geom.shape[0 if axis == "rows" else 1])
        # The step's own potentials and eps need no checks.
        r = np.array([
            self.geom._lse_kernel(*((zeros, q) if axis == "rows" else (q, zeros)), eps, axis)
            for q in p.reshape(-1, p.shape[-1])
        ]).reshape(p.shape[:-1] + zeros.shape)
        if not np.isfinite(r).all():
            raise DivergedError("non-finite potentials; eps is likely too small for the cost scale", iteration=t)
        return r


class DenseGeometry(Geometry):
    """Geometry backed by an explicit cost matrix."""

    _stores_cost = True

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

    def _cost_rows(self, start: int, stop: int, transpose: bool = False, out=None) -> np.ndarray:
        """Cost rows [start, stop) of C, or of C^T when ``transpose``: a
        view of the matrix, or a copy in ``out`` if given."""
        rows = (self._cost.T if transpose else self._cost)[start:stop]
        if out is None:
            return rows
        out[...] = rows
        return out


class PointCloudGeometry(Geometry):
    """Pairwise costs between two point sets, streamed in row blocks.

    Supported cost functions: squared Euclidean (``"sqeucl"``),
    Euclidean (``"eucl"``) and cosine (``"cosine"``, one minus the
    cosine similarity; zero vectors are rejected). Streamed passes hold
    at most ``block_size`` rows at a time: O(block_size * max(n, m)).

    Costs come from factors A (n x k) and B (m x k) built once, A B^T the
    squared distance (k = d + 2) of the points centered on their common
    mean, accurate far from the origin, or the cosine cost (k = d + 1).
    Either is linear in them: an exponent block is one product of factors
    augmented with f and g, and <C, P> is read off P B.
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
            x_norm = np.linalg.norm(x, axis=1, keepdims=True)
            y_norm = np.linalg.norm(y, axis=1, keepdims=True)
            if np.any(x_norm == 0) or np.any(y_norm == 0):
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
        self._factored = cost_fn != "eucl"
        # C = A B^T; the first column of B is ones.
        if cost_fn == "cosine":
            self._factors = (
                np.hstack([np.ones((len(x), 1)), -x / x_norm]),
                np.hstack([np.ones((len(y), 1)), y / y_norm]),
            )
        else:
            mean = np.concatenate([x, y]).mean(axis=0)
            xc, yc = x - mean, y - mean
            self._factors = (
                np.hstack([np.einsum("id,id->i", xc, xc)[:, None], np.ones((len(x), 1)), -2.0 * xc]),
                np.hstack([np.ones((len(y), 1)), np.einsum("jd,jd->j", yc, yc)[:, None], yc]),
            )

    def _product_rows(self, left, right, start: int, stop: int, out, diagonal) -> np.ndarray:
        """Rows [start, stop) of left right^T, in ``out`` if given, with the
        same-points diagonal set to ``diagonal``."""
        rows = np.matmul(left[start:stop], right.T, out=out)
        if self._same_points:
            idx = np.arange(start, min(stop, right.shape[0]))
            rows[idx - start, idx] = np.broadcast_to(diagonal, right.shape[:1])[idx]
        return rows

    def _finish(self, products: np.ndarray) -> np.ndarray:
        """Costs from factor products, in place: squared distances are
        clamped at 0, and Euclidean ones are their square roots."""
        if self.cost_fn != "cosine":
            np.maximum(products, 0.0, out=products)
        if self.cost_fn == "eucl":
            np.sqrt(products, out=products)
        return products

    def _cost_rows(self, start: int, stop: int, transpose: bool = False, out=None) -> np.ndarray:
        """Cost rows [start, stop) of C, or of C^T when ``transpose``,
        computed in the buffer ``out`` if given."""
        left, right = self._factors[::-1] if transpose else self._factors
        return self._finish(self._product_rows(left, right, start, stop, out, 0.0))

    def _exponent_blocks(self, f, g, eps, transpose=False, into=None):
        # (f_i + g_j - A_i.B_j)/eps = [-A_i, f_i, 1]/eps . [B_j, 1, g_j].
        if not self._factored:
            return super()._exponent_blocks(f, g, eps, transpose, into)
        outer, inner = (g, f) if transpose else (f, g)
        left, right = self._factors[::-1] if transpose else self._factors
        lhs = np.column_stack([-left, outer, np.ones(len(left))]) / eps
        rhs = np.column_stack([right, np.ones(len(right)), inner])
        diagonal = (outer + inner) / eps if self._same_points else None
        return (
            (start, stop, self._product_rows(lhs, rhs, start, stop, out, diagonal))
            for start, stop, out in self._blocks(len(left), len(right), into)
        )

    def _transport_rows(self, f, g, eps):
        # <C_i, P_i> = A_i . (P B)_i; B's first column, ones, gives P_i 1.
        if not self._factored:
            return super()._transport_rows(f, g, eps)
        a, b = self._factors
        pb = np.empty(a.shape)
        for start, stop, plan in self._plan_blocks(f, g, eps):
            np.matmul(plan, b, out=pb[start:stop])
        return np.einsum("ik,ik->i", a, pb), pb[:, 0]

    def mean_cost(self) -> float:
        n, m = self.shape
        if n * m <= _MEAN_COST_SAMPLES:
            return float(self._cost_rows(0, n).mean())
        rng = np.random.default_rng(0)
        i = rng.integers(0, n, size=_MEAN_COST_SAMPLES)
        j = rng.integers(0, m, size=_MEAN_COST_SAMPLES)
        a, b = self._factors
        vals = self._finish(np.einsum("kr,kr->k", a[i], b[j]))
        if self._same_points:
            vals = np.where(i == j, 0.0, vals)
        return float(vals.mean())


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

    def _cost_rows(self, start: int, stop: int, transpose: bool = False, out=None) -> np.ndarray:
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
        # Leading axes of v stack problems; grid axis k sits after them.
        lead = v.ndim - 1
        t = v.reshape(v.shape[:lead] + self.grid_shape)
        for k, kernel in enumerate(factors):
            t = np.moveaxis(np.tensordot(kernel if axis == "rows" else kernel.T, t, axes=(1, lead + k)), 0, lead + k)
        return t.reshape(v.shape)

    def _sweep(self, factors, v, a, out):
        n = self.shape[0]
        out[..., :n] = self._contract(factors, v, "rows")
        u = a / out[..., :n]
        out[..., n:] = self._contract(factors, u, "cols")
        return u

    def apply_kernel(self, v, eps=None, axis="rows"):
        _check_axis(axis)
        eps = self._resolve_eps(eps)
        v = _check_vector(v, self.shape[0], "v")
        return self._contract([np.exp(-c / eps) for c in self.cost_matrices], v, axis)

    def _lse_kernel(self, f, g, eps, axis):
        # eps*log(K e^{g/eps}) factors into per-axis log-space
        # contractions; the remaining potential enters additively.
        outer, inner = (f, g) if axis == "rows" else (g, f)
        t = (inner / eps).reshape(self.grid_shape)
        for k, c in enumerate(self.cost_matrices):
            log_kernel = -(c if axis == "rows" else c.T) / eps
            moved = np.moveaxis(t, k, -1)
            contracted = _lse(moved[..., None, :] + log_kernel, axis=-1, overwrite=True)
            t = np.moveaxis(contracted, -1, k)
        return outer + eps * t.reshape(-1)

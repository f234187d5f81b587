"""In-memory span tracer that measures otkit's layers from outside.

Every public callable of a layer module is replaced, in every namespace
that holds a reference to it, by a wrapper that records a span: name,
start, end, parent span and operation id. Geometry kernels are patched
on the three backend classes. Nothing inside the package changes; the
wrappers are removed again by :meth:`Tracer.uninstall`.

This module imports only the standard library, so loading it does not
shift import time into or out of the measured set-up.
"""

from __future__ import annotations

import os
import time
import types

# Geometry backends and the span label of each.
BACKENDS = {"DenseGeometry": "dense", "PointCloudGeometry": "pointcloud", "GridGeometry": "grid"}
# Geometry methods and the span suffix of each.
GEOMETRY_METHODS = {
    "apply_lse_kernel": "lse",
    "apply_kernel": "kernel",
    "cost_matrix": "cost_matrix",
    "mean_cost": "mean_cost",
}
# (module, callable, span name). Names missing from the package are
# skipped, so the tracer keeps working when internals are renamed.
FUNCTIONS = [
    # The engine every Sinkhorn loop runs through: solve_sinkhorn calls it,
    # and the GW inner solves and the low-rank guide solve call it directly.
    ("sinkhorn", "_sinkhorn_iterations", "sinkhorn.solve"),
    ("sinkhorn", "reg_ot_cost", "sinkhorn.reg_ot_cost"),
    ("sinkhorn", "transport_matrix", "sinkhorn.transport_matrix"),
    ("sinkhorn", "grad_points", "sinkhorn.grad_points"),
    ("sinkhorn", "grad_weights", "sinkhorn.grad_weights"),
    ("lowrank", "solve_lr_sinkhorn", "lowrank.solve"),
    ("lowrank", "lr_coupling", "lowrank.coupling"),
    ("quadratic", "solve_gw", "quadratic.solve"),
    ("quadratic", "gw_objective", "quadratic.objective"),
    ("quadratic", "gw_linearized_cost", "quadratic.linearize"),
    ("barycenter", "solve_barycenter", "barycenter.solve"),
    ("tools", "sort_transport", "tools.sort_transport"),
    ("tools", "soft_sort", "tools.soft_sort"),
    ("tools", "soft_rank", "tools.soft_rank"),
    ("tools", "bures_w2", "tools.bures"),
    ("tools", "gmm_distance", "tools.gmm"),
    ("fileio", "read_matrix", "fileio.read_matrix"),
    ("fileio", "read_vector", "fileio.read_vector"),
    ("fileio", "read_gmm", "fileio.read_gmm"),
    ("fileio", "write_text_atomic", "fileio.write_text"),
    ("fileio", "write_json_atomic", "fileio.write_json"),
    ("fileio", "write_matrix_atomic", "fileio.write_matrix"),
    ("cli", "main", "cli.main"),
]
# Readers that open the file themselves (read_vector delegates to
# read_matrix), and every writer: their spans carry the bytes moved.
_LEAF_READERS = {"fileio.read_matrix", "fileio.read_gmm"}
_WRITERS = {"fileio.write_text", "fileio.write_json", "fileio.write_matrix"}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "info")

    def __init__(self, name: str, parent: int | None, op: int | None):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.info: dict = {}

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "parent": self.parent,
            "op": self.op,
            "start": self.start,
            "end": self.end,
            **self.info,
        }


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _span_info(name: str, args: tuple, result) -> dict:
    """Counts attached to a finished span, read from arguments and result."""
    if name.startswith("geometry."):
        geom = args[0]
        n, m = geom.shape
        if name.endswith(".lse"):
            # Entries the log-sum-exp reduces over (computed, not observed):
            # n*m for a dense or streamed cost, N * sum(n_k) for a grid,
            # which contracts one axis at a time.
            grid_shape = getattr(geom, "grid_shape", None)
            entries = n * sum(grid_shape) if grid_shape is not None else n * m
            return {"entries": entries}
        if name.endswith(".cost_matrix"):
            return {"entries": n * m}
        return {}
    if name == "sinkhorn.solve" or name == "lowrank.solve" or name == "barycenter.solve":
        info = {"iterations": int(getattr(result, "iterations", 0))}
        if name == "barycenter.solve":
            info["histograms"] = int(args[0].histograms.shape[0])
        return info
    if name == "quadratic.solve":
        return {"iterations": int(getattr(result, "outer_iterations", 0))}
    if name in _LEAF_READERS or name in _WRITERS:
        return {"bytes": _file_size(args[0])}
    if name == "cli.main":
        return {"code": result}
    return {}


class Tracer:
    """Records spans around otkit's public callables while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"error": type(exc).__name__}
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _span_info(name, args, result)
            return result

        return traced

    def install(self, otkit) -> None:
        """Wraps every binding of the traced callables in the loaded package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [otkit] + [
            mod for mod in vars(otkit).values() if isinstance(mod, types.ModuleType) and mod.__name__.startswith("otkit.")
        ]
        for cls_name, backend in BACKENDS.items():
            cls = getattr(otkit.geometry, cls_name, None)
            for method, suffix in GEOMETRY_METHODS.items():
                if cls is not None and method in vars(cls):
                    self._patch(cls, method, self.wrap(f"geometry.{backend}.{suffix}", vars(cls)[method]))
        for mod_name, attr, span_name in FUNCTIONS:
            original = getattr(getattr(otkit, mod_name, None), attr, None)
            if original is None:
                continue
            traced = self.wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self) -> list[dict]:
        return [span.as_dict(i) for i, span in enumerate(self.spans)]

"""CSV / JSON readers and atomic writers used by the CLI.

CSV conventions: comma-separated, no header, '#' starts a comment.
Writes go through a temp file in the destination directory followed by
an atomic rename, so readers never observe partial files.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable

import numpy as np

from .tools import Gaussian, GaussianMixture

__all__ = [
    "read_matrix",
    "read_vector",
    "read_gmm",
    "write_text_atomic",
    "write_json_atomic",
    "write_matrix_atomic",
]


def read_matrix(path: str) -> np.ndarray:
    """Reads a 2-D array; single-column files come back as (n, 1)."""
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except Exception as exc:
        raise ValueError(f"could not parse {path} as CSV: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"{path} contains no data rows")
    return data


def read_vector(path: str) -> np.ndarray:
    data = read_matrix(path)
    if 1 not in data.shape:
        raise ValueError(f"{path} must contain a single row or column, got shape {data.shape}")
    return data.reshape(-1)


def read_gmm(path: str) -> GaussianMixture:
    """Reads a mixture from JSON with keys 'weights', 'means', 'covs'."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"could not parse {path} as JSON: {exc}") from exc
    missing = {"weights", "means", "covs"} - set(raw)
    if missing:
        raise ValueError(f"{path} is missing keys: {sorted(missing)}")
    means = np.asarray(raw["means"], dtype=float)
    covs = np.asarray(raw["covs"], dtype=float)
    if means.ndim != 2 or covs.ndim != 3:
        raise ValueError(f"{path}: 'means' must be 2-D and 'covs' 3-D")
    if len(means) != len(covs):
        raise ValueError(f"{path}: one covariance per mean required")
    components = tuple(Gaussian(mean, cov) for mean, cov in zip(means, covs))
    return GaussianMixture(np.asarray(raw["weights"], dtype=float), components)


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def write_text_atomic(path: str, text: str) -> None:
    _write_atomic(path, [text])


def write_json_atomic(path: str, payload: dict) -> None:
    _write_atomic(path, [json.dumps(payload, indent=2) + "\n"])


def write_matrix_atomic(path: str, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    # 17 significant digits read back bitwise for every float64. Rows are
    # formatted and written one at a time, so the text never exists whole.
    row_format = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    _write_atomic(path, (row_format % tuple(row.tolist()) for row in matrix))

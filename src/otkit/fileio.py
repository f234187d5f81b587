"""CSV / JSON readers and atomic writers used by the CLI.

CSV conventions: comma-separated, no header, '#' starts a comment;
lines that are empty or hold only whitespace are skipped.
Writes go through a temp file in the destination directory followed by
an atomic rename, so readers never observe partial files; the file has
the mode ``open`` gives a new one, 0o666 less the umask.

A matrix is written as "%.17g" text, 17 significant digits, which read
back bitwise for every float64. ``_format_rows`` makes exactly Python's
"%.17g" bytes with numpy, a block of about 8,000 entries at a time
(``_csvtext``), instead of formatting each row in Python.

A matrix is read by ``_csvtext.parse_rows``, a chunk of about 128 KB of
whole lines at a time, into one array sized by the line count: bitwise
the array np.loadtxt reads. It reads what otkit and np.savetxt write:
fields ``[-]digits[.digits][(e|E)[+|-]digits]`` between "," and "\\n",
with empty lines and whole-line "#" comments. It declines anything else
(whitespace, "\\r", inline comments, inf and nan, a leading "+", ragged
rows, lines over 1 MiB, compressed bytes), and the file, or the part, is
then read by np.loadtxt as before, which gives the array or the error.

Large CSV matrices are read and written on every usable core: the file
is split into row ranges, this process handles the first and forked
children the rest, with the same parser and row formatter as a small
file, so the arrays read and the bytes written do not change. A read
whose part does not parse cleanly is parsed again whole in one process,
which gives the one-process result or error. Every child is reaped, on
every path, and leaves no file behind.

A matrix is written from a row source (``write_rows_atomic``): a function
of a row range that yields those rows a block at a time, so each part
makes its own rows and the matrix need not exist whole; the CLI writes a
Sinkhorn coupling from its potentials this way, and
``write_matrix_atomic`` feeds the same writer slices of its matrix. Each
child writes its rows' text, as bytes, to its own unnamed temp file, and
this process appends the files to the output in row order with
``os.sendfile``, in the kernel, so no part's text passes through Python.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import signal
import tempfile
import warnings
from collections.abc import Callable, Iterable, Iterator
from typing import NoReturn

import numpy as np

from .tools import Gaussian, GaussianMixture

__all__ = [
    "read_matrix",
    "read_vector",
    "read_gmm",
    "write_text_atomic",
    "write_json_atomic",
    "write_matrix_atomic",
    "write_rows_atomic",
]

_CSV = {"delimiter": ",", "comments": "#", "ndmin": 2}
# np.loadtxt's warning for a text without data rows, which callers report.
_NO_DATA = "loadtxt: input contained no data"
# A CSV is split into one part per usable core, each at least this many bytes.
_MIN_SPLIT_BYTES = 1 << 20
# Longest "%.17g," entry ("-1.7976931348623157e+308,"): sizes a matrix's text.
_ENTRY_BYTES = 25
# Bytes per read when counting lines, and per os.sendfile call appending a
# part's file to the output.
_CHUNK_BYTES = 1 << 20
# Bytes of text per call of the numpy parser: its arrays stay in cache.
_PARSE_BYTES = 1 << 17


def _parts(size: int) -> int:
    """Parts for ``size`` bytes: one per usable core, each at least
    ``_MIN_SPLIT_BYTES``; one where ``fork`` or core affinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // _MIN_SPLIT_BYTES))


def _run_child(mask, work: Callable, k: int, file) -> NoReturn:
    """A forked child's whole run: ``work(k, file)`` with the signal mask
    restored, then ``os._exit``, 0 when it returned and 1 when it raised."""
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        work(k, file)
        file.flush()
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _forked(parts: int, work: Callable, **spool) -> Iterator[Callable]:
    """Runs ``work(k, file)`` for k = 1 .. parts - 1, each in a forked child
    writing to its own unnamed temp file, ``tempfile.TemporaryFile(**spool)``;
    the caller handles part 0. A child exits 0 when ``work`` returns and 1
    when it raises, and never returns into the caller. Yields ``collect(k)``:
    child k's file, rewound, once the child has exited 0, else
    ``ChildProcessError``. On leaving, whatever raised, children not yet
    collected are killed, and every child is reaped.
    """
    with contextlib.ExitStack() as files_stack:
        files = [None] + [files_stack.enter_context(tempfile.TemporaryFile(**spool)) for _ in range(1, parts)]
        pids = {}

        def collect(k: int):
            _, status = os.waitpid(pids[k], 0)
            del pids[k]
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(f"CSV worker {k} of {parts} exited with status {code}")
            files[k].seek(0)
            return files[k]

        try:
            if parts > 1:
                # SIGINT waits until every pid is recorded, and in a child
                # until it is inside _run_child's try.
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    for k in range(1, parts):
                        with warnings.catch_warnings():
                            # Python 3.12+ warns on fork with other threads
                            # (OpenBLAS keeps some). A child runs the parser,
                            # or a row source and the row formatter: no
                            # logging or stdio, so it needs no lock another
                            # thread holds. A point cloud's rows are BLAS
                            # products, and OpenBLAS stops its threads before
                            # a fork (pthread_atfork) and starts them again
                            # on its next call.
                            warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
                            pid = os.fork()
                        if pid == 0:
                            _run_child(mask, work, k, files[k])
                        pids[k] = pid
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            yield collect
        finally:
            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
            for pid in pids.values():
                os.waitpid(pid, 0)


def _cuts(path: str) -> list[int]:
    """Byte offsets splitting ``path`` into parts of whole lines, 0 and the
    size included: each cut is the first line break after an equal share."""
    size = os.path.getsize(path)
    parts = _parts(size)
    cuts = [0]
    with open(path, "rb") as raw:
        for k in range(1, parts):
            raw.seek(k * size // parts)
            while (line := raw.readline(_CHUNK_BYTES)) and not line.endswith(b"\n"):
                pass
            cuts.append(raw.tell())
    return sorted(set(cuts + [size]))


def _data_lines(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` without the whitespace-only ones, which np.loadtxt would
    read as rows."""
    return (line for line in lines if not line.isspace())


def _count_lines(raw, start: int, stop: int) -> int:
    """The lines in bytes [start, stop) of the open file ``raw``, a last
    one without "\\n" included."""
    raw.seek(start)
    lines, last = 0, b"\n"
    for offset in range(start, stop, _CHUNK_BYTES):
        chunk = raw.read(min(_CHUNK_BYTES, stop - offset))
        lines += chunk.count(b"\n")
        last = chunk[-1:] or last
    return lines + (last != b"\n")


def _parse_chunks(raw, start: int, stop: int, lines: int) -> np.ndarray | None:
    """The rows in bytes [start, stop) of the open file ``raw``, at most
    ``lines`` of them, from ``_csvtext.parse_rows``: a chunk of whole lines
    at a time, each chunk's rows written into one array allocated up front.
    None when the parser declines a chunk, or the range holds no rows or
    rows of two lengths."""
    # Imported on first use, like the row formatter.
    from . import _csvtext

    raw.seek(start)
    data, filled, held, offset = None, 0, b"", start
    while offset < stop:
        size = min(_PARSE_BYTES, stop - offset)
        chunk = held + raw.read(size)
        if len(chunk) < len(held) + size:
            return None
        offset += size
        cut = len(chunk) if offset >= stop else chunk.rfind(b"\n") + 1
        held = chunk[cut:]
        if not cut:
            # A line longer than a chunk waits for the next read; one longer
            # than _CHUNK_BYTES is left to np.loadtxt.
            if len(held) > _CHUNK_BYTES:
                return None
            continue
        rows = _csvtext.parse_rows(memoryview(chunk)[:cut])
        if rows is None:
            return None
        if not rows.size:
            continue
        if data is None:
            # A row of n fields takes 2n bytes, the last one 2n - 1.
            data = np.empty((min(lines, (stop - start + 1) // (2 * rows.shape[1])), rows.shape[1]))
        if rows.shape[1] != data.shape[1]:
            return None
        data[filled : filled + len(rows)] = rows
        filled += len(rows)
    return None if data is None else data[:filled]


def _parse_range(path: str, start: int, stop: int) -> np.ndarray:
    """The rows in bytes [start, stop) of ``path``, a run of whole lines:
    from ``_parse_chunks``, or where it declines, from np.loadtxt. Lines
    split at "\\n" only; np.loadtxt refuses the "\\r" of any other line
    break, so such a part fails rather than moving a row."""
    with open(path, "rb") as raw:
        lines = _count_lines(raw, start, stop)
        data = _parse_chunks(raw, start, stop, lines)
        if data is not None:
            return data
        raw.seek(start)
        with io.TextIOWrapper(raw, newline="\n") as text, warnings.catch_warnings():
            # A part without data rows is the caller's to handle, unwarned.
            warnings.filterwarnings("ignore", _NO_DATA, UserWarning)
            return np.loadtxt(_data_lines(itertools.islice(text, lines)), **_CSV)


def _read_parts(path: str) -> np.ndarray | None:
    """The matrix in ``path`` parsed in parts (``_cuts``) on forked children,
    or None for a file of one part, or when a part fails to parse, has no
    data rows or another column count, or its child fails."""

    def parse(k, file):
        rows = _parse_range(path, cuts[k], cuts[k + 1])
        file.write(np.array(rows.shape, dtype=np.int64).tobytes())
        file.write(rows)

    try:
        cuts = _cuts(path)
        if len(cuts) < 3:
            return None
        with _forked(len(cuts) - 1, parse) as collect:
            first = _parse_range(path, cuts[0], cuts[1])
            if not first.size:
                return None
            files = [collect(k) for k in range(1, len(cuts) - 1)]
            shapes = [tuple(np.frombuffer(file.read(16), dtype=np.int64)) for file in files]
            if any(rows < 1 or cols != first.shape[1] for rows, cols in shapes):
                return None
            data = np.empty((len(first) + sum(rows for rows, _ in shapes), first.shape[1]))
            data[: len(first)] = first
            stop = len(first)
            for file, (rows, _) in zip(files, shapes):
                block = data[stop : stop + rows]
                if file.readinto(block) != block.nbytes:
                    return None
                stop += rows
            return data
    except (OSError, ValueError):
        return None


def _read_whole(path: str) -> np.ndarray | None:
    """The matrix in ``path`` from ``_parse_chunks`` in this process, or None
    where it declines or the file cannot be opened. A compressed file
    declines: its header bytes are outside the parser's grammar."""
    try:
        with open(path, "rb") as raw:
            size = os.fstat(raw.fileno()).st_size
            return _parse_chunks(raw, 0, size, _count_lines(raw, 0, size))
    except OSError:
        return None


def read_matrix(path: str) -> np.ndarray:
    """Reads a 2-D array; single-column files come back as (n, 1)."""
    try:
        data = _read_parts(path)
        if data is None:
            data = _read_whole(path)
        if data is None:
            # Opened as np.loadtxt opens a path, decompressing by the name.
            with np.lib.npyio.DataSource(os.curdir).open(path, "rt") as text, warnings.catch_warnings():
                warnings.filterwarnings("ignore", _NO_DATA, UserWarning)
                data = np.loadtxt(_data_lines(text), **_CSV)
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


def _create_temp(directory: str) -> tuple[int, str]:
    """A new file ".tmp-<random hex>" in ``directory``, opened for writing,
    with the mode ``open`` gives a new file: 0o666 less the umask."""
    while True:
        path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        try:
            return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), path
        except FileExistsError:
            continue


def _write_atomic(path: str, write: Callable) -> None:
    """``write(handle)`` on a new binary temp file beside ``path``, then
    renamed to ``path``; the temp file is removed if anything raises."""
    fd, tmp_path = _create_temp(os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def write_text_atomic(path: str, text: str) -> None:
    _write_atomic(path, lambda handle: handle.write(text.encode()))


def write_json_atomic(path: str, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")


def _format_rows(rows: np.ndarray) -> Iterator[bytes]:
    """The CSV text of ``rows``, "%.17g" of every entry, yielded as bytes a
    block of entries at a time: 17 significant digits, which read back
    bitwise for every float64."""
    # Imported on first use: importing otkit, and a run that writes no
    # matrix, then skip compiling and loading it, some 5 ms where no
    # bytecode is cached.
    from . import _csvtext

    return _csvtext.format_rows(rows)


def _append(handle, part) -> None:
    """Appends the file ``part`` to the binary file ``handle`` with
    ``os.sendfile``, which copies its bytes in the kernel."""
    handle.flush()
    offset = 0
    while sent := os.sendfile(handle.fileno(), part.fileno(), offset, _CHUNK_BYTES):
        offset += sent


def write_rows_atomic(path: str, shape: tuple[int, int], source: Callable[[int, int], Iterable[np.ndarray]]) -> None:
    """Writes the CSV text of an n x m matrix, ``shape``, from a row source:
    ``source(start, stop)`` yields its rows [start, stop) in order, a block
    of rows at a time, so the matrix need never exist whole.

    The rows are split into one range per part (``_parts``); this process
    writes the first range into the temp file and forked children the
    others, each into its own file of bytes, which is then appended to the
    temp file in row order."""
    n, m = shape
    bounds = np.linspace(0, n, _parts(n * m * _ENTRY_BYTES) + 1).astype(int)

    def write_range(k, file):
        for rows in source(bounds[k], bounds[k + 1]):
            file.writelines(_format_rows(rows))

    def write(handle):
        with _forked(len(bounds) - 1, write_range, dir=os.path.dirname(os.path.abspath(path))) as collect:
            write_range(0, handle)
            for k in range(1, len(bounds) - 1):
                _append(handle, collect(k))

    _write_atomic(path, write)


def write_matrix_atomic(path: str, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    write_rows_atomic(path, matrix.shape, lambda start, stop: [matrix[start:stop]])

"""Python's "%.17g" text of float64 matrices, made in numpy a block at a time.

"%.17g" of a float64 x ("%g" at precision 17) is its 17 significant digits
q 10^(X - 16), 10^16 <= q < 10^17, correctly rounded, printed with the
point after the leading digit and an exponent "e-05" or "e+123" when the
exponent X is below -4 or above 16, else without one ("0.00123", "12.5"),
trailing zeros and a bare point dropped. Blocks of entries are formatted
at once in numpy: q from a double-double product of x and 10^(16 - X),
each entry's text in a slot of four little-endian uint64 words (bytes in
text order on every platform), and the slots' text bytes kept by one
mask.

The decimals are exact fixed-precision conversion in the manner of Adams,
"Ryu revisited: printf floating point conversion" (OOPSLA 2019), with a
double-double product (Dekker 1971) in place of big integers; a product
too near a rounding tie is left to Python's "%.16e". The output is
byte-identical to Python's "%.17g" for every float64.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

# Entries per formatted block: its arrays stay in cache.
_BLOCK_ENTRIES = 8192
# A product within this of a rounding tie is left to Python's "%.16e".
_TIE_BAND = 1e-6
# Decimal exponents X of float64 values, and the scales k = 16 - X, with
# guesses of X one off either way.
_EXPONENTS = range(-324, 309)
_SCALES = range(16 - _EXPONENTS[-1] - 1, 16 - _EXPONENTS[0] + 2)
# Forms: X + 4 for X in -4 .. 16, printed without an exponent, then
# exponents of two digits and of three.
_EXP2, _EXP3 = 21, 22
_FORMS = 23
# Slot bytes: the sign and "0.000..." head right-aligned before byte 6; the
# digits, with the point after the digit ``point`` (bytes 6 .. 23); the
# exponent and separator (word 3).
_DIGITS_AT = 6
_VELTKAMP = 134217729.0  # 2^27 + 1: splits a float64 in two 26-bit halves.


class _Tables(NamedTuple):
    """Lookup tables of the block formatter, built on its first use."""

    # Over _SCALES: 10^k = (hi + lo) 2^shift, hi in [1, 2) with 26-bit halves.
    scales: tuple[np.ndarray, ...]
    # The four ASCII digits of 0 .. 9999, in the low bytes of a uint64.
    ascii4: np.ndarray
    # For each 4-digit group of q after its leading digit: the digits of q
    # up to the group's last non-zero one, 0 for 0000.
    last: tuple[np.ndarray, ...]
    # Over _EXPONENTS: the form, and word 3 ("e-05," or ",") with its flip
    # of "," to "\n" at a row's end.
    form: np.ndarray
    tail: np.ndarray
    newline: np.ndarray
    # Over (negative, form): word 0's head, and over forms, the point.
    head: np.ndarray
    point: np.ndarray
    # Per digit word 0 .. 2, over the point: the bytes taken from the
    # digits, from the digits one byte later, and the point itself.
    masks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    # Over (negative, form, significant digits): the slot bytes kept.
    keep: np.ndarray


@functools.cache
def _tables() -> _Tables:
    tops, rests, shifts = [], [], []
    for k in _SCALES:
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        shift = num.bit_length() - den.bit_length()
        if num << max(-shift, 0) < den << max(shift, 0):
            shift -= 1
        # floor(10^k 2^(116 - shift)), in [2^116, 2^117).
        scaled = (num << (116 - shift)) // den if shift <= 116 else (num >> (shift - 116)) // den
        tops.append(scaled >> 64)
        rests.append(scaled & (1 << 64) - 1)
        shifts.append(shift)
    hi = np.array(tops, dtype=float) * 2.0**-52
    lo = np.array([float(rest) for rest in rests]) * 2.0**-116
    split = hi * _VELTKAMP
    hi_head = split - (split - hi)
    scales = (hi, lo, hi_head, hi - hi_head, np.array(shifts, dtype=np.int32))

    g = np.arange(10000)
    ascii4 = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8) + ord("0")
    zeros = sum((g % p == 0).astype(np.int8) for p in (10, 100, 1000))
    last = tuple(np.where(g > 0, first + 4 - zeros, 0).astype(np.int8) for first in (1, 5, 9, 13))

    x = np.arange(_EXPONENTS[0], _EXPONENTS[-1] + 1)
    fixed, two = (x >= -4) & (x <= 16), abs(x) < 100
    form = np.where(fixed, x + 4, np.where(two, _EXP2, _EXP3))
    tail = np.zeros((len(x), 8), dtype=np.uint8)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    tail[:, 2:5] = np.stack([abs(x) // 100, abs(x) // 10 % 10, abs(x) % 10], axis=1) + ord("0")
    tail[two, 2:5] = tail[two, 3:6]
    separator = np.where(fixed, 0, np.where(two, 4, 5))
    tail[np.arange(len(x)), separator] = ord(",")
    newline = np.zeros_like(tail)
    newline[np.arange(len(x)), separator] = ord(",") ^ ord("\n")

    c = np.arange(_FORMS)
    point = np.where(c < 4, 16, np.where(c < _EXP2, c - 4, 0))
    heads = [b"-" * neg + (b"0." + b"0" * (3 - f) if f < 4 else b"") for neg in (0, 1) for f in c]
    head = np.array([int.from_bytes(h, "little") << 8 * (_DIGITS_AT - len(h)) for h in heads], dtype=np.uint64)
    at = np.arange(24) - _DIGITS_AT
    p = np.arange(18)[:, None]
    before = np.where(at <= p, 0xFF, 0).astype(np.uint8)
    after = np.where(at > p + 1, 0xFF, 0).astype(np.uint8)
    dot = np.where(at == p + 1, ord("."), 0).astype(np.uint8)
    words = [m.view("<u8") for m in (before, after, dot)]
    masks = tuple(tuple(m[:, w].copy() for m in words) for w in range(3))

    neg, c, sig = np.unravel_index(np.arange(2 * _FORMS * 18), (2, _FORMS, 18))
    digits = np.maximum(sig, np.where(c < 4, 1, point[c] + 1))
    shown = digits + (digits > point[c] + 1)
    head_bytes = neg + np.where(c < 4, 5 - c, 0)
    tail_bytes = np.where(c < _EXP2, 1, np.where(c == _EXP2, 5, 6))
    at = np.arange(32)[None, :] - _DIGITS_AT
    keep = ((-head_bytes[:, None] <= at) & (at < shown[:, None])) | ((18 <= at) & (at < 18 + tail_bytes[:, None]))
    return _Tables(scales, ascii4.view("<u4").ravel().astype(np.uint64), last, form,
                   tail.view("<u8").ravel(), newline.view("<u8").ravel(), head, point, masks, keep)


def _decimal(ax: np.ndarray, exponent: np.ndarray, scales) -> tuple[np.ndarray, np.ndarray]:
    """``(q, undecided)``: q = round(ax 10^(16 - exponent)) in int64, from a
    double-double product (Dekker), and whether it lay too near a tie."""
    index = 16 - _SCALES[0] - exponent
    hi, lo, hi_head, hi_tail, shift = (table.take(index) for table in scales)
    m, e = np.frexp(ax)
    split = m * _VELTKAMP
    m_head = split - (split - m)
    m_tail = m - m_head
    # m (hi + lo) = p + err, exact but for the roundings of m lo and err.
    p = m * hi
    err = m_head * hi_head - p
    err += m_head * hi_tail
    err += m_tail * hi_head
    err += m_tail * hi_tail
    err += m * lo
    e += shift
    # p 2^e is an integer: above 2^53 when the exponent is right.
    err = np.ldexp(err, e)
    below = np.floor(err)
    err -= below
    q = np.ldexp(p, e).astype(np.int64)
    q += below.astype(np.int64)
    q += err > 0.5
    err -= 0.5
    return q, np.abs(err, out=err) < _TIE_BAND


def _format_block(x: np.ndarray, start: int, cols: int, slots: np.ndarray) -> bytes:
    """The text of ``x``, entries ``start`` on of rows of ``cols`` entries
    laid end to end: "%.17g" of each, then "," or, at a row's end, "\\n".
    ``slots`` is a scratch uint64 array of ``len(x)`` x 4 or more."""
    t = _tables()
    n = len(x)
    ax = np.abs(x)
    finite = ax < np.inf
    regular = finite & (ax > 0)
    np.copyto(ax, 1.0, where=~regular)
    exponent = np.log10(ax)
    exponent = np.floor(exponent, out=exponent).astype(np.intp)
    q, undecided = _decimal(ax, exponent, t.scales)
    # log10 may miss the exponent by one next to a power of ten: try its
    # neighbour. The exponent is one less when q there has 17 digits.
    missed = np.flatnonzero((q <= 10**16) | (q >= 10**17))
    if missed.size:
        up = q[missed] >= 10**17
        other = exponent[missed] + np.where(up, 1, -1)
        q_other, undecided_other = _decimal(ax[missed], other, t.scales)
        better = up | (q_other < 10**17)
        q[missed[better]], exponent[missed[better]] = q_other[better], other[better]
        undecided[missed] |= undecided_other
    for i in np.flatnonzero(undecided & regular):
        digits, power = ("%.16e" % ax[i]).split("e")
        q[i], exponent[i] = int(digits.replace(".", "")), int(power)
    negative = np.signbit(x)
    texts = {}
    if not regular.all():
        q[~regular] = 0
        exponent[~regular] = 0
        # "inf" and "nan" take the digit places of a three-digit integer.
        exponent[~finite] = 2
        texts = {i: b"%.17g" % x[i] for i in np.flatnonzero(~finite)}
        for i, text in texts.items():
            negative[i] = text.startswith(b"-")

    top = q // 10**8
    bottom = q - top * 10**8
    lead = top // 10**8
    top -= lead * 10**8
    groups = (top // 10**4, bottom // 10**4)
    groups = (groups[0], top - groups[0] * 10**4, groups[1], bottom - groups[1] * 10**4)
    l1, l2, l3, l4 = (last.take(g) for last, g in zip(t.last, groups))
    sig = np.maximum(np.maximum(l1, l2), np.maximum(l3, l4))
    g1, g2, g3, g4 = (t.ascii4.take(g) for g in groups)
    index = exponent - _EXPONENTS[0]
    form = t.form.take(index)
    head_index = negative * _FORMS + form
    # The digits from slot byte 6 on (a), and from byte 7 on (b).
    lead += ord("0")
    a0 = (lead.view(np.uint64) << np.uint64(48)) | (g1 << np.uint64(56)) | t.head.take(head_index)
    a1 = (g1 >> np.uint64(8)) | (g2 << np.uint64(24)) | (g3 << np.uint64(56))
    a2 = (g3 >> np.uint64(8)) | (g4 << np.uint64(24))
    b0 = a0 << np.uint64(8)
    b1 = (a1 << np.uint64(8)) | (a0 >> np.uint64(56))
    b2 = (a2 << np.uint64(8)) | (a1 >> np.uint64(56))
    point = t.point.take(form)
    if point.min() == point.max():
        point = point[0]
    words = slots[:n]
    for w, (a, b, (before, after, dot)) in enumerate(zip((a0, a1, a2), (b0, b1, b2), t.masks)):
        np.bitwise_and(a, before[point], out=words[:, w])
        words[:, w] |= b & after[point]
        words[:, w] |= dot[point]
    words[:, 3] = t.tail.take(index)
    ends = slice((cols - 1 - start) % cols, None, cols)
    words[ends, 3] ^= t.newline.take(index[ends])
    text_bytes = words.view(np.uint8)
    for i, text in texts.items():
        text_bytes[i, _DIGITS_AT : _DIGITS_AT + 3] = np.frombuffer(text[-3:], dtype=np.uint8)
    return text_bytes[t.keep.take(head_index * 18 + sig, axis=0)].tobytes()


def format_rows(rows: np.ndarray) -> Iterator[str]:
    """The CSV text of the 2-D float64 array ``rows``, "%.17g" of every
    entry, yielded a block of at most ``_BLOCK_ENTRIES`` entries at a time."""
    cols = rows.shape[1]
    if not cols:
        yield "\n" * len(rows)
        return
    slots = np.empty((min(_BLOCK_ENTRIES, rows.size), 4), dtype="<u8")
    step = max(1, _BLOCK_ENTRIES // cols)
    for i in range(0, len(rows), step):
        flat = rows[i : i + step].ravel()
        for start in range(0, flat.size, _BLOCK_ENTRIES):
            yield _format_block(flat[start : start + _BLOCK_ENTRIES], start, cols, slots).decode("ascii")

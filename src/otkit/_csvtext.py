"""Python's "%.17g" text of float64 matrices, made in numpy a block at a
time, and CSV text read back into float64 rows in numpy, a chunk at a time.

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

``parse_rows`` is its inverse, for the text otkit and np.savetxt write.
Reading a decimal the way Clinger ("How to Read Floating Point Numbers
Accurately", PLDI 1990) and Lemire ("Number Parsing at a Gigabyte per
Second", SPE 2021) do, each field is an exact integer mantissa M and one
correctly rounded scaling by 10^E. The bytes that are not digits are found
in one pass, and each field's separator, point and exponent mark from
them; a mantissa's digits are read as three little-endian uint64 words
with the point squeezed out, and SWAR arithmetic turns eight digits into
one integer per word; round(M 10^E) comes from a double-double product
with the formatter's powers of ten. A product too near a rounding tie, a
result outside the normal range and a mantissa of over 19 significant
digits are left to Python's ``float``, correctly rounded like np.loadtxt,
so the arrays are bitwise np.loadtxt's. Any other text declines.
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
# Decimal exponents X of float64 values. The scales 10^k: k = 16 - X for
# the formatter, with guesses of X one off either way, and down to -307 for
# the parser (_READ_POWERS).
_EXPONENTS = range(-324, 309)
_SCALES = range(-307, 16 - _EXPONENTS[0] + 2)
# Forms: X + 4 for X in -4 .. 16, printed without an exponent, then
# exponents of two digits and of three.
_EXP2, _EXP3 = 21, 22
_FORMS = 23
# Slot bytes: the sign and "0.000..." head right-aligned before byte 6; the
# digits, with the point after the digit ``point`` (bytes 6 .. 23); the
# exponent and separator (word 3).
_DIGITS_AT = 6
_VELTKAMP = 134217729.0  # 2^27 + 1: splits a float64 in two 26-bit halves.


@functools.cache
def _scales() -> tuple[np.ndarray, ...]:
    """Over _SCALES: ``(hi, lo, hi_head, hi_tail, shift)``, 10^k = (hi + lo)
    2^shift to 106 bits, hi in [1, 2) with 26-bit halves hi_head + hi_tail.
    Built on first use; shared by the formatter and the parser."""
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
    return hi, lo, hi_head, hi - hi_head, np.array(shifts, dtype=np.int32)


class _Tables(NamedTuple):
    """Lookup tables of the block formatter, built on its first use."""

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
    return _Tables(ascii4.view("<u4").ravel().astype(np.uint64), last, form,
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
    q, undecided = _decimal(ax, exponent, _scales())
    # log10 may miss the exponent by one next to a power of ten: try its
    # neighbour. The exponent is one less when q there has 17 digits.
    missed = np.flatnonzero((q <= 10**16) | (q >= 10**17))
    if missed.size:
        up = q[missed] >= 10**17
        other = exponent[missed] + np.where(up, 1, -1)
        q_other, undecided_other = _decimal(ax[missed], other, _scales())
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


def format_rows(rows: np.ndarray) -> Iterator[bytes]:
    """The CSV text of the 2-D float64 array ``rows``, "%.17g" of every
    entry, yielded as ASCII bytes a block of at most ``_BLOCK_ENTRIES``
    entries at a time."""
    cols = rows.shape[1]
    if not cols:
        yield b"\n" * len(rows)
        return
    slots = np.empty((min(_BLOCK_ENTRIES, rows.size), 4), dtype="<u8")
    step = max(1, _BLOCK_ENTRIES // cols)
    for i in range(0, len(rows), step):
        flat = rows[i : i + step].ravel()
        for start in range(0, flat.size, _BLOCK_ENTRIES):
            yield _format_block(flat[start : start + _BLOCK_ENTRIES], start, cols, slots)


# ---- reading ----

# Parser buffer bytes before and after the text: room for the 24-byte
# mantissa window ending at the first entry and the exponent word at the last.
_PAD = 32
# Tokens: the bytes that are not digits, in the order a field may hold them:
# separator, mantissa sign, point, exponent mark, exponent sign; then any
# other byte, and a sign not yet told apart.
_SEP, _MINUS, _POINT, _EXP, _EXP_SIGN, _OTHER, _SIGN = range(7)
# The four aligned words holding a 24-byte window, from the one it starts in.
_WINDOW_WORDS = np.arange(4)[:, None]
_MOST_SIGNIFICANT = 900  # Mantissas from 900 10^16 up (over 19 digits) go to ``float``.
# Powers 10^E of the parser's product: a mantissa M in [1, 9 10^18) times
# one is normal and finite. Others, and _FAR, are left to ``float``.
_READ_POWERS = range(-307, 290)
_FAR = 1 << 40


class _ReadTables(NamedTuple):
    """Lookup tables of the parser, built on its first use."""

    # Over bytes: the token.
    token: np.ndarray
    # Over the last three tokens before a separator, L1 * 25 + L2 * 5 + L3:
    # how many tokens back the exponent mark is, and the point (rows 0 and
    # 1); the separator itself (0) for none.
    back: np.ndarray
    # Over k * 25 + j, k = 0 .. 25, j = 0 .. 24: the masks of a 24-byte
    # window's three words, and of the words shifted up a byte, that keep
    # the digit values (low four bits) of its bytes j on, those from k on
    # unshifted (k = 25: all of them).
    masks: np.ndarray
    # Over _READ_POWERS, with NaN on either side: the rows of ``_scales()``,
    # the shift as the factor 2^shift.
    scales: np.ndarray


@functools.cache
def _read_tables() -> _ReadTables:
    token = np.full(256, _OTHER, dtype=np.uint8)
    token[[ord(","), ord("\n")]] = _SEP
    token[[ord("-"), ord("+")]] = _SIGN
    token[ord(".")] = _POINT
    token[[ord("e"), ord("E")]] = _EXP
    token[np.arange(ord("0"), ord("9") + 1)] = _OTHER

    back = np.zeros((2, 125), dtype=np.intp)
    for code in range(125):
        last = (code // 25, code // 5 % 5, code % 5)
        field = last[: last.index(_SEP)] if _SEP in last else last
        back[0, code] = field.index(_EXP) + 1 if _EXP in field else 0
        back[1, code] = field.index(_POINT) + 1 if _POINT in field else back[0, code]

    at = np.arange(24)
    from_byte = at >= np.arange(26)[:, None]
    from_byte[25] = True
    keep = from_byte[None, :25]
    masks = np.stack([from_byte[:, None] & keep, ~from_byte[:, None] & keep]).reshape(2, -1, 24)
    masks = np.where(masks, 0x0F, 0).astype(np.uint8).view("<u8").transpose(0, 2, 1).copy()
    start = _READ_POWERS[0] - _SCALES[0]
    *hi_lo, shift = (table[start : start + len(_READ_POWERS)] for table in _scales())
    scales = np.pad(np.array([*hi_lo, np.ldexp(1.0, shift)]), ((0, 0), (1, 1)), constant_values=np.nan)
    return _ReadTables(token, back, masks, scales)


def _swar(words: np.ndarray) -> np.ndarray:
    """The 8-digit values of ``words``, each eight digit values 0 .. 9 in
    bytes, the most significant first: SWAR (SIMD within a register)
    arithmetic on pairs, then quads, then the whole. Done in place."""
    for scale, bits, mask in ((2561, 8, 0x00FF00FF00FF00FF), (6553601, 16, 0x0000FFFF0000FFFF)):
        words *= np.uint64(scale)
        words >>= np.uint64(bits)
        words &= np.uint64(mask)
    words *= np.uint64(42949672960001)
    words >>= np.uint64(32)
    return words


def _words(buf: np.ndarray) -> np.ndarray:
    """The little-endian uint64 word at each byte offset of ``buf``."""
    return np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _tokens(text: np.ndarray, t: _ReadTables) -> tuple[np.ndarray, np.ndarray] | None:
    """``(at, tok)``: the offsets in ``text`` of its bytes that are not
    digits, and their tokens; None when a field's tokens are out of order."""
    digit = np.subtract(text, ord("0"))
    at = np.flatnonzero(np.greater_equal(digit, 10, out=digit.view(bool)))
    del digit
    chars = text.take(at)
    tok = t.token.take(chars)
    signs = np.flatnonzero(tok == _SIGN)
    if signs.size:
        # A sign right after a separator starts a mantissa: "-" only; one
        # right after an exponent mark starts the exponent.
        before = tok.take(signs - 1)
        adjacent = at.take(signs) - at.take(signs - 1) == 1
        tok[signs] = np.where(
            adjacent & (before == _SEP) & (chars.take(signs) == ord("-")),
            _MINUS,
            np.where(adjacent & (before == _EXP), _EXP_SIGN, _OTHER),
        )
    # Each field's tokens come in rank order, each at most once.
    if tok.max() >= _OTHER or not (np.subtract(tok[1:], 1) >= tok[:-1]).all():
        return None
    return at, tok


def _fields(buf: np.ndarray, n: int, t: _ReadTables) -> tuple[np.ndarray, np.ndarray, np.ndarray, int] | None:
    """``(seps, mark, point, cols)`` of the text in ``buf[_PAD : _PAD + n]``:
    the offsets in ``buf`` of the separators, the first one just before the
    text, and of each field's exponent mark and point, at its end where it
    has none, and the fields per row; None for rows of two lengths or tokens
    out of order."""
    # Digits, then three separators before the text: every field has three
    # tokens before its end.
    buf[: _PAD - 3] = ord("0")
    buf[_PAD - 3 : _PAD] = ord("\n")
    tokens = _tokens(buf[: _PAD + n], t)
    if tokens is None:
        return None
    at, tok = tokens
    index = np.flatnonzero(tok == _SEP)[2:]
    seps = at.take(index)
    if len(seps) == 1:
        return seps, seps[1:], seps[1:], 0
    newline = buf.take(seps[1:]) == ord("\n")
    cols = int(newline.argmax()) + 1
    rows = len(newline) // cols
    if rows * cols != len(newline) or np.count_nonzero(newline) != rows or not newline[cols - 1 :: cols].all():
        return None
    # The mark and point, from each field's last three tokens.
    last3 = tok[2:] * np.uint8(25)
    last3 += tok[1:-1] * np.uint8(5)
    last3 += tok[:-2]
    mark, point = at.take(index[1:] - np.take(t.back, last3.take(index[1:] - 3), axis=1))
    return seps, mark, point, cols


def _mantissas(buf: np.ndarray, t: _ReadTables, first: np.ndarray, point: np.ndarray, mark: np.ndarray):
    """``(mantissa, power)``: the integer M of each mantissa's digits, from
    ``first`` (overwritten) to ``mark`` in ``buf`` with any point at
    ``point``, and the power of ten that scales it; _FAR where the mantissa
    is over 24 bytes or 19 significant digits, and M is wrong. None when a
    mantissa has no digits. Its 24 bytes up to ``mark`` are read as three
    words, each from two aligned ones; the bytes before the point move up
    one, over it."""
    window = mark - 24
    has_point = point < mark
    first -= window
    wide = first < 0
    first += has_point
    if first.max() >= 24:
        return None
    np.maximum(first, 0, out=first)
    select = point - mark
    power = select + has_point
    select += 25
    select *= 25
    select += first
    aligned = buf.view("<u8").take((window >> 3) + _WINDOW_WORDS)
    window &= 7
    window <<= 3
    shift = window.view(np.uint64)
    words = aligned[:3] >> shift
    aligned[1:] <<= np.uint64(64) - shift
    words |= aligned[1:]
    del aligned, window, shift
    shifted = words << np.uint64(8)
    shifted[1:] |= words[:-1] >> np.uint64(56)
    # A point before the window (a wide mantissa) clips to a mask.
    words &= t.masks[0].take(select, axis=1, mode="clip")
    shifted &= t.masks[1].take(select, axis=1, mode="clip")
    words |= shifted
    del shifted
    digits = _swar(words)
    big = digits[0] >= _MOST_SIGNIFICANT
    digits[0, big] = 0
    wide |= big
    mantissa = digits[0] * np.uint64(10**16)
    mantissa += digits[1] * np.uint64(10**8)
    mantissa += digits[2]
    power[wide] = _FAR
    return mantissa, power


def _exponents(buf: np.ndarray, mark: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The exponent after each ``mark`` in ``buf``, up to ``ends``: _FAR for
    one of over 8 digits; None when one has no digits."""
    at = mark + 1
    sign = buf.take(at)
    at += (sign == ord("-")) | (sign == ord("+"))
    count = ends - at
    if not (count >= 1).all():
        return None
    exponent = _words(buf)[at]
    exponent &= np.uint64(0x0F0F0F0F0F0F0F0F)
    exponent <<= (np.uint64(8) - np.minimum(count, 8).astype(np.uint64)) << np.uint64(3)
    exponent = _swar(exponent).view(np.int64)
    np.negative(exponent, out=exponent, where=sign == ord("-"))
    exponent[count > 8] = _FAR
    return exponent


def _round(mantissa: np.ndarray, power: np.ndarray, scales) -> tuple[np.ndarray, np.ndarray]:
    """``(value, undecided)``: round(mantissa 10^power), and where that is
    left to ``float``: a power outside _READ_POWERS, which reads NaN, or a
    product too near a rounding tie. The product is the double-double
    m (hi + lo) + m_rest hi = p + err, exact but for the roundings of the
    two last products and of err, far below _TIE_BAND."""
    power -= _READ_POWERS[0] - 1
    hi, lo, hi_head, hi_tail = np.take(scales[:4], power, axis=1, mode="clip")
    m = mantissa.astype(float)
    rest = (mantissa - m.astype(np.uint64)).view(np.int64).astype(float)
    rest *= hi
    lo *= m
    rest += lo
    del lo
    m_head = m * _VELTKAMP
    m_head -= m_head - m
    m_tail = m - m_head
    p = m * hi
    del m, hi
    err = m_head * hi_head
    err -= p
    m_head *= hi_tail
    err += m_head
    hi_head *= m_tail
    err += hi_head
    m_tail *= hi_tail
    err += m_tail
    err += rest
    del m_head, m_tail, hi_head, hi_tail, rest
    # Rounding is monotonic: where p + err, moved either way by the band,
    # rounds to one value, so does the exact product.
    band = p * (_TIE_BAND * 2.0**-52)
    value = err + band
    value += p
    err -= band
    err += p
    undecided = value != err
    value *= scales[4].take(power, mode="clip")
    return value, undecided


def _parse(buf: np.ndarray, n: int) -> np.ndarray | None:
    """The rows of the text in ``buf[_PAD : _PAD + n]``, whole lines ending
    in "\\n", in the grammar of ``parse_rows`` without its comment and empty
    lines; None when the text is outside it. ``buf`` has ``_PAD`` free bytes
    before and after the text and a length divisible by 8."""
    t = _read_tables()
    fields = _fields(buf, n, t)
    if fields is None:
        return None
    seps, mark, point, cols = fields
    if not len(mark):
        return np.empty((0, 0))
    # Each field is buf[seps[i] + 1 : seps[i + 1]].
    ends = seps[1:]
    negative = buf[1:].take(seps[:-1]) == ord("-")
    first = seps[:-1] + 1
    first += negative
    mantissas = _mantissas(buf, t, first, point, mark)
    if mantissas is None:
        return None
    mantissa, power = mantissas
    del first
    marked = np.flatnonzero(mark < ends)
    if marked.size:
        exponent = _exponents(buf, mark.take(marked), ends.take(marked))
        if exponent is None:
            return None
        power[marked] += exponent
    del mark, point
    value, undecided = _round(mantissa, power, t.scales)
    np.negative(value, out=value, where=negative)
    for i in np.flatnonzero(undecided):
        value[i] = float(buf[seps[i] + 1 : seps[i + 1]].tobytes())
    return value.reshape(-1, cols)


def parse_rows(data) -> np.ndarray | None:
    """The float64 rows of ``data``, bytes of CSV text in whole lines, as
    ``np.loadtxt(..., delimiter=",", comments="#", ndmin=2)`` reads them,
    bitwise, or None to decline; a text without rows gives a (0, 0) array.

    Read: fields ``[-]digits[.digits][(e|E)[+|-]digits]`` (".5" and "5."
    too) separated by "," in rows ending in "\\n", the last one optional,
    all rows of one length; empty lines, and lines that start with "#" and
    hold only ASCII without "\\r", are skipped. Anything else declines."""
    rows = _parse_text(data)
    if rows is not None:
        return rows
    text = bytes(data)
    if b"#" not in text and b"\n\n" not in text and not text.startswith(b"\n"):
        return None
    lines = text.split(b"\n")
    if any(line.startswith(b"#") and (b"\r" in line or not line.isascii()) for line in lines):
        return None
    return _parse_text(b"\n".join(line for line in lines if line and not line.startswith(b"#")))


def _parse_text(data) -> np.ndarray | None:
    """``_parse`` of the bytes ``data``, copied into a buffer with room."""
    n = len(data)
    buf = np.empty(-(-(n + 1 + 2 * _PAD) // 8) * 8, dtype=np.uint8)
    buf[_PAD : _PAD + n] = np.frombuffer(data, dtype=np.uint8)
    if n and buf[_PAD + n - 1] != ord("\n"):
        buf[_PAD + n] = ord("\n")
        n += 1
    return _parse(buf, n)

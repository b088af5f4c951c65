"""CSV text of whole columns, both ways: written byte for byte as ``repr``
and ``str`` give it, and read back bit for bit as ``float`` reads it.

``write_rows(stream, columns, block_rows)`` writes equal-length columns
as CSV rows: cells joined by commas, every row ended by ``\\r\\n``.  A
float64 array cell reads as ``repr`` of its value, an int64 array cell
as ``str``, and any other column is written with ``str`` per value.

Floats are formatted without a ``repr`` call per value.  The shortest
round-trip digits come from Ryu (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018) run on whole arrays, and are laid out by the
rules of CPython's ``repr``.  The kernel takes the doubles on which
Ryu's common case is exact: normal values below 2**50, other than
powers of two, whose decimal scaling is not a whole number.  Whole
values below 1e16, zeros included, take the integer digit path and gain
".0".  Everything else (subnormals, inf, nan, the dyadic values the
trailing-zero test catches and larger magnitudes) goes to ``repr``
itself, and so does every value on a platform whose
``sys.float_repr_style`` is not "short".

A cell is four 64-bit words of text, little-endian, with NUL in every
unused byte: the separator, sign, a "0.000" prefix and the first digit;
the next 16 digits; then the digit pushed out by the decimal point and
the exponent.  One ``bytes.translate`` drops the NULs of a whole block.

``read_columns(data, start, ncols, cols, block_bytes)`` reads float64
columns from unquoted CSV bytes, a block of lines at a time, with no
call per cell: the bytes that are not digits are found once, each cell's
digits are packed eight to a 64-bit word (SWAR), and Clinger's fast
path or Eisel-Lemire turns digits and exponent into ``float``'s bits.
Both directions share the limb helpers, the power tables and ``_Scratch``.
"""

from __future__ import annotations

import re
import sys

import numpy as np

__all__ = ["Unparsed", "read_columns", "write_rows"]

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_ALL = 0xFFFFFFFFFFFFFFFF
# 10**k for k = 0..19, the largest powers of ten below 2**64
_P10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# cell words, stored little-endian whatever the platform's byte order,
# and the word that ends a row
_TEXT = np.dtype("<u8")
_WORDS = 4
_ROW_END = 0x0A0D  # "\r\n"
# decimal point positions (digits before the point) are looked up at
# position + _DEC_OFF; positions of the fast path lie in [-307, 17]
_DEC_OFF = 320
_DEC_SIZE = 340


def _top_bits(x: int, bits: int) -> int:
    """``x`` shifted so that its highest set bit is bit ``bits - 1``;
    bits shifted out are dropped."""
    shift = x.bit_length() - bits
    return x >> shift if shift >= 0 else x << -shift


def _limbs(values, count: int) -> np.ndarray:
    """Whole numbers as ``count`` rows of 32-bit limbs, least first."""
    return np.array(
        [[(x >> (32 * k)) & 0xFFFFFFFF for x in values] for k in range(count)], dtype=np.uint64
    )


def _ryu_tables():
    """Per biased exponent, Ryu's constants for the e2 < 0 branch.

    With e = 1077 - exponent, q = floor(e log10 5) - 1, i = e - q and
    j = q - bits(5**i) + 125, the table holds P = 5**i at 125 bits as
    32-bit limbs; the shifts k = j - 96, 32 - k and 64 - k; the mask of
    Ryu's trailing-zero test, (1 << q) - 1 (all ones for q >= 63); the
    exponent q - e of Ryu's digits; and 2P / 2**j as whole part and
    64-bit fraction.  The branch with q >= 2 covers the
    biased exponents 1..1072 (2**-1022 <= |x| < 2**50); elsewhere the
    mask is 0, so the test also bounds the range, and the other entries
    copy exponent 1023 so that every lane stays in range.
    """
    iexp = np.arange(2048)
    valid = (iexp >= 1) & (iexp <= 1072)
    e = 1077 - np.where(valid, iexp, 1023)
    q = ((e * 732923) >> 20) - 1
    i = e - q
    j = q - (((i * 1217359) >> 19) + 1) + 125
    limbs = _limbs([_top_bits(5**k, 125) for k in range(i.max() + 1)], 4)[:, i]
    shifts = np.array([j - 96, 128 - j, 160 - j], dtype=np.uint64)
    qmask = np.where(q < 63, (1 << np.minimum(q, 63).astype(np.uint64)) - _U(1), _U(_ALL))
    qmask[~valid] = 0
    # 2P / 2**j = P / 2**(j - 1): limb 3 >> (j - 97), then 64 bits of fraction
    s = (j - 65).astype(np.uint64)
    whole = limbs[3] >> (s - _U(32))
    frac = (limbs[3] << (_U(96) - s)) | (limbs[2] << (_U(64) - s)) | (limbs[1] >> (s - _U(32)))
    return limbs, shifts, qmask, (q - e).astype(np.intp), whole, frac


def _digit_tables():
    """The ASCII of 0000..9999 as little-endian words, and per biased
    float exponent B the digit count d of 2**(B - 1023) with 10**d."""
    digits = np.arange(10000)
    t4 = np.zeros(10000, dtype=np.uint64)
    for k, scale in enumerate((1000, 100, 10, 1)):
        t4 |= ((digits // scale % 10 + 0x30).astype(np.uint64)) << _U(8 * k)
    count = np.ones(2048, dtype=np.int64)
    count[1023:1023 + 64] = [len(str(2**b)) for b in range(64)]
    return t4, count, _P10[np.minimum(count, 19)]


def _layout_tables():
    """Per decimal point position: the prefix word, the exponent word,
    the byte of the point among digits 1..16 and the least digit count.

    With ``d`` digits before the point, ``-4 < d <= 16`` is positional:
    ``d <= 0`` gives "0." and ``-d`` zeros ahead of the digits, ``d >= 1``
    puts the point after digit ``d`` and keeps at least one digit after
    it.  Otherwise the point follows the first digit and "e-XX" (at
    least two exponent digits) ends the cell; only ``d <= -4`` reaches
    here.  Byte 16 means no point.
    """
    prefix = np.zeros(_DEC_SIZE, dtype=np.uint64)
    expo = np.zeros(_DEC_SIZE, dtype=np.uint64)
    point = np.full(_DEC_SIZE, 16, dtype=np.intp)
    least = np.zeros(_DEC_SIZE, dtype=np.intp)
    for d in range(-_DEC_OFF, _DEC_SIZE - _DEC_OFF):
        at = d + _DEC_OFF
        if -4 < d <= 0:
            text = b"0." + b"0" * -d
            prefix[at] = int.from_bytes(text, "little") << 16
        elif 0 < d <= 16:
            point[at] = d - 1
            least[at] = d + 1
        elif d <= -4:
            point[at] = 0
            text = b"e-%02d" % (1 - d)
            expo[at] = int.from_bytes(text, "little") << 8
    return prefix, expo, point, least


def _byte_masks():
    """Word masks by byte count: the low ``k`` bytes of digits 1..8 and
    9..16 for ``k`` digits kept, the bytes below a point at ``b`` and the
    point itself."""
    low = [(1 << (8 * k)) - 1 for k in range(9)]
    keep1 = [low[min(max(k - 1, 0), 8)] for k in range(18)]
    keep2 = [low[min(max(k - 9, 0), 8)] for k in range(18)]
    below1 = [low[min(b, 8)] for b in range(17)]
    below2 = [low[min(max(b - 8, 0), 8)] for b in range(17)]
    dot1 = [0x2E << (8 * b) if b < 8 else 0 for b in range(17)]
    dot2 = [0x2E << (8 * (b - 8)) if 8 <= b < 16 else 0 for b in range(17)]
    return [
        np.array(t, dtype=np.uint64) for t in (keep1, keep2, below1, below2, dot1, dot2)
    ]


_POW5, _SHIFTS, _QMASK, _E10, _QWHOLE, _QFRAC = _ryu_tables()
_T4, _COUNT, _COUNT_NEXT = _digit_tables()
_PREFIX, _EXPO, _POINT, _LEAST = _layout_tables()
_KEEP1, _KEEP2, _BELOW1, _BELOW2, _DOT1, _DOT2 = _byte_masks()


class _Scratch:
    """Named buffers for blocks of up to ``n`` values.

    They are kept from block to block: fresh temporaries of a block's
    size cost page faults on nearly every numpy call.  A block of more
    than ``n`` rows grows the buffers it asks for.
    """

    def __init__(self, n: int):
        self.n = n
        self._buffers: dict[tuple, np.ndarray] = {}

    def __call__(self, m: int, names: str, dtype=np.uint64, width=None) -> list[np.ndarray]:
        """Views of the first ``m`` rows of the buffers ``names``."""
        views = []
        for name in names.split():
            buf = self._buffers.get((name, width))
            if buf is None or len(buf) < m:
                rows = max(m, self.n)
                shape = rows if width is None else (rows, width)
                buf = self._buffers[name, width] = np.empty(shape, dtype=dtype)
            views.append(buf[:m])
        return views


def _shortest(bits, s: _Scratch):
    """Ryu's shortest digits ``out`` and exponent ``point`` (the value is
    out * 10**point) of each float's bits, and the rows left to ``repr``.

    Only vr = floor(mv * P / 2**j) is multiplied out, limb by limb; its
    remainder's top 64 bits and the tabled 2P / 2**j give vp and vm, the
    bounds at mv + 2 and mv - 2.  A row whose truncated remainder leaves
    a bound's carry open goes to ``repr``, and so does a zero mantissa,
    whose lower bound (mmShift = 0) is nearer.
    """
    m = bits.size
    mv, mh, ml, p0, p1, p2, p3, t, u, a, l1, l2, f, vr, vp, vm, half = s(
        m, "mv mh ml p0 p1 p2 p3 t u a l1 l2 f vr vp vm half"
    )
    sh, sh32, sh64, iexp_u = s(m, "sh sh32 sh64 iexp")
    r, point = s(m, "r point", np.intp)
    slow, flag, more = s(m, "slow flag more", bool)
    iexp = iexp_u.view(np.intp)
    np.right_shift(bits, _U(52), out=iexp_u)
    iexp_u &= _U(0x7FF)
    np.bitwise_and(bits, _U((1 << 52) - 1), out=ml)
    np.equal(ml, _U(0), out=flag)
    np.bitwise_or(ml, _U(1 << 52), out=mv)
    mv <<= _U(2)
    np.take(_QMASK, iexp, out=t, mode="clip")
    t &= mv
    np.equal(t, _U(0), out=slow)
    slow |= flag
    for limb, out in zip(_POW5, (p0, p1, p2, p3)):
        np.take(limb, iexp, out=out, mode="clip")
    for shift, out in zip(_SHIFTS, (sh, sh32, sh64)):
        np.take(shift, iexp, out=out, mode="clip")
    np.right_shift(mv, _U(32), out=mh)
    np.bitwise_and(mv, _M32, out=ml)
    # mv * P column by column; l1, l2 and u end as limbs 1, 2 and 3
    np.multiply(ml, p0, out=t)
    t >>= _U(32)
    for lo, hi, limb in ((p1, p0, l1), (p2, p1, l2), (p3, p2, None)):
        np.multiply(ml, lo, out=a)
        t += a
        np.bitwise_and(t, _M32, out=u)
        np.multiply(mh, hi, out=a)
        u += a
        t >>= _U(32)
        np.right_shift(u, _U(32), out=a)
        t += a
        u &= _M32
        if limb is not None:
            limb[...] = u
    np.multiply(mh, p3, out=a)
    t += a
    np.left_shift(t, sh32, out=vr)
    np.right_shift(u, sh, out=a)
    vr |= a
    # f: the top 64 bits of the fraction vr drops
    np.left_shift(u, sh64, out=f)
    np.left_shift(l2, sh32, out=a)
    f |= a
    np.right_shift(l1, sh, out=a)
    f |= a
    # vp = vr + floor(fraction + 2P / 2**j), vm = vr + floor(fraction - 2P / 2**j)
    np.take(_QFRAC, iexp, out=a, mode="clip")
    np.take(_QWHOLE, iexp, out=t, mode="clip")
    np.add(vr, t, out=vp)
    np.subtract(vr, t, out=vm)
    np.less(f, a, out=more)
    np.subtract(vm, more, out=vm)
    np.equal(f, a, out=flag)
    slow |= flag
    a += f
    np.less(a, f, out=more)
    np.add(vp, more, out=vp)
    np.equal(a, _U(_ALL), out=flag)
    slow |= flag
    # remove r digits while vp // 10**r > vm // 10**r; r <= 3 is usual
    r[...] = 0
    np.copyto(a, vm)
    for _ in range(3):
        vp //= _U(10)
        a //= _U(10)
        np.greater(vp, a, out=more)
        r += more
    deep = np.flatnonzero(more)
    if deep.size:
        hi, lo = vp[deep], a[deep]
        while deep.size:
            hi //= _U(10)
            lo //= _U(10)
            go = hi > lo
            deep, hi, lo = deep[go], hi[go], lo[go]
            r[deep] += 1
    out = p0
    np.take(_P10, r, out=a, mode="clip")
    np.floor_divide(vr, a, out=out)
    np.multiply(out, a, out=t)
    # round up when vr // 10**r is not above vm // 10**r or the last
    # removed digit is 5 or more (the digits removed are never all zero)
    np.greater_equal(vm, t, out=more)
    vr -= t
    np.right_shift(a, _U(1), out=half)
    a -= half
    np.greater_equal(vr, a, out=flag)
    more |= flag
    np.add(out, more, out=out)
    np.take(_E10, iexp, out=point, mode="clip")
    point += r
    # repr never ends its digits in 0; the common case should not either
    np.floor_divide(out, _U(10), out=t)
    t *= _U(10)
    np.equal(t, out, out=flag)
    slow |= flag
    return out, point, slow


def _layout(neg, out, point, words, sep, s: _Scratch) -> None:
    """Write each value +-out * 10**point into the cells ``words``, after
    the separator byte ``sep`` (0 for none).

    With ``point`` None the cells are integers: digits only.  Otherwise
    they follow ``repr``: positional or exponent form by the position
    of the decimal point.
    """
    m = out.size
    x, y, z, q, w0, w1, w2, w3 = s(m, "x y z q w0 w1 w2 w3")
    count, idx, at, b, keep = s(m, "count lidx at b keep", np.intp)
    (dot,) = s(m, "dot", bool)
    # digit count from the float exponent: d or d + 1 digits
    fx = x.view(np.float64)
    np.copyto(fx, out)
    x >>= _U(52)
    np.take(_COUNT, x.view(np.intp), out=count, mode="clip")
    np.take(_COUNT_NEXT, x.view(np.intp), out=y, mode="clip")
    np.greater_equal(out, y, out=dot)
    count += dot
    # the 17 digits, left-aligned: the first, then two runs of 8
    np.subtract(17, count, out=idx)
    np.take(_P10, idx, out=x, mode="clip")
    x *= out
    np.floor_divide(x, _U(10**16), out=w0)
    np.multiply(w0, _U(10**16), out=y)
    x -= y
    np.floor_divide(x, _U(10**8), out=y)
    np.multiply(y, _U(10**8), out=z)
    x -= z
    for v, w in ((y, w1), (x, w2)):
        np.floor_divide(v, _U(10000), out=z)
        np.take(_T4, z.view(np.intp), out=w, mode="clip")
        z *= _U(10000)
        v -= z
        np.take(_T4, v.view(np.intp), out=q, mode="clip")
        q <<= _U(32)
        w |= q
    w0 += _U(0x30)
    w0 <<= _U(56)
    np.multiply(neg, _U(0x2D00), out=y)  # "-"
    w0 |= y
    if point is None:
        w3[...] = 0
        b[...] = 16
        keep[...] = count
    else:
        # take clips the lanes of rows that go to repr into range
        np.add(count, point, out=at)
        at += _DEC_OFF
        np.take(_PREFIX, at, out=q, mode="clip")
        w0 |= q
        np.take(_EXPO, at, out=w3, mode="clip")
        np.take(_POINT, at, out=b, mode="clip")
        np.take(_LEAST, at, out=keep, mode="clip")
        np.maximum(keep, count, out=keep)
    np.bitwise_or(w0, _U(sep), out=words[:, 0])
    np.take(_KEEP1, keep, out=q, mode="clip")
    w1 &= q
    np.take(_KEEP2, keep, out=q, mode="clip")
    w2 &= q
    # the point follows digit b + 1, if a digit follows it; the digits
    # after it move up one byte
    np.add(b, 1, out=idx)
    np.greater(keep, idx, out=dot)
    for w, below, point_at, word in ((w1, _BELOW1, _DOT1, 1), (w2, _BELOW2, _DOT2, 2)):
        np.take(below, b, out=q, mode="clip")
        np.bitwise_and(w, q, out=x)
        w ^= x
        np.take(point_at, b, out=q, mode="clip")
        q *= dot
        q |= x
        if word == 2:
            np.right_shift(w1, _U(56), out=x)
            q |= x
        np.left_shift(w, _U(8), out=x)
        np.bitwise_or(q, x, out=words[:, word])
    np.right_shift(w2, _U(56), out=x)
    np.bitwise_or(w3, x, out=words[:, 3])


def _text_cells(words, rows, texts, sep) -> None:
    """Write ``texts`` (24 ASCII characters at most) into cells ``rows``."""
    cells = np.zeros((rows.size, 8 * _WORDS), dtype=np.uint8)
    cells[:, 0] = sep
    cells[:, 1:25] = np.array(list(texts), dtype="S24").view(np.uint8).reshape(-1, 24)
    words[rows] = cells.view(_TEXT)


def _float_cells(x, words, sep, s: _Scratch) -> None:
    """Write ``repr`` of each float into the cells ``words``.  When runs
    of equal bits are at most half the values, each run is formatted once
    (curve coordinates repeat; 0.0 and -0.0 stay apart)."""
    bits = x.view(np.uint64)
    (head,) = s(x.size, "head", bool)
    head[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=head[1:])
    runs = np.count_nonzero(head)
    if 2 * runs > x.size:
        _float_text(x, words, sep, s)
        return
    cells = np.empty((runs, _WORDS), dtype=np.uint64)
    (run,) = s(x.size, "run", np.intp)
    np.cumsum(head, out=run)
    run -= 1
    _float_text(x[head], cells, sep, s)
    words[...] = cells[run]


def _float_text(x, words, sep, s: _Scratch) -> None:
    """Write ``repr`` of each float into the cells ``words``: the kernel
    where it is exact, whole values by their digits, the rest by ``repr``."""
    if sys.float_repr_style != "short":
        _text_cells(words, np.arange(x.size), map(repr, x.tolist()), sep)
        return
    bits = x.view(np.uint64)
    out, point, slow = _shortest(bits, s)
    rows = np.flatnonzero(slow)
    if rows.size:
        size = np.abs(x[rows])
        whole = size < 1e16  # False for nan
        whole[whole] = size[whole] == np.floor(size[whole])
        out[rows[whole]] = size[whole].astype(np.uint64)
        point[rows[whole]] = 0
        rows = rows[~whole]
    (neg,) = s(x.size, "neg")
    np.right_shift(bits, _U(63), out=neg)
    _layout(neg, out, point, words, sep, s)
    if rows.size:
        _text_cells(words, rows, map(repr, x[rows].tolist()), sep)


def _int_cells(v, words, sep, s: _Scratch) -> None:
    """Write ``str`` of each int64 into the cells ``words``."""
    out, neg = s(v.size, "out neg")
    np.abs(v, out=out.view(np.int64))  # -2**63 reads as 2**63
    np.less(v, 0, out=neg)
    rows = np.flatnonzero(out >= _U(10**17))
    out[rows] = 0
    _layout(neg, out, None, words, sep, s)
    if rows.size:
        _text_cells(words, rows, map(str, v[rows].tolist()), sep)


def _str_cells(column, sep) -> np.ndarray:
    """Cells holding ``str`` of each value, as whole words per row."""
    texts = [sep + str(v).encode() for v in column]
    width = max(map(len, texts))
    cells = np.array(texts, dtype=f"S{-(-width // 8) * 8}")
    return cells.view(_TEXT).reshape(len(texts), -1)


def _rows(columns, s: _Scratch) -> bytes:
    """The CSV rows of equal-length, non-empty columns."""
    n = len(columns[0])
    cells = []
    for k, column in enumerate(columns):
        if isinstance(column, np.ndarray) and column.dtype in (np.float64, np.int64):
            cells.append(np.ascontiguousarray(column))
        else:
            if isinstance(column, np.ndarray):
                column = column.tolist()
            cells.append(_str_cells(column, b"," if k else b""))
    # a numeric column is still its array; str cells are already words
    widths = [_WORDS if c.ndim == 1 else c.shape[1] for c in cells]
    (rows,) = s(n, "rows", _TEXT, width=sum(widths) + 1)
    start = 0
    for k, (c, width) in enumerate(zip(cells, widths)):
        words = rows[:, start:start + width]
        sep = 0x2C if k else 0  # ","
        if c.ndim == 2:
            words[...] = c
        elif c.dtype == np.float64:
            _float_cells(c, words, sep, s)
        else:
            _int_cells(c, words, sep, s)
        start += width
    rows[:, -1] = _ROW_END
    return rows.tobytes().translate(None, b"\0")


def write_rows(stream, columns, block_rows: int) -> None:
    """Write equal-length columns to a text stream as CSV rows, each
    ended by \\r\\n, formatting ``block_rows`` rows at a time."""
    n = len(columns[0])
    s = _Scratch(min(n, block_rows))
    for start in range(0, n, block_rows):
        stop = start + block_rows
        stream.write(_rows([column[start:stop] for column in columns], s).decode())


# ---------------------------------------------------------------- parsing
#
# The other direction: float64 columns from unquoted CSV bytes, each cell
# bit for bit what ``float`` gives for its text.


class Unparsed(Exception):
    """Bytes the column parse does not take; the message says what."""


# bytes of mantissa text that a cell's three words hold
_REG = 24
# decimal exponents Eisel-Lemire covers with 5**q tabled at 128 bits
_Q_MIN, _Q_MAX = -342, 308
# a block is copied behind this many "0" bytes: a cell's words reach
# back 24 bytes from where its mantissa ends
_PAD = 32
_COMMA, _CR, _LF, _DOT, _MINUS, _PLUS = (np.uint8(ord(c)) for c in ",\r\n.-+")


def _digit_masks() -> np.ndarray:
    """Per count k of the top bytes of a 24-byte register and point
    position f (row 25k + f), the low nibbles of those bytes as three
    words (least first), less byte 23 - f, the point, for f < 24 (f = 24:
    no point)."""
    byte = np.arange(_REG)
    k = np.arange(_REG + 1)[:, None, None]
    f = np.arange(_REG + 1)[None, :, None]
    keep = (byte >= _REG - k) & (byte != _REG - 1 - f)
    return (keep * np.uint8(0x0F)).astype(np.uint8).view(_TEXT).reshape(-1, 3)


def _lemire_table() -> np.ndarray:
    """5**q for q in [-342, 308] at 128 bits, as 32-bit limbs.

    For q >= 0 it is 5**q truncated.  For q < 0 it is the reciprocal
    2**b // 5**-q + 1, with b = z + 127 for q >= -27 and b = 2z + 128
    below, z the bit length of 5**-q, truncated to 128 bits: the table
    of Lemire's "Number parsing at a gigabyte per second" (2021).
    """
    values = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            values.append(_top_bits(5**q, 128))
            continue
        p = 5**-q
        z = p.bit_length()
        c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p + 1
        values.append(c >> max(c.bit_length() - 128, 0))
    return _limbs(values, 4)


_DIGITS = _digit_masks()
# the last word's masks, by 25 times the digit count: no point
_WORD_DIGITS = np.roll(_DIGITS[:, 2], -_REG)
# 9 * 10**(k - 1), to take a point's zero digit back out
_NINES = np.array([0] + [9 * 10**k for k in range(19)], dtype=np.uint64)
_LEMIRE = _lemire_table()
# Clinger's fast path divides by 10**-q or multiplies by 10**q, both
# exact doubles for |q| <= 22; indexed by q + 22
_CLINGER_DIV = np.array([10.0 ** max(-q, 0) for q in range(-22, 23)])
_CLINGER_MUL = np.array([10.0 ** max(q, 0) for q in range(-22, 23)])
# a line end's last byte, then the next line's first
_LINE_CUT = re.compile(rb"[\r\n][^\r\n]")
# per byte value: a line end; an exponent mark
_IS_END = np.zeros(256, dtype=bool)
_IS_END[list(b"\r\n")] = True
_IS_EXP = np.zeros(256, dtype=bool)
_IS_EXP[list(b"eE")] = True


def _mul64(a, bh, bl):
    """High and low words of the 128-bit product of ``a`` and the 64-bit
    number with 32-bit limbs ``bh``, ``bl`` (``bl`` is overwritten)."""
    al = a & _M32
    ah = a >> _U(32)
    lo = al * bl
    mid = al * bh
    hi = ah * bh
    bl *= ah
    hi += mid >> _U(32)
    hi += bl >> _U(32)
    mid &= _M32
    bl &= _M32
    mid += bl
    mid += lo >> _U(32)
    hi += mid >> _U(32)
    lo &= _M32
    mid <<= _U(32)
    lo |= mid
    return hi, lo


def _lemire(w, q):
    """Float64 bits nearest ``w * 10**q`` for 0 < w < 2**64 and q in
    [-342, 308] by Eisel-Lemire, and the rows left unresolved.

    The steps and constants follow fast_float's ``compute_float``.
    Lemire's 2021 paper leaves a product whose low word is all ones to a
    fallback when q is outside [-27, 55]; those rows are the unresolved.
    ``w`` is overwritten.
    """
    # leading zeros: the float's exponent is log2(w), or one above it
    # where the conversion rounded up to a power of two
    lz = w.astype(np.float64).view(np.uint64)
    lz >>= _U(52)
    np.minimum(lz, _U(1023 + 63), out=lz)
    lz -= _U(1023)
    lz -= (w >> lz) == _U(0)
    np.subtract(_U(63), lz, out=lz)
    w <<= lz
    at = q - _Q_MIN
    hi, lo = _mul64(w, np.take(_LEMIRE[3], at), np.take(_LEMIRE[2], at))
    # the second product only where the first leaves the low 9 bits of
    # hi all ones
    rows = np.flatnonzero((hi & _U(0x1FF)) == _U(0x1FF))
    if rows.size:
        at = at[rows]
        more, _ = _mul64(w[rows], _LEMIRE[1][at], _LEMIRE[0][at])
        low = lo[rows] + more
        lo[rows] = low
        hi[rows] += low < more
    rows = np.flatnonzero(lo == _U(_ALL))
    unresolved = rows[(q[rows] < -27) | (q[rows] > 55)]
    upper = hi >> _U(63)
    power = q * 217706
    power >>= 16
    power += 63 + 1023
    power += upper.view(np.intp)
    power -= lz.view(np.intp)
    upper += _U(9)
    mant = hi >> upper
    # subnormal and infinite results are rare: found in one pass
    (odd,) = np.nonzero((power - 1).view(np.uint64) >= _U(0x7FE - 1))
    sub = odd[power[odd] <= 0]
    tiny = mant[sub] >> np.minimum(1 - power[sub], 63).astype(np.uint64)
    # exactly halfway between two floats: round to even
    rows = np.flatnonzero(lo <= _U(1))
    if rows.size:
        qr, m = q[rows], mant[rows]
        half = (qr >= -4) & (qr <= 23) & ((m & _U(3)) == _U(1))
        half &= (m << upper[rows]) == hi[rows]
        mant[rows[half]] -= _U(1)
    mant += mant & _U(1)
    mant >>= _U(1)
    carry = mant >> _U(53)
    mant >>= carry
    power += carry.view(np.intp)
    # power 0x7FE may round up to 0x7FF: infinity
    over = odd[power[odd] >= 0x7FF]
    mant &= _U((1 << 52) - 1)
    power <<= 52
    mant |= power.view(np.uint64)
    if odd.size:
        mant[over] = _U(0x7FF << 52)
        # subnormals: a mantissa that rounds up to 2**52 is the least normal
        tiny += tiny & _U(1)
        mant[sub] = tiny >> _U(1)
    return mant, unresolved


def _eight_digits(x) -> None:
    """Turn words of eight digit values, the first in the lowest byte,
    into their numbers, in place."""
    x *= _U(2561)
    x >>= _U(8)
    x &= _U(0x00FF00FF00FF00FF)
    x *= _U(6553601)
    x >>= _U(16)
    x &= _U(0x0000FFFF0000FFFF)
    x *= _U(42949672960001)
    x >>= _U(32)


def _whole(text, tokens, before, after, out) -> bool:
    """Parse a column of whole numbers of one to eight digits (a status
    column, say) into the float64 array ``out``.  False, with ``out``
    unwritten, where some cell is anything else."""
    pos, key = tokens
    # most other columns show it in their first cell
    first = int(key[before[0] + 1])
    if not (before[0] + 1 == after[0] or first & 0xFF in b"\r\n") or not 0 < first >> 8 <= 8:
        return False
    t = before + 1
    k = key[t]
    # nothing but one to eight digits before the delimiter or line end
    digits = k >> 8
    whole = _IS_END[k & 0xFF]
    whole |= t == after
    whole &= (digits - 1).view(np.uint64) < _U(8)
    if not whole.all():
        return False
    words = np.ndarray((text.size - 7,), dtype="V8", buffer=text, strides=(1,))
    x = words[pos[t] - 8].view(_TEXT)
    digits *= _REG + 1
    x &= np.take(_WORD_DIGITS, digits)
    _eight_digits(x)
    np.copyto(out, x, casting="unsafe")
    return True


def _cells(text, tokens, before, after, out, s: _Scratch) -> int:
    """Parse cells of a block into the float64 array ``out``.

    ``tokens`` are the positions of the block's bytes that are not
    digits, and a key per such byte: the byte, plus 256 times the number
    of digits just before it.  ``before`` and ``after`` index each cell's
    delimiters among them.  Returns how many cells went to ``float``.
    """
    pos, key = tokens
    m = before.size
    t, k, nd, frac, end, q, at = s(m, "t k nd frac end q at", np.intp)
    neg, dot, bad, slow, flag = s(m, "neg dot bad slow flag", bool)
    mant, part = s(m, "mant part")
    (mask,) = s(m, "mask", width=3)
    # the 24 bytes before each offset, as three little-endian words
    registers = np.ndarray((text.size - _REG + 1,), dtype=f"V{_REG}", buffer=text, strides=(1,))
    np.add(before, 1, out=t)
    np.take(key, t, out=k)
    # a sign opens the cell when no digit comes before it
    np.equal(k, _MINUS, out=neg)
    np.equal(k, _PLUS, out=flag)
    flag |= neg
    t += flag
    np.take(key, t, out=k)
    np.right_shift(k, 8, out=nd)
    k &= 0xFF
    np.equal(k, _DOT, out=dot)
    t += dot
    np.take(key, t, out=k)
    np.right_shift(k, 8, out=frac)
    frac *= dot
    nd += frac
    np.take(pos, t, out=end)
    np.negative(frac, out=q)
    k &= 0xFF
    # the mantissa ends the cell (at its delimiter or line end), or an
    # exponent follows
    np.not_equal(t, after, out=bad)
    np.take(_IS_END, k, out=flag)
    np.invert(flag, out=flag)
    bad &= flag
    np.add(nd, dot, out=at)  # the mantissa's span of text
    np.greater(at, _REG, out=slow)
    np.take(_IS_EXP, k, out=flag)
    rows = np.flatnonzero(flag)
    if rows.size:
        # a sign, then one to eight digits (more go to float)
        te = t[rows] + 1
        ke = key[te]
        eneg = ke == _MINUS
        te += eneg | (ke == _PLUS)
        ke = key[te]
        length = ke >> 8
        bad[rows] = ((te != after[rows]) & ~_IS_END[ke & 0xFF]) | (length == 0)
        slow[rows] |= length > 8
        value = registers[pos[te] - _REG].view(_TEXT)[2::3].copy()
        value &= np.take(_WORD_DIGITS, np.minimum(length, 8) * (_REG + 1))
        _eight_digits(value)
        value = value.view(np.intp)
        q[rows] += np.where(eneg, -value, value)
    np.equal(nd, 0, out=flag)
    flag |= bad
    if flag.any():
        raise Unparsed("a cell that is not a decimal number")
    # the mantissa's text is the register's top nd + dot bytes; with the
    # point read as a 0 digit, the digits give v = a * 10**(f + 1) + b for
    # a point after a and before the f digits of b, and w = v - 9a * 10**f
    # the mask row: span * 25 + f, with f = 24 for no point (a longer
    # span goes to float, and take clips its row into the table)
    at *= _REG + 1
    at += frac
    at += _REG
    np.multiply(dot, _REG, out=k)
    at -= k
    np.take(_DIGITS, at, axis=0, mode="clip", out=mask)
    np.subtract(end, _REG, out=k)
    reg = registers[k].view(_TEXT)
    reg &= mask.reshape(-1)
    _eight_digits(reg)
    reg = reg.reshape(-1, 3)
    np.greater(reg[:, 0], _U(1843), out=flag)  # v may reach 2**64
    slow |= flag
    np.multiply(reg[:, 0], _U(10**16), out=mant)
    np.multiply(reg[:, 1], _U(10**8), out=part)
    mant += part
    mant += reg[:, 2]
    if dot.any():
        # row 0 (divide by 1, take back 0) where there is no point, or 19
        # or more digits follow it, which leaves a = 0 as v < 10**20
        np.add(frac, 1, out=at)
        at *= dot
        np.greater(at, 19, out=flag)
        np.copyto(at, 0, where=flag)
        np.take(_P10, at, out=part)
        np.floor_divide(mant, part, out=part)
        np.take(_NINES, at, out=mask[:, 0])
        part *= mask[:, 0]
        mant -= part
    # Clinger: w <= 2**53 and |q| <= 22 take one correctly rounded divide
    # or multiply; zero needs no more
    np.copyto(out, mant, casting="unsafe")
    np.add(q, 22, out=at)
    scale = part.view(np.float64)
    if q.min() < 0:
        np.take(_CLINGER_DIV, at, mode="clip", out=scale)
        out /= scale
    if q.max() > 0:
        np.take(_CLINGER_MUL, at, mode="clip", out=scale)
        out *= scale
    bits = out.view(np.uint64)
    fast = bad  # no longer needed
    np.less_equal(at.view(np.uint64), _U(44), out=fast)
    np.less_equal(mant, _U(1 << 53), out=flag)
    fast &= flag
    np.equal(mant, _U(0), out=flag)
    fast |= flag
    fast |= slow
    np.invert(fast, out=fast)
    rows = np.flatnonzero(fast)
    if rows.size:
        qr = q[rows]
        if qr.min() < _Q_MIN or qr.max() > _Q_MAX:
            # exponents outside the tables go to float
            far = (qr < _Q_MIN) | (qr > _Q_MAX)
            slow[rows[far]] = True
            rows, qr = rows[~far], qr[~far]
        bits[rows], unresolved = _lemire(mant[rows], qr)
        slow[rows[unresolved]] = True
    np.multiply(neg, _U(1 << 63), out=part)
    bits |= part
    rows = np.flatnonzero(slow)
    for r in rows.tolist():
        out[r] = float(text[pos[before[r]] + 1:pos[after[r]]].tobytes().strip())
    return rows.size


def _lines(block, ncols: int, s: _Scratch):
    """Split ``block``, which starts at a line end's last byte, into lines
    of ``ncols`` fields: its padded text, the positions and keys of its
    bytes that are not digits, each field's delimiter among them, and the
    line count."""
    size = block.size + _PAD + 8
    text, digit = s(size, "text digit", np.uint8)
    (flag,) = s(size, "flag", bool)
    text[:_PAD] = 0x30
    text[_PAD:_PAD + block.size] = block
    text[_PAD + block.size] = 0x0A  # ends the last line
    text[_PAD + block.size + 1:] = 0x30
    np.subtract(text, np.uint8(0x30), out=digit)
    np.greater(digit, np.uint8(9), out=flag)
    pos = np.flatnonzero(flag)
    n = pos.size
    (char,) = s(n, "char", np.uint8)
    (key,) = s(n, "key", np.intp)
    last, other = s(n, "last other", bool)
    np.take(text, pos, out=char)
    key[0] = 0
    np.subtract(pos[1:], pos[:-1], out=key[1:])
    key[1:] -= 1
    # as in csv.reader, a run of \r and \n ends one line (empty lines are
    # skipped); the run's last byte is the delimiter
    np.equal(char, _CR, out=last)
    np.equal(char, _LF, out=other)
    last |= other
    np.not_equal(key[1:], 0, out=other[:-1])
    other[:-1] |= ~last[1:]
    last[:-1] &= other[:-1]
    key <<= 8
    key |= char
    np.equal(char, _COMMA, out=other)
    other |= last
    delim = np.flatnonzero(other)
    cells = delim.size - 1
    rows = cells // ncols
    if (
        rows * ncols != cells
        or np.count_nonzero(last) != rows + 1
        or not last[delim[ncols::ncols]].all()
    ):
        raise Unparsed("a line whose field count is not the header's")
    return text, (pos, key), delim, rows


def _fields(text, tokens, delim, ncols: int, cols, out, s: _Scratch) -> int:
    """Parse the fields ``cols`` of each line into the rows of ``out``;
    return how many cells went to ``float``."""
    cells = delim.size - 1
    # each mapped column's cells, by the delimiters before and after them
    spans = [(delim[col:cells:ncols], delim[col + 1::ncols]) for col in cols]
    rest = [j for j, (b, a) in enumerate(spans) if not _whole(text, tokens, b, a, out[j])]
    if not rest:
        return 0
    rows = out.shape[1]
    before, after = s(rows * len(rest), "before after", np.intp)
    np.concatenate([spans[j][0] for j in rest], out=before)
    np.concatenate([spans[j][1] for j in rest], out=after)
    (values,) = s(before.size, "values", np.float64)
    slow = _cells(text, tokens, before, after, values, s)
    for k, j in enumerate(rest):
        out[j] = values[k * rows:(k + 1) * rows]
    return slow


def read_columns(data: bytes, start: int, ncols: int, cols, block_bytes: int):
    """Float64 columns ``cols`` of the unquoted CSV body after a header
    of ``ncols`` fields, whose line end's last byte is ``data[start]``;
    and how many cells went to ``float``.

    Lines split as ``csv.reader`` splits them: at \\r, \\n or \\r\\n, with
    empty lines skipped.  Every line must hold ``ncols`` fields, and every
    cell of ``cols`` a decimal number: a sign, digits with at most one
    point, and an exponent.  Anything else raises Unparsed.

    Each cell's digits are packed eight to a word (SWAR).  Clinger's fast
    path (PLDI 1990) or Eisel-Lemire (Lemire, Software: Practice and
    Experience 2021) then gives ``float``'s bits with integer arithmetic.
    A point is read as a 0 digit and taken back out, so a mantissa whose
    digits read that way reach 1844 * 10**16, just below 2**64 (more than
    19 digits, or 19 and a point), goes to ``float`` itself; so do an
    exponent of more than 8 digits or outside the tables, and an
    unresolved product.  The body is parsed ``block_bytes`` at a time,
    cut at line ends, in reused buffers.
    """
    s = _Scratch(0)
    table = np.empty((len(cols), 0))
    rows = slow = 0
    first = start
    while start < len(data):
        found = _LINE_CUT.search(data, start + block_bytes)
        stop = len(data) if found is None else found.start()
        block = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
        text, tokens, delim, lines = _lines(block, ncols, s)
        end = rows + lines
        if end > table.shape[1]:
            # room for the rows that the bytes read so far suggest, and 5%
            # more: numpy backs large arrays with huge pages, so a loose
            # bound would cost memory
            room = end * (len(data) - first) // (stop - first) * 21 // 20 + 64
            grown = np.empty((len(cols), room))
            grown[:, :rows] = table[:, :rows]
            table = grown
        slow += _fields(text, tokens, delim, ncols, cols, table[:, rows:end], s)
        rows = end
        start = stop
    return list(table[:, :rows]), slow

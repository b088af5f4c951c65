"""CSV text of whole columns, byte for byte what ``repr`` and ``str`` give.

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
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["write_rows"]

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
    pow5 = [5**k for k in range(i.max() + 1)]
    p = [x >> (x.bit_length() - 125) if x.bit_length() >= 125 else x << (125 - x.bit_length())
         for x in pow5]
    limbs = np.array([[(x >> (32 * k)) & 0xFFFFFFFF for x in p] for k in range(4)],
                     dtype=np.uint64)[:, i]
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
    size cost page faults on nearly every numpy call.
    """

    def __init__(self, n: int):
        self.n = n
        self._buffers: dict[tuple, np.ndarray] = {}

    def __call__(self, m: int, names: str, dtype=np.uint64, width=None) -> list[np.ndarray]:
        """Views of the first ``m`` rows of the buffers ``names``."""
        views = []
        for name in names.split():
            buf = self._buffers.get((name, width))
            if buf is None:
                shape = self.n if width is None else (self.n, width)
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

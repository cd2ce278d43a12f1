"""Comma-separated tables of floats whose every cell is ``repr(float(v))``.

The shortest digits that read back to the same double are found for whole
columns at once with Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), which needs one table of 617 powers of ten and integer
products only; numpy forms the 128-bit products from 32-bit halves.

Each cell is laid out, with its separator, in four uint64 words (32 bytes,
little-endian), held word-major so that every step is one numpy call over a
contiguous block: the sign and the ``0.``/zeros prefix end at byte 6, the 17
digits stand at bytes 7-23 as raw values 0-9, and the point is made by moving
the digits after it up one byte.  A table keyed by the layout (the decimal
exponent and the number of significant digits) gives, for one OR each, the
ASCII offsets with the point (and the ``0`` after the point of an integral
value) and the byte where the tail (the exponent, if any, and the separator)
goes, right after the last digit.  The last pass over each word writes it
cell-major, and one boolean mask over the bytes drops the empty ones.

The text is handed out a chunk of whole rows, up to _CHUNK = 16384 cells, at
a time.  Every buffer of a chunk lives in one workspace of 2.75 MiB,
allocated by the first table a process writes and reused by every chunk of
every later table, so the process allocates it once (see _Workspace: it is
not for concurrent threads).

Each cell follows CPython's ``float_repr_style == 'short'``: the shortest
round-trip digits, the closest to the value among them (ties to even), in
positional notation for ``1e-4 <= |v| < 1e16`` with at least one digit after
the point, otherwise as ``d.ddde±XX`` with at least two exponent digits;
``nan`` carries no sign.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: Values per chunk, and the size of the workspace (22 words a value): large
#: enough that numpy's per-call cost is small.  Tables of profile and figure2
#: were written faster than with 8192 and as fast as with 32768.
_CHUNK = 16384

_K_MIN, _K_MAX = -324, 292
_U = np.uint64
_M32, _M52, _M63 = _U(2**32 - 1), _U(2**52 - 1), _U(2**63 - 1)
_HIDDEN = _U(2**52)

#: Byte offsets within a cell: the prefix ends at byte 6, the first digit is
#: byte 7, the other 16 digits are bytes 8-23 (words 1 and 2).
_FIRST = 7
_SEPARATORS = (b",", b"\n")
#: The tails: "" and e-324 ... e+308, each with "," and then each with a
#: newline.
_TAIL_TEXTS = [b""] + [f"e{e:+03d}".encode() for e in range(-324, 309)]
_NEWLINE = len(_TAIL_TEXTS)
#: Offset of a decimal exponent (the position of the point relative to the
#: first digit, -323 ... 309 for finite doubles) into the layout tables.
_DP = 330
#: Layouts: the positional ones, one per decimal exponent -3 ... 16, then
#: the exponent form; each has a slot per significant-digit count 0 ... 17.
_POSITIONAL = range(-3, 17)
_SLOTS = 18
#: With the 16 digits after the first as raw bytes 0-9 in words w1, w2, the
#: double w2 2^64 + w1 + 1/4 has a biased exponent e in [1023 + 8 j, 1026 +
#: 8 j] for the last nonzero digit byte j (0-15), or 1021 when there is none,
#: so (e + 1) >> 3 is this plus the number of significant digits.
_NSIG_BIAS = 126
#: Bit offsets of words 1-3 in a cell, as a column for the shifts that
#: place the tail: numpy shifts by 64 or more (or by a wrapped negative
#: count) to 0.
_WORD_BITS = np.array([[64], [128], [192]], dtype=np.uint64)


@cache
def _schubfach():
    """Per binary exponent: Schubfach's constants, built with exact integers.

    g(k) approximates 10^-k from above to 126 bits: it is floor(10^-k 2^-r) +
    1 for the r that puts it in [2^125, 2^126), and g = g1 2^63 + g0.  The
    table is indexed by the biased exponent, plus 2048 for a power of two
    whose lower neighbour is half as far (irregular spacing).  With k and h
    the decimal exponent and the shift of that binade and cp = 4 c 2^h for
    the significand c, Giulietti's ``rop(g1, g0, cp)`` rounds Z(cp) / 2^63 to
    odd, where Z(cp) = floor(g1 cp / 2) + floor(g0 cp / 2^64).  The ends of
    the rounding interval are cp + d with d = 2^(h+1) above and d = -2^(h+1)
    below (-2^h below an irregular power of two), and Z(cp + d) = Z(cp) +
    D(d) + carry, where D(d) = g1 d / 2 + floor(g0 d / 2^64) is a constant of
    the binade and the carry (or borrow) is decided by the low words
    g0 cp mod 2^64 and g0 d mod 2^64.

    Rows: g1, g0; g0 d mod 2^64 and D mod 2^63 above; g0 d mod 2^64 and
    2^63 - (D mod 2^63) below; and h + 2 | floor(D / 2^63) << 8 above |
    (floor(D / 2^63) + 1) << 16 below | (k + 17 + _DP) << 32.  Zero, the
    only value at index 2048 (significand 0, biased exponent 0), gets zeros
    and an exponent of 2 + _DP, for which the steps below give f = 0 and
    the decimal exponent of "0.0".
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            n = 10**-k
            r = n.bit_length() - 126
            g.append((n >> r if r >= 0 else n << -r) + 1)
        else:
            d = 10**k
            g.append((1 << 125 + d.bit_length()) // d + 1)
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & (2**63 - 1) for x in g], dtype=np.uint64)

    q = np.tile(np.maximum(np.arange(2048), 1) - 1075, 2)
    irregular = np.repeat([0, 1], 2048)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 2  # 2 ... 5
    g1, g0 = g1[k - _K_MIN], g0[k - _K_MIN]

    def delta(e):
        """D(2^e) split at 2^63, and g0 2^e mod 2^64 (2 <= e <= 6)."""
        e = e.astype(np.uint64)
        lo = ((g1 << (e - _U(1))) & _M63) + (g0 >> (_U(64) - e))
        return (g1 >> (_U(64) - e)) + (lo >> _U(63)), lo & _M63, g0 << e

    rq, rr, er = delta(h + 1)
    lq, lr, el = delta(h + 1 - irregular)
    small = ((h + 2).astype(np.uint64) | rq << _U(8) | (lq + _U(1)) << _U(16)
             | (k + 17 + _DP).astype(np.uint64) << _U(32))
    table = np.stack([g1, g0, er, rr, el, _U(2**63) - lr, small])
    table[:, 2048] = 0
    table[6, 2048] = (2 + _DP) << 32
    return table


@cache
def _layout():
    """The layout tables.

    Indexed by decimal exponent + _DP, a uint64 (3, 650) table: the layout's
    first key minus _NSIG_BIAS (mod 2^64), the exponent tail's index (0 if
    positional), and the prefix's index.  Indexed by key = layout * _SLOTS +
    significant digits: a uint64 (6, 378) table with the digit bytes that
    move up for the point (words 1 and 2), the OR that makes ASCII digits
    from byte 8 on, the point and the "0" after the point of an integral
    value (words 1-3), and 8 ``end``, the bit offset of the first byte after
    the digits, where the tail goes.  Then the prefixes (sign, "0.", zeros,
    ending at byte 6, and the ASCII offset of the first digit; the last one
    empty, for blank cells), the tails (with their separators, "," then
    "\\n") and the cells inf, -inf, nan.
    """
    nkeys = (len(_POSITIONAL) + 1) * _SLOTS
    words = np.zeros((6, nkeys), dtype=np.uint64)
    for layout, dp in enumerate([*_POSITIONAL, None]):
        for nsig in range(1, _SLOTS):
            key = layout * _SLOTS + nsig
            if dp is None:  # d.ddde±XX
                at, end = (None, 8) if nsig == 1 else (8, 8 + nsig)
            elif dp <= 0:  # 0.000ddd: the point is in the prefix
                at, end = None, _FIRST + nsig
            else:  # ddd.ddd, at least one digit after the point
                at, end = _FIRST + dp, 8 + max(nsig, dp + 1)
            cell = sum(0x30 << 8 * b for b in range(8, end))
            if at is not None:
                cell ^= (0x30 ^ ord(".")) << 8 * at
                moved = sum(0xFF << 8 * b for b in range(at, 24))
                words[0:2, key] = [moved >> 64 * w & 2**64 - 1 for w in (1, 2)]
            words[2:5, key] = [cell >> 64 * w & 2**64 - 1 for w in (1, 2, 3)]
            words[5, key] = 8 * end

    dps = np.arange(-_DP, 650 - _DP)
    positional = (dps >= _POSITIONAL.start) & (dps < _POSITIONAL.stop)
    layouts = np.where(positional, dps - _POSITIONAL.start, len(_POSITIONAL))
    by_dp = np.stack([
        layouts * _SLOTS - _NSIG_BIAS,
        np.where(positional, 0, dps + 324),
        2 * np.where(positional & (dps <= 0), 1 - dps, 0),
    ]).astype(np.uint64)

    tails = np.array([int.from_bytes(t + s, "little") for s in _SEPARATORS for t in _TAIL_TEXTS],
                     dtype=np.uint64)
    heads = [b"", b"0.", b"0.0", b"0.00", b"0.000"]
    prefixes = np.array(
        [int.from_bytes(((b"-" if neg else b"") + h).rjust(_FIRST, b"\0") + b"0", "little")
         for h in heads for neg in (0, 1)] + [0], dtype=np.uint64)
    specials = np.array([int.from_bytes(t + s, "little") for s in _SEPARATORS
                         for t in (b"inf", b"-inf", b"nan", b"nan")], dtype=np.uint64)
    return by_dp, words, prefixes, tails, specials


class _Workspace:
    """Every buffer of one chunk of up to _CHUNK values.

    Allocated by the first table a process writes and kept for the process:
    every chunk of every later table reuses it.  A chunk of n values uses the
    front of each flat buffer, as rows of n, so every row operation stays
    contiguous.  It serves one thread: two tables written interleaved from
    one thread stay correct, because each chunk's text is copied out before
    the next chunk is computed, but concurrent threads must not share it.
    """

    def __init__(self):
        self.values = np.empty(_CHUNK)
        self.a = np.empty(_CHUNK, dtype=np.uint64)
        # scratch, the last four rows the cells word-major, and at the end
        # the mask of their nonzero bytes
        self.u = np.empty(10 * _CHUNK, dtype=np.uint64)
        # Schubfach's constants, then the layout's words, then the cells
        # cell-major
        self.g = np.empty(10 * _CHUNK, dtype=np.uint64)

    def text(self, columns, start, m, blank) -> str:
        """Rows start ... start + m - 1 of the float64 columns, each cell
        followed by "," and the last of a row by a newline, and empty where
        ``blank`` (m rows, or None) is set."""
        ncols = len(columns)
        n = m * ncols
        values = self.values[:n].reshape(m, ncols)
        for j, c in enumerate(columns):
            values[:, j] = c[start:start + m]
        bits = values.view(np.uint64).ravel()
        a = np.bitwise_and(bits, _M63, out=self.a[:n])
        u = self.u[:10 * n].reshape(10, n)
        g = self.g[:10 * n].reshape(10, n)
        cells = self.g[:4 * n].reshape(n, 4)
        if blank is not None:
            blank = np.flatnonzero(blank) if blank.any() else None
        _cells(bits, a, ncols, blank, u, g, cells)
        data = cells.view(np.uint8).ravel()
        nonzero = self.u[:4 * n].view(bool)
        np.not_equal(data, 0, out=nonzero)
        return str(data[nonzero], "ascii")


def _shortest(a, u, g):
    """The shortest round-trip decimal f 10^(e - 17 - _DP) of each finite
    positive double with bits a, as (f, e), f in u[9] and e in g[7]; the
    other rows of u and the first seven of g are scratch.

    Follows Giulietti's ``DoubleToDecimal.toDecimal``, without its two-digit
    minimum for tiny subnormals, which repr does not have.
    """
    c, i, cph, cpl, gh, gl, t1, t2, zz, zr = u
    np.right_shift(a, _U(52), out=i)
    np.bitwise_and(a, _M52, out=c)
    np.subtract(c, _U(1), out=t1)  # 2^64 - 1 for c = 0: irregular
    t1 >>= _U(52)
    t1 &= _U(2048)
    np.minimum(i, _U(1), out=t2)  # the hidden bit of normal doubles
    t2 <<= _U(52)
    c |= t2
    i |= t1
    g1, g0, er, rr, el, nlr, small = np.take(
        _schubfach(), i.view(np.intp), axis=1, out=g[:7], mode="clip")
    e = np.right_shift(small, _U(32), out=g[7])
    np.bitwise_and(small, _U(255), out=t1)
    cp = np.left_shift(c, t1, out=c)
    np.right_shift(cp, _U(32), out=cph)
    np.bitwise_and(cp, _M32, out=cpl)

    def mulhi(g, out):
        """floor(g cp / 2^64) for g < 2^64, cp < 2^60, from 32-bit halves."""
        np.right_shift(g, _U(32), out=gh)
        np.bitwise_and(g, _M32, out=gl)
        np.multiply(gl, cpl, out=out)
        out >>= _U(32)
        np.multiply(gh, cpl, out=t1)
        np.bitwise_and(t1, _M32, out=t2)
        out += t2
        np.multiply(gl, cph, out=t2)
        out += t2
        out >>= _U(32)
        np.right_shift(t1, _U(32), out=t1)
        out += t1
        np.multiply(gh, cph, out=t1)
        out += t1

    def rop(q, r, out):
        """Z / 2^63 rounded to odd for Z = q 2^63 + r, r < 2^64."""
        np.right_shift(r, _U(63), out=out)
        out += q
        r &= _M63
        r += _M63
        r >>= _U(63)
        out |= r

    # Z = floor(g1 cp / 2) + floor(g0 cp / 2^64) = zz 2^63 + zr
    x0, t3 = gh, gl
    mulhi(g0, zr)
    np.multiply(g1, cp, out=t3)
    t3 >>= _U(1)
    zr += t3
    mulhi(g1, zz)
    np.right_shift(zr, _U(63), out=t3)
    zz += t3
    zr &= _M63
    np.multiply(g0, cp, out=x0)

    vb, vbl, vbr = i, cpl, cph
    # the upper end: Z + D + carry
    np.add(x0, er, out=t1)
    carry = t1 < x0
    np.add(zr, rr, out=t1)
    np.add(t1, carry, out=t1)
    np.right_shift(small, _U(8), out=t2)
    t2 &= _U(255)
    t2 += zz
    rop(t2, t1, vbr)
    # the lower end: Z - D - borrow
    borrow = x0 < el
    np.add(zr, nlr, out=t1)
    np.subtract(t1, borrow, out=t1)
    np.right_shift(small, _U(16), out=t2)
    t2 &= _U(255)
    np.subtract(zz, t2, out=t2)
    rop(t2, t1, vbl)
    rop(zz, zr, vb)

    out = np.bitwise_and(a, _U(1), out=t1)
    vbl += out
    vbr -= out
    s4 = np.bitwise_and(vb, _U(2**64 - 4), out=zz)
    uin = vbl <= s4
    s4 += _U(4)
    win = s4 <= vbr
    # s + 1 if only it is inside the interval, s if only s is, else the
    # closer, then the even one: s + 1 for vb mod 8 in {3, 6, 7}
    np.bitwise_and(vb, _U(7), out=t2)
    np.right_shift(_U(0xC8), t2, out=t2)
    t2 &= _U(1)
    up = t2.astype(bool)
    up ^= (up ^ win) & (uin ^ win)
    f = np.right_shift(vb, _U(2), out=zr)
    np.add(f, up, out=f)
    # ten times the shorter s' or s' + 1 if just one of them is inside,
    # where that is so: f += short (10 s' - f)
    sp40 = np.floor_divide(vb, _U(40), out=t2)
    sp40 *= _U(40)
    upin = vbl <= sp40
    np.add(sp40, _U(40), out=t3)
    wpin = t3 <= vbr
    short = upin != wpin
    short &= vb >= _U(40)
    sp40 >>= _U(2)
    np.add(sp40, wpin.view(np.uint8) * np.uint8(10), out=sp40)
    sp40 -= f
    sp40 *= short
    f += sp40
    return f, e


def _cells(bits, a, ncols, blank, u, g, cells):
    """The cell words of the float64 values with bits ``bits`` and a = bits
    without the sign, in ``cells``, an (n, 4) view of the front of g; the
    cells at the flat indices ``blank`` (or None) are empty."""
    by_dp, keyed, prefixes, tail_words, specials = _layout()
    w = u[6:]
    f, dp = _shortest(a, u, g)
    # subnormals, inf and nan
    np.subtract(a, _HIDDEN, out=u[0])
    odd = np.flatnonzero(u[0] >= _U(0x7FE << 52))
    odd = odd[a[odd] != 0]

    # f scaled to exactly 17 digits (normal doubles have 16 or 17), and
    # dp to the decimal exponent of the first digit + 1 + _DP
    if odd.size:
        fo = f[odd]
        digits = np.searchsorted(10 ** np.arange(18, dtype=np.uint64), fo, "right")
        f[odd] = fo * (10 ** (17 - digits)).astype(np.uint64)
    sixteen = np.subtract(f, _U(10**16), out=u[1])
    sixteen >>= _U(63)
    dp -= sixteen
    sixteen *= _U(9)
    sixteen += _U(1)
    f *= sixteen
    if odd.size:
        dp[odd] -= (17 - digits).astype(np.uint64)

    # the digits: the first in word 0, then eight in each of words 1, 2
    np.floor_divide(f, _U(10**16), out=u[1])
    np.left_shift(u[1], _U(8 * _FIRST), out=w[0])
    u[1] *= _U(10**16)
    f -= u[1]
    np.floor_divide(f, _U(10**8), out=w[1])
    np.multiply(w[1], _U(10**8), out=u[1])
    np.subtract(f, u[1], out=w[2])
    _digits8(w[1:3], u[1:3])

    # significant digits from the exponent of the digit words as a double
    x = u[1].view(np.float64)
    np.multiply(w[2], 2.0**64, out=x)
    np.add(x, w[1], out=x)
    x += 0.25
    key = np.right_shift(x.view(np.uint64), _U(52), out=u[0])
    key += _U(1)
    key >>= _U(3)
    first_key, tail, prefix = np.take(by_dp, dp.view(np.intp), axis=1, out=u[3:6],
                                      mode="clip")
    key += first_key
    k = np.take(keyed, key.view(np.intp), axis=1, out=g[:6], mode="clip")

    # the point: the digit bytes from it on move up one byte
    moved = np.bitwise_and(w[1:3], k[0:2], out=u[1:3])
    w[1:3] ^= moved
    np.right_shift(moved[1], _U(56), out=w[3])
    np.right_shift(moved[0], _U(56), out=u[3])
    w[2] |= u[3]
    moved <<= _U(8)
    w[1:3] |= moved
    w[1:] |= k[2:5]

    # the sign and prefix, the tail and separator from bit ``end8`` on; the
    # last cell of a row ends in a newline, a blank cell in its separator
    # alone
    np.right_shift(bits, _U(63), out=u[3])
    prefix += u[3]
    if blank is not None:
        w[:, blank] = 0
        tail[blank] = 0
        prefix[blank] = len(prefixes) - 1
    tail.reshape(-1, ncols)[:, -1] += _U(_NEWLINE)
    t = np.take(tail_words, tail.view(np.intp), out=u[3], mode="clip")
    end8 = k[5]
    np.subtract(_U(128), end8, out=u[0])
    np.subtract(_U(192), end8, out=u[1])
    np.right_shift(t, u[:2], out=u[:2])  # into words 2 and 3
    w[2:] |= u[:2]
    np.subtract(end8, _WORD_BITS, out=u[:3])
    np.left_shift(t, u[:3], out=u[:3])  # into words 1-3
    # the last pass of each word writes the cells cell-major
    np.bitwise_or(w[1:], u[:3], out=cells[:, 1:].T)
    np.take(prefixes, prefix.view(np.intp), out=u[4], mode="clip")
    np.bitwise_or(w[0], u[4], out=cells[:, 0])
    if odd.size:
        i = odd[a[odd] >= _U(0x7FF << 52)]
        if blank is not None:
            i = np.setdiff1d(i, blank, assume_unique=True)
        nan = a[i] > _U(0x7FF << 52)
        neg = (bits[i] >> _U(63)).astype(np.intp)
        cells[i] = 0
        cells[i, 0] = specials[np.where(nan, 2, neg) + 4 * (i % ncols == ncols - 1)]


def _digits8(x, t):
    """Replace each x < 10^8 by its eight decimal digits as the bytes of a
    uint64, most significant first in memory, by division in 32-, 16- and
    8-bit lanes (multiply-shift quotients, exact below 10^4 and 100); t is
    scratch of x's shape."""
    np.floor_divide(x, _U(10**4), out=t)
    x <<= _U(32)
    t *= _U(10**4 << 32) - _U(1)
    x -= t
    np.multiply(x, _U(5243), out=t)
    t >>= _U(19)
    t &= _U(0x7F0000007F)
    x <<= _U(16)
    t *= _U(100 << 16) - _U(1)
    x -= t
    np.multiply(x, _U(103), out=t)
    t >>= _U(10)
    t &= _U(0x000F000F000F000F)
    x <<= _U(8)
    t *= _U(10 << 8) - _U(1)
    x -= t


@cache
def _workspace():
    """The process's one workspace, allocated on first use."""
    return _Workspace()


def repr_chunks(columns, blank=None):
    """CSV rows of the equal-length float columns, each cell repr(float(v)),
    as text of whole rows, one chunk of up to _CHUNK cells at a time.

    ``blank``, a boolean array broadcastable to (rows, columns), empties the
    cells where it is set.  Every row ends in a newline.  There are at most
    _CHUNK columns.  The chunks are formatted in the process's one workspace
    (see _Workspace): not for concurrent threads.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    rows, ncols = len(columns[0]), len(columns)
    if blank is not None:
        blank = np.broadcast_to(blank, (rows, ncols))
    step = _CHUNK // ncols
    for start in range(0, rows, step):
        m = min(step, rows - start)
        b = None if blank is None else blank[start:start + m]
        yield _workspace().text(columns, start, m, b)

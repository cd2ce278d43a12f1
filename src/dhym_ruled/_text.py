"""Comma-separated tables of floats whose every cell is ``repr(float(v))``.

The shortest digits that read back to the same double are found for whole
columns at once with Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), which needs one table of 617 powers of ten and integer
products only; numpy forms the 128-bit products from 32-bit halves.  Each
cell is then laid out, with its separator, in four uint64 words (32 bytes,
little-endian), and one boolean mask over the chunk's bytes drops the empty
ones.

Each cell follows CPython's ``float_repr_style == 'short'``: the shortest
round-trip digits, the closest to the value among them (ties to even), in
positional notation for ``1e-4 <= |v| < 1e16`` with at least one digit after
the point, otherwise as ``d.ddde±XX`` with at least two exponent digits;
``nan`` carries no sign.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: Values per chunk: large enough that numpy's per-call cost is small, small
#: enough that the chunk's temporaries stay in cache.
_CHUNK = 8192

_K_MIN, _K_MAX = -324, 292
_U = np.uint64
_M32, _M52, _M63 = _U(2**32 - 1), _U(2**52 - 1), _U(2**63 - 1)
_ONES, _ASCII, _POINT = _U(2**64 - 1), _U(0x3030303030303030), _U(ord("."))

#: Byte offsets within a cell: the prefix (sign, "0." and zeros) ends at
#: byte 6, the first digit is byte 7, then up to 16 digits and the point,
#: then the tail (the zero of ".0" or the exponent) and the separator.
_FIRST = 7
_SEPARATORS = (b",", b"\n")


@cache
def _tables():
    """The lookup tables, built with exact integers on first use.

    Schubfach's g(k) approximates 10^-k from above to 126 bits: it is
    floor(10^-k 2^-r) + 1 for the r that puts it in [2^125, 2^126), and
    g = g1 2^63 + g0.  The per-exponent table is indexed by the biased
    exponent, plus 2048 for a power of two whose lower neighbour is half as
    far (irregular spacing).  With k and h the decimal exponent and shift of
    that binade, it holds a1 2^64 + b1 = g1 2^(h-1) and a0 2^64 + b0 =
    g0 2^h as the words b1, b0 and a1 | a0 << 8 | (k - K_MIN) << 16.
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
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    j = k - _K_MIN
    g1, g0 = g1[j], g0[j]
    per_exp = np.stack([
        g1 << (h - _U(1)), g0 << h,
        g1 >> (_U(65) - h) | (g0 >> (_U(64) - h)) << _U(8) | j.astype(np.uint64) << _U(16),
    ])

    pow10 = 10 ** np.arange(18, dtype=np.uint64)

    # the tail and separator: "" / "0" (after the point of an integral
    # positional cell) / e-324 .. e+308, each with "," and with "\n"
    texts = [b"", b"0"] + [f"e{e:+03d}".encode() for e in range(-324, 309)]
    tails = np.array([int.from_bytes(t + s, "little") for s in _SEPARATORS for t in texts],
                     dtype=np.uint64)
    # the prefix, ending at byte 6: the sign, then "0." and the zeros of
    # a positional cell below 1
    heads = [b"", b"0.", b"0.0", b"0.00", b"0.000"]
    prefixes = np.array(
        [int.from_bytes(((b"-" if neg else b"") + h).rjust(_FIRST, b"\0"), "little")
         for h in heads for neg in (0, 1)], dtype=np.uint64)
    specials = np.array([int.from_bytes(t + s, "little") for s in _SEPARATORS
                         for t in (b"inf", b"-inf", b"nan", b"nan")], dtype=np.uint64)
    return per_exp, pow10, tails, prefixes, specials


def _mulhi(ah, al, bh, bl):
    """High 64 bits of a b for a = ah 2^32 + al and b = bh 2^32 + bl, the
    halves below 2^32 and bh below 2^31."""
    ll = al * bl
    hl = ah * bl
    mid = (ll >> _U(32)) + (hl & _M32) + al * bh
    return ah * bh + (hl >> _U(32)) + (mid >> _U(32))


def _rop(hi, lo):
    """Round to odd of (hi 2^64 + lo) / 2^63: the floor, with its low bit
    set when the remainder is not zero."""
    return (hi << _U(1)) | (lo >> _U(63)) | ((lo << _U(1)) != 0)


def _shortest(bits):
    """The shortest round-trip decimal f 10^k of each finite positive double.

    Follows Giulietti's ``DoubleToDecimal.toDecimal``, without its two-digit
    minimum for tiny subnormals, which repr does not have.  Its
    ``rop(g1, g0, cp)`` for cp = cb 2^h is Z / 2^63 rounded to odd, where
    Z = g1 cp / 2 + floor(g0 cp / 2^64) = a1 cb 2^64 + b1 cb + a0 cb +
    floor(b0 cb / 2^64) with a1 2^64 + b1 = g1 2^(h-1) and a0 2^64 + b0 =
    g0 2^h; the ends of the rounding interval, cb - 2 (cb - 1 below a power
    of two) and cb + 2, differ from it by multiples of those constants.
    """
    b1, b0, packed = _tables()[0]
    be = (bits >> _U(52)).astype(np.intp)
    t = bits & _M52
    c = t | (be > 0).astype(np.uint64) << _U(52)
    irregular = (t == 0) & (be > 1)
    i = be + 2048 * irregular
    b1, b0, packed = b1[i], b0[i], packed[i]
    a1 = packed & _U(255)
    a0 = (packed >> _U(8)) & _U(255)
    b1h, b1l = b1 >> _U(32), b1 & _M32
    b0h, b0l = b0 >> _U(32), b0 & _M32

    cb = c << _U(2)
    cbh, cbl = cb >> _U(32), cb & _M32
    x0 = b0 * cb
    low = b1 * cb
    lo = low + (a0 * cb + _mulhi(b0h, b0l, cbh, cbl))
    hi = a1 * cb + _mulhi(b1h, b1l, cbh, cbl) + (lo < low)
    vb = _rop(hi, lo)

    # K = a1 2^64 + b1 + a0: Z moves by 2 K from cb to cb + 2, and by
    # floor((x0 + 2 b0) / 2^64)
    kl = b1 + a0
    kh = a1 + (kl < b1)
    x2 = x0 + b0
    up = (x2 < x0).astype(np.uint64) + (x2 + b0 < x2)
    r1 = lo + kl
    r2 = r1 + kl
    r3 = r2 + up
    vbr = _rop(hi + (kh << _U(1)) + (r1 < lo) + (r2 < r1) + (r3 < r2), r3)
    # and by -2 K - ... to cb - 2, or by -K - ... to cb - 1
    regular = ~irregular
    x2 = x0 - b0
    down = (x0 < b0).astype(np.uint64) + ((x2 < b0) & regular)
    kl2 = kl * regular
    l1 = lo - kl
    l2 = l1 - kl2
    l3 = l2 - down
    vbl = _rop(hi - kh - kh * regular - (lo < kl) - (l1 < kl2) - (l2 < down), l3)

    out = c & _U(1)
    s = vb >> _U(2)
    s4 = s << _U(2)
    vbl += out
    sp40 = (s // _U(10)) * _U(40)
    upin = vbl <= sp40
    wpin = sp40 + _U(40) + out <= vbr
    uin = vbl <= s4
    win = s4 + _U(4) + out <= vbr
    cmp = vb.view(np.int64) - (s4 + _U(2)).view(np.int64)
    # of s and s + 1, the one inside the interval, or else the closer, or
    # else the even one; ten times the shorter s' or s' + 1 if just one of
    # them is inside
    closer_s = (cmp < 0) | ((cmp == 0) & ((s & _U(1)) == 0))
    f = s + (~np.where(uin != win, uin, closer_s)).view(np.uint8)
    short = (s >= _U(10)) & (upin != wpin)
    np.copyto(f, (sp40 >> _U(2)) + _U(10) * (~upin).view(np.uint8), where=short)
    return f, (packed >> _U(16)).astype(np.int64) + _K_MIN


def _digits8(x):
    """The eight decimal digits of each x < 10^8 as the bytes of a uint64,
    most significant first in memory, by division in 32-, 16- and 8-bit
    lanes (multiply-shift quotients, exact below 10^4 and 100)."""
    hi = x // _U(10**4)
    x = hi | (x - hi * _U(10**4)) << _U(32)
    hi = ((x * _U(5243)) >> _U(19)) & _U(0x7F0000007F)
    x = hi | (x - hi * _U(100)) << _U(16)
    hi = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return hi | (x - hi * _U(10)) << _U(8)


def _top_byte(x):
    """Index of the highest nonzero byte of each x > 0 whose bytes are at
    most 9 (so that the conversion to double cannot round up a power of two)."""
    return ((x.astype(np.float64).view(np.uint64) >> _U(52)).astype(np.int64) - 1023) >> 3


def _below(n):
    """Masks of the bytes below byte n of a word, n clipped to 0..8."""
    return ~(_ONES << (np.clip(n, 0, 8) << 3).astype(np.uint64))


def _cells(v, last):
    """The cells of the float64 values v as an (n, 4) uint64 array, each
    followed by "," or, where ``last`` is set, by a newline."""
    _, pow10, tails, prefixes, specials = _tables()
    n = len(v)
    bits = v.view(np.uint64)
    neg = (bits >> _U(63)).astype(np.intp)
    bits = bits & _M63
    special = bits >= _U(0x7FF << 52)
    zero = bits == 0
    f, k = _shortest(np.where(special | zero, _U(1 << 62), bits))

    # f scaled to exactly 17 digits; normal doubles have 16 or 17
    L = 16 + (f >= _U(10**16))
    small = np.flatnonzero(f < _U(10**15))
    if small.size:
        L[small] = np.searchsorted(pow10, f[small], "right")
    f = f * pow10[17 - L]
    f[zero] = 0
    decpt = L + k
    decpt[zero] = 1

    top = f // _U(10**16)
    r = f - top * _U(10**16)
    hi = r // _U(10**8)
    d1 = _digits8(hi)
    d2 = _digits8(r - hi * _U(10**8))
    # significant digits: the first, then up to the last nonzero one
    nsig = np.where(d2 > 0, 10 + _top_byte(d2), np.where(d1 > 0, 2 + _top_byte(d1), 1))

    positional = (decpt > -4) & (decpt <= 16)
    # digits before the point: none below 1, one in the exponent form
    split = np.where(positional, np.maximum(decpt, 0), 1)
    ndig = np.where(positional, np.maximum(nsig, split), nsig)
    has_point = np.where(positional, split > 0, nsig > 1)
    end = _FIRST + ndig
    words = [
        prefixes[2 * np.where(positional & (decpt <= 0), 1 - decpt, 0) + neg]
        | (top + _U(ord("0"))) << _U(56),
        (d1 | _ASCII) & _below(end - 8),
        (d2 | _ASCII) & _below(end - 16),
        np.zeros(n, dtype=np.uint64),
    ]

    # the digits from byte ``at`` on move up one byte for the point
    at = np.where(has_point, _FIRST + split, 32)
    carry = _U(0)
    for w in (1, 2, 3):
        low = _below(at - 8 * w)
        moved = words[w] & ~low
        dot = (_POINT << ((at & 7) << 3).astype(np.uint64)) * (at >> 3 == w)
        words[w] = (words[w] & low) | (moved << _U(8)) | carry | dot
        carry = moved >> _U(56)
    end += has_point

    # the tail and separator, placed from byte ``end`` on
    tail = tails[np.where(positional, nsig <= split, decpt + 325) + 635 * last]
    shift = ((end & 7) << 3).astype(np.uint64)
    low, high = tail << shift, tail >> (_U(64) - shift)
    word = end >> 3
    for w in (1, 2, 3):
        words[w] |= low * (word == w) | high * (word == w - 1)

    out = np.stack(words, axis=1)
    i = np.flatnonzero(special)
    if i.size:
        out[i] = 0
        nan = bits[i] > _U(0x7FF << 52)
        out[i, 0] = specials[np.where(nan, 2, neg[i]) + 4 * last[i]]
    return out


def repr_table(columns, blank=None) -> str:
    """CSV rows of the equal-length float columns, each cell repr(float(v)).

    ``blank``, a boolean array broadcastable to (rows, columns), empties the
    cells where it is set.  Every row ends in a newline.
    """
    table = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    rows, ncols = table.shape
    if blank is not None:
        blank = np.broadcast_to(blank, table.shape)
    step = max(1, _CHUNK // ncols)
    last = np.arange(ncols) == ncols - 1
    parts = []
    for start in range(0, rows, step):
        chunk = table[start:start + step]
        m = len(chunk)
        lasts = np.tile(last, m)
        words = _cells(chunk.ravel(), lasts)
        if blank is not None:
            b = blank[start:start + step].ravel()
            words[b] = 0
            words[b, 0] = np.where(lasts[b], ord("\n"), ord(","))
        data = words.view(np.uint8).ravel()
        parts.append(data[data != 0].tobytes())
    return b"".join(parts).decode("ascii")

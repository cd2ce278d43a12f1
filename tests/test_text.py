"""repr_chunks writes every cell byte for byte as Python's repr.

The kernel is checked against repr on random bit patterns, a seeded sweep,
the values where the notation or the digit search changes and every layout
(significant-digit count by decimal exponent); the process-wide workspace on
tables of every width and length around a chunk, and on tables written one
after the other and interleaved; the profile and figure2 tables against the
streamed writers of second_forms.py.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhym_ruled import BundleClass, canonicalize, cli, coupled, dhym, make_surface, tke
from dhym_ruled._text import _CHUNK, repr_chunks

from second_forms import figure2_text, profile_text, repr_table


def _want(columns, blank=None):
    """The table of repr_table(columns, blank), from repr."""
    rows = zip(*(np.asarray(c, dtype=np.float64).tolist() for c in columns))
    if blank is None:
        return "".join(",".join(map(repr, row)) + "\n" for row in rows)
    blank = np.broadcast_to(blank, (len(columns[0]), len(columns))).tolist()
    return "".join(",".join("" if b else repr(v) for v, b in zip(row, brow)) + "\n"
                   for row, brow in zip(rows, blank))


def _assert_table(got, want):
    """got == want, failing on the first row that differs (a diff of the
    whole text would take minutes)."""
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        i = next((i for i, (x, y) in enumerate(zip(g, w)) if x != y), min(len(g), len(w)))
        pytest.fail(f"{len(g)} rows, {len(w)} wanted; row {i}: "
                    f"{g[i] if i < len(g) else None!r} != {w[i] if i < len(w) else None!r}")


def _assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    got = repr_table([values]).splitlines()
    want = [repr(v) for v in values.tolist()]
    assert len(got) == len(want)
    bad = [(v.hex(), g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(patterns):
    _assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_seeded_sweep_of_bit_patterns():
    rng = np.random.default_rng(22)
    _assert_reprs(rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64))


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


EDGES = [
    0.0, np.nan, np.copysign(np.nan, -1.0), np.inf,
    # the smallest subnormals, where the digits are fewest
    5e-324, 1e-323, 8e-323,
    # the switch between positional and exponent notation
    1e15, 1e16, 9999999999999998.0, 1e-4, 1e-5, 0.00011, 9.999999999999999e-05,
    # three-digit exponents
    1e100, 1.5e-100, 1.7976931348623157e308, 2.2250738585072014e-308,
    0.1, 0.5, 1.0, 123.0, 1.5,
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_edge_values(sign):
    values = list(EDGES)
    for e in range(-1074, 1024):  # every power of 2 and its neighbours
        values += _neighbours(2.0**e)
    for e in range(-323, 309):  # every power of 10 and its neighbours
        values += _neighbours(float(f"1e{e}"))
    _assert_reprs(sign * np.array(values))


def _layout_of(text):
    """(significant digits, decimal exponent) of a repr: the value is
    0.d1 d2 ... 10^exponent."""
    mantissa, _, exp = text.lstrip("-").partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0")
    point = len(whole) - (len(whole + frac) - len(digits))
    return len(digits.rstrip("0")), point + int(exp or 0)


def _layout_values():
    """For every significant-digit count 1-17 and decimal exponent -323 ... 309,
    a double whose repr has that layout, where one exists (subnormals carry
    fewer digits)."""
    rng = random.Random(23)
    values, missing = [], []
    for nsig in range(1, 18):
        for dp in range(-323, 310):
            for _ in range(40):
                digits = rng.randrange(10 ** (nsig - 1), 10**nsig)
                digits += digits % 10 == 0
                x = float(f"{digits}e{dp - nsig}")
                if _layout_of(repr(x)) == (nsig, dp):
                    values.append(x)
                    break
            else:
                missing.append((nsig, dp))
    return values, missing


def test_every_layout():
    """Each digit count at each decimal exponent, in both notations and
    across the 1e-4 and 1e16 switches, with both signs, in the last and in
    an earlier column, and some cells blank."""
    values, missing = _layout_values()
    assert all(dp <= -307 or dp == 309 for _, dp in missing), missing[:5]
    assert len(values) > 17 * 580
    rng = np.random.default_rng(23)
    columns = [np.array(values), -np.array(values), rng.permutation(values)]
    for blank in (None, rng.random((len(values), 3)) < 0.05):
        assert repr_table(columns, blank) == _want(columns, blank)


def test_columns_blanks_and_chunks():
    """Cells of several columns across more than one chunk, some blank."""
    rng = np.random.default_rng(7)
    rows = _CHUNK // 3 * 2 + 5
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
               for _ in range(3)]
    blank = rng.random((rows, 3)) < 0.1
    assert repr_table(columns, blank) == _want(columns, blank)


def _columns(rng, rows, ncols):
    """Columns of mixed magnitudes, with zeros of both signs, subnormals,
    inf and nan among them."""
    columns = rng.standard_normal((ncols, rows)) * 10.0 ** rng.integers(-30, 30, (ncols, rows))
    special = [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1.0, 0.1]
    picks = rng.random((ncols, rows)) < 0.1
    columns[picks] = rng.choice(special, picks.sum())
    return list(columns)


@pytest.mark.parametrize("ncols", [1, 2, 6])
def test_workspace_at_every_chunk_boundary(ncols):
    """One row, and k step - 1, k step and k step + 1 rows for a step of
    _CHUNK // ncols rows: the last chunk fills the front of the workspace
    by a row less than, exactly or a row more than a whole chunk."""
    step = _CHUNK // ncols
    rng = np.random.default_rng(ncols)
    for rows in (1, step - 1, step, step + 1, 2 * step - 1, 2 * step, 2 * step + 1):
        columns = _columns(rng, rows, ncols)
        _assert_table(repr_table(columns), _want(columns))
        blank = rng.random((rows, ncols)) < 0.05
        _assert_table(repr_table(columns, blank), _want(columns, blank))


def test_blanks_across_a_chunk_boundary():
    """A run of blank rows, and a blank column, that straddle the end of
    the first chunk."""
    ncols = 6
    step = _CHUNK // ncols
    rows = 2 * step + 7
    columns = _columns(np.random.default_rng(25), rows, ncols)
    blank = np.zeros((rows, ncols), bool)
    blank[step - 3:step + 3] = True
    blank[step - 5:step + 5, 4:] = True
    _assert_table(repr_table(columns, blank), _want(columns, blank))
    column = np.arange(ncols) == 2
    _assert_table(repr_table(columns, column), _want(columns, column))


def test_consecutive_tables_of_different_widths():
    """Each table reuses the workspace the last one left, with a different
    row length and a different number of values per chunk."""
    rng = np.random.default_rng(26)
    for ncols, rows in [(6, 3001), (1, 20000), (2, 9000), (6, 5), (1, 1), (2, _CHUNK)]:
        columns = _columns(rng, rows, ncols)
        _assert_table(repr_table(columns), _want(columns))


def test_interleaved_generators():
    """Two tables written a chunk of each in turn from one thread."""
    rng = np.random.default_rng(27)
    a, b = _columns(rng, 3 * _CHUNK // 6 + 11, 6), _columns(rng, 2 * _CHUNK + 3, 1)
    blank = rng.random((len(a[0]), 6)) < 0.05
    pieces = [[], []]
    for ca, cb in itertools.zip_longest(repr_chunks(a, blank), repr_chunks(b), fillvalue=""):
        pieces[0].append(ca)
        pieces[1].append(cb)
    _assert_table("".join(pieces[0]), _want(a, blank))
    _assert_table("".join(pieces[1]), _want(b))


def test_generator_dropped_halfway():
    """A table abandoned after its first chunk leaves the next one whole."""
    rng = np.random.default_rng(28)
    first = repr_chunks(_columns(rng, 3 * _CHUNK // 2, 2))
    next(first)
    del first
    columns = _columns(rng, _CHUNK // 6 + 1, 6)
    _assert_table(repr_table(columns), _want(columns))


def _main(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("cls, beta0, samples, extra, code", [
    ((1, 0, 5.0, -1.0, 1.0), 1.0, 401, [], 0),               # smooth
    ((3, 2, 9.0, 1.3, 0.7), 0.3, 401, ["--beta0", "0.3"], 0),  # conical
    ((1, 0, 4.0, -1.0, 1.0), 1.0, 401, ["--allow-semistable"], 2),  # holder12
    ((1, 0, 5.0, -1.0, 1.0), 1.0, 2, [], 0),
    ((1, 0, 4.0, -1.0, 1.0), 1.0, 2, ["--allow-semistable"], 2),
])
def test_profile_matches_the_streamed_writer(cls, beta0, samples, extra, code, capsys):
    k, h, kp, k1, k2 = cls
    argv = ["profile", "--k", str(k), "--h", str(h), f"--kprime={kp!r}", f"--k1={k1!r}",
            f"--k2={k2!r}", "--samples", str(samples), *extra]
    got = _main(argv, capsys)

    s = make_surface(k, h, kp)
    b = canonicalize(BundleClass(k1=k1, k2=k2))
    sol = dhym.solve_dhym(s, b)
    prof = coupled.conical_coefficients(s, b, beta0)
    t = np.linspace(sol.t_minus, sol.t_plus, samples)
    sp = coupled.solve_pass(prof, t)
    assert got == (code, profile_text(t, sp, sol.regularity == "holder12"), "")


@pytest.mark.parametrize("argv", [
    ["--k", "1", "--h", "6", "--kprime", "1", "--samples", "10"],  # a pole sample
    ["--k", "1", "--h", "6", "--kprime", "1", "--samples", "2"],
    ["--k", "2", "--h", "1", "--kprime", "3.5", "--samples", "20001"],
])
def test_figure2_matches_the_streamed_writer(argv, capsys):
    got = _main(["figure2", *argv], capsys)

    k, h, kp, n = int(argv[1]), int(argv[3]), float(argv[5]), int(argv[7])
    s = make_surface(k, h, kp)
    beta = np.linspace(0.0, 1.0, n)
    H, pole = tke._H_beta_values(s.k, s.kprime, s.h, beta)
    want = figure2_text(tke.beta_asymptote(s.k, s.kprime, s.h), beta, H, pole)
    assert got == (0, want, "")

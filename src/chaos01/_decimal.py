"""Numbers as CSV text, each in its shortest round-trip form: byte for byte
what Python's ``repr`` prints, rendered with numpy a block of rows at a time.

A finite nonzero float's digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020), as in Java's ``Double.toString``
but without Java's minimum of two digits: the shortest decimal inside the
float's rounding interval and, of those, the nearest, ties to an even digit;
Ryu (U. Adams, PLDI 2018) and the ``dtoa`` behind ``repr`` pick the same.
Its 128-bit products are formed from 32-bit pieces in uint64 arithmetic.

The layout is ``repr``'s.  With the value written 0.D x 10**p, where D is
the digit string: ``0.000DDD``, ``DD.DDD`` or ``DDD000.0`` for -4 < p <= 16,
else ``D.DDDe-XX`` (no point for one digit, at least two exponent digits);
``0.0`` and ``-0.0`` as they are.  Each finite value's characters are
gathered from a row of source bytes (its digits, its exponent's digits and
the constant characters) by a template that depends only on its sign, form,
``p`` and digit count; the templates a call meets are built once for that
call.  ``nan``, ``inf`` and ``-inf``, and every value of an integer column,
take numpy's own text (``astype``), which is ``repr``'s.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence

import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFF_FFFF)
_LOW63 = _U(2**63 - 1)

#: The decimal exponents k that Schubfach scales by, 10**-k, over all doubles.
_K_MIN, _K_MAX = -324, 292


def _floor_log10_pow2(e):
    return (e * 661_971_961_083) >> 41


def _floor_log10_three_quarters_pow2(e):
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _floor_log2_pow10(e):
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_table() -> np.ndarray:
    """Schubfach's g(k) = floor(10**-k * 2**(125 - floor(-k log2 10))) + 1 for
    each k, a 126-bit integer, as its four 32-bit limbs (high 63 bits, then
    low 63 bits, each split in two): a (4, k range) array, made on first use."""
    limbs = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - int(_floor_log2_pow10(-k))
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        g = num // den + 1
        high, low = g >> 63, g & (2**63 - 1)
        limbs.append((high >> 32, high & 0xFFFF_FFFF, low >> 32, low & 0xFFFF_FFFF))
    return np.array(limbs, dtype=np.uint64).T.copy()


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of the product of two 64-bit values given as 32-bit limbs."""
    ll, lh, hl = al * bl, al * bh, ah * bl
    middle = (ll >> _U(32)) + (lh & _LOW32) + (hl & _LOW32)
    return ah * bh + (lh >> _U(32)) + (hl >> _U(32)) + (middle >> _U(32))


def _round_to_odd(x1, y1, y0):
    """Schubfach's ``rop``: g * cp / 2**127 rounded to odd, from the high word
    ``x1`` of g0 * cp and the high and low words ``y1``, ``y0`` of g1 * cp."""
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _LOW63) + _LOW63) >> _U(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits and exponent ``(f, k)``, |x| = f * 10**k with f shortest, of each
    float64 given by its bits; meaningful for finite nonzero values only."""
    exponent = (bits >> _U(52)) & _U(0x7FF)
    fraction = bits & _U(2**52 - 1)
    c = fraction | ((exponent > 0).astype(np.uint64) << _U(52))
    q = np.maximum(exponent, _U(1)).astype(np.int64) - 1075
    # the rounding interval is symmetric except above a power of two
    regular = (fraction != 0) | (exponent <= 1)
    k = np.where(regular, _floor_log10_pow2(q), _floor_log10_three_quarters_pow2(q))
    h = (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)  # 2..5
    g1h, g1l, g0h, g0l = (limb.take(k - _K_MIN) for limb in _g_table())
    g1, g0 = (g1h << _U(32)) | g1l, (g0h << _U(32)) | g0l
    # the value and the interval's ends, 4c and 4c + 2 and 4c - 2 (or 4c - 1),
    # shifted by h: their products with g differ by g shifted, so one product
    # of each half of g with cp = 4c << h gives all three
    cp = c << (h + _U(2))
    cph, cpl = cp >> _U(32), cp & _LOW32
    x1, x0 = _mulhi(g0h, g0l, cph, cpl), g0 * cp
    y1, y0 = _mulhi(g1h, g1l, cph, cpl), g1 * cp
    vb = _round_to_odd(x1, y1, y0)
    up = h + _U(1)
    x0r, y0r = x0 + (g0 << up), y0 + (g1 << up)
    vbr = _round_to_odd(x1 + (g0 >> (_U(64) - up)) + (x0r < x0),
                        y1 + (g1 >> (_U(64) - up)) + (y0r < y0), y0r)
    down = h + regular
    x0l, y0l = g0 << down, g1 << down
    vbl = _round_to_odd(x1 - (g0 >> (_U(64) - down)) - (x0 < x0l),
                        y1 - (g1 >> (_U(64) - down)) - (y0 < y0l), y0 - y0l)
    odd = c & _U(1)  # an even c keeps its interval's ends
    vbl += odd
    vbr -= odd
    # one digit fewer, s rounded down or up to a multiple of ten, if just one fits
    s = vb >> _U(2)
    s10 = s // _U(10) * _U(10)
    t10 = s10 + _U(10)
    low_in, high_in = vbl <= s10 << _U(2), t10 << _U(2) <= vbr
    # else s or s + 1: the one inside, or the nearer, ties to even
    t = s + _U(1)
    s_in, t_in = vbl <= s << _U(2), t << _U(2) <= vbr
    middle = (s + t) << _U(1)
    nearer = np.where((vb < middle) | ((vb == middle) & ((s & _U(1)) == 0)), s, t)
    f = np.where(s_in != t_in, np.where(s_in, s, t), nearer)
    return np.where(low_in != high_in, np.where(low_in, s10, t10), f), k


_POW10 = _U(10) ** np.arange(20, dtype=np.uint64)
#: "00", "01", ... "99" as uint16 pairs of ASCII digits.
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_DIGIT_WEIGHTS = (2.0 ** np.arange(17)).astype(np.float32)

# A finite value's source row: a 0 and its significand's 19 digits (the digits, then
# zeros), a 0 and its exponent's three digits, then the constant characters.
# _DIGIT is the first digit's position and _EXPONENT the exponent's first.
_DIGIT, _EXPONENT = 1, 21
_CONSTANTS = b"-0.e+\0"
_MINUS, _ZERO, _POINT, _E, _PLUS, _PAD = range(24, 30)
_SOURCE = 30  # even, so that a row holds whole uint16 digit pairs

#: The longest text of one value, "-2.2250738585072014e-308".
_WIDTH = 24

#: A finite value's form.  Its template's key is
#: ((negative * _FORMS + form) * 20 + shape) * 20 + digits, where shape is
#: p + 3 for a positional value and 1 for a three-digit exponent.
_POSITIONAL, _EXP_PLUS, _EXP_MINUS = range(3)
_FORMS = 3
_KEYS = 2 * _FORMS * 20 * 20


def _template(key: int) -> list[int]:
    """The source-row positions of one finite value's characters, padded to ``_WIDTH``."""
    rest, count = divmod(key, 20)
    rest, shape = divmod(rest, 20)
    negative, form = divmod(rest, _FORMS)
    digits = list(range(_DIGIT, _DIGIT + count))
    p = shape - 3
    text = [_MINUS] if negative else []
    if form == _POSITIONAL and p <= 0:
        text += [_ZERO, _POINT] + [_ZERO] * -p + digits
    elif form == _POSITIONAL and p < count:
        text += digits[:p] + [_POINT] + digits[p:]
    elif form == _POSITIONAL:
        text += digits + [_ZERO] * (p - count) + [_POINT, _ZERO]
    else:
        text += digits[:1] + ([_POINT] + digits[1:] if count > 1 else [])
        text += [_E, _PLUS if form == _EXP_PLUS else _MINUS]
        text += range(_EXPONENT + 1 - shape, _EXPONENT + 3)
    return text + [_PAD] * (_WIDTH - len(text))


def _put_quads(pairs: np.ndarray, at: int, values: np.ndarray) -> None:
    """Write ``values`` (below 10**4) as four ASCII digits, pairs ``at`` and ``at + 1``."""
    hundreds = values // np.uint32(100)
    pairs[..., at] = _PAIRS.take(hundreds)
    pairs[..., at + 1] = _PAIRS.take(values - hundreds * np.uint32(100))


def _numpy_text(values: np.ndarray) -> np.ndarray:
    """numpy's own text of each value, as a (values, ``_WIDTH``) array of ASCII
    bytes padded with NUL."""
    return values.astype(f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)


def _render(values: np.ndarray, templates: tuple) -> np.ndarray:
    """The text of each float64 value, as a (values, ``_WIDTH``) array of ASCII
    bytes padded with NUL; ``templates`` holds the templates built so far.  A
    finite value is gathered by its template, and then each nan or inf row is
    overwritten with numpy's text."""
    bits = values.view(np.uint64)
    negative = (bits >> _U(63)).astype(np.int64)
    f, e = _shortest(bits)
    nonfinite = ~np.isfinite(values)
    special = nonfinite | (values == 0)
    f[special] = 0  # 0.0, nan and inf: the digit 0 at p = 1
    e[special] = 0
    length = np.maximum(np.searchsorted(_POW10, f, "right"), 1)
    p = e + length
    exponent = np.abs(p - 1).astype(np.uint32)
    # the significand scaled to 19 digits, in groups of 3, 8 and 8 digits
    f *= _POW10[19 - length]
    head = f // _U(10**16)
    f -= head * _U(10**16)
    middle = f // _U(10**8)
    f -= middle * _U(10**8)
    source = np.empty((len(values), _SOURCE), np.uint8)
    pairs = source.view(np.uint16)
    _put_quads(pairs, 0, head.astype(np.uint32))
    for at, group in ((2, middle), (6, f)):
        group = group.astype(np.uint32)
        upper = group // np.uint32(10_000)
        _put_quads(pairs, at, upper)
        _put_quads(pairs, at + 2, group - upper * np.uint32(10_000))
    _put_quads(pairs, (_EXPONENT - 1) // 2, exponent)
    source[:, _MINUS:] = np.frombuffer(_CONSTANTS, np.uint8)
    # the count of digits up to the last nonzero one
    count = np.frexp((source[:, _DIGIT:_DIGIT + 17] != ord("0")).astype(np.float32)
                     @ _DIGIT_WEIGHTS)[1]
    count[special] = 1
    positional = (p > -4) & (p <= 16)
    form = np.where(positional, _POSITIONAL, np.where(p > 0, _EXP_PLUS, _EXP_MINUS))
    shape = np.where(positional, p + 3, exponent >= 100)
    key = ((negative * _FORMS + form) * 20 + shape) * 20 + count
    index, built = templates
    for new in set(key[~built[key]].tolist()):
        index[new] = _template(new)
        built[new] = True
    gather = index[key]
    gather += np.arange(0, key.size * _SOURCE, _SOURCE)[:, None]
    text = source.reshape(-1).take(gather)
    text[nonfinite] = _numpy_text(values[nonfinite])
    return text


def csv_rows(columns: Sequence[np.ndarray], rows: int) -> Iterator[str]:
    """The CSV text of ``columns`` side by side, one line per row, ``rows`` lines
    at a time.  Each value is printed as ``repr`` prints it: a float column's
    finite values by ``_render`` and an integer column's by numpy's own text."""
    templates = (np.empty((_KEYS, _WIDTH), np.intp), np.zeros(_KEYS, bool))
    for start in range(0, len(columns[0]), rows):
        block = [column[start:start + rows] for column in columns]
        text = np.empty((len(block[0]), len(block), _WIDTH + 1), np.uint8)
        text[:, :, _WIDTH] = ord(",")
        text[:, -1, _WIDTH] = ord("\n")
        for j, values in enumerate(block):
            text[:, j, :_WIDTH] = (_numpy_text(values) if values.dtype.kind in "iu"
                                   else _render(values.astype(np.float64), templates))
        yield text.tobytes().translate(None, b"\0").decode("ascii")

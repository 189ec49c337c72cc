"""Arbitrary-precision binary floating point and truncated power-series arithmetic.

Values are immutable. A real is a signed integer mantissa and a binary
exponent. The rounding policy: every function here, and the filter step
(filter_pipeline), returns its exact result rounded once to an explicit
mantissa width ``p`` (round-to-nearest, ties-to-even), so results are
bit-reproducible on any platform. One computation keeps the paper's order
and its bits instead, rounding each step in turn: ``taylor_table``'s
recurrence.

The kernels work on bare integers and (mantissa, exponent) pairs. ``_round``
rounds an exact integer times a power of two, ``_round_quotient`` an exact
ratio of integers, ``_add`` the exact sum of two pairs; ``_exact`` sums
products of pairs exactly, into one integer and one exponent, for ``cmul``,
``series_mul``, ``series_eval`` and extraction's two-channel solve to round
once per part. Each primitive
(``radd``, ``rmul``, ``rdiv``, ...) wraps a kernel's pair in a PrecisionReal.
The filter step calls ``_round`` and ``_round_quotient`` on the parts of raw
coefficients, (re_m, re_e, im_m, im_e) tuples that ``_quads`` rounds to
p bits and ``_series`` turns back into a series.

Every truncated exponential comes from one function, ``taylor_table(x,
m, p)``: the factors x^k/k! by the rounded recurrence, tr_m(e^x) and
tr_m(e^{-x}). A filter step's evaluation factors and decay, and the
schedule's alpha and beta, are read off it.

Series are stored with normalized coefficients: ``coeffs[k]`` holds
``a_k`` in ``sum a_k t^k / k!``, which turns integration into an index
shift and keeps exponential series exact before rounding.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction


class SeriesConfigError(ValueError):
    """Operands disagree on degree bound or precision."""


# ---------------------------------------------------------------------------
# PrecisionReal
# ---------------------------------------------------------------------------


class PrecisionReal:
    """Signed mantissa and exponent: value = mantissa * 2**exponent.

    The mantissa carries the sign. A nonzero value's ``|mantissa|`` is
    exactly the width it was rounded to (top bit set); zero is (0, 0). The
    class carries no precision field: the target width is an argument of
    every operation. ``bits()`` gives the (sign, |mantissa|, exponent)
    triple that series files and bit comparisons key on.
    """

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int):
        self.mantissa = mantissa
        self.exponent = exponent

    def __repr__(self):
        return f"PrecisionReal({self.mantissa:#x}, {self.exponent})"

    def __eq__(self, other):
        if not isinstance(other, PrecisionReal):
            return NotImplemented
        return rcmp(self, other) == 0

    def is_zero(self) -> bool:
        return not self.mantissa

    def bits(self) -> tuple:
        """Structural identity (serialization key): (sign, |mantissa|, exponent)."""
        m = self.mantissa
        return ((m > 0) - (m < 0), abs(m), self.exponent)

    def to_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent)
        return Fraction(self.mantissa, 1 << -self.exponent)

    def to_float(self) -> float:
        top = self.exponent + self.mantissa.bit_length()
        if top > 1024:
            return math.inf if self.mantissa > 0 else -math.inf
        if top < -1100:
            return 0.0
        return float(self.to_fraction())

    def log2_magnitude(self) -> float:
        """log2 |x| for magnitude reports; -inf for zero."""
        m = abs(self.mantissa)
        if not m:
            return -math.inf
        L = m.bit_length()
        return self.exponent + L - 1 + math.log2(m / (1 << (L - 1)))


R_ZERO = PrecisionReal(0, 0)


def _pair(a: PrecisionReal) -> tuple:
    return a.mantissa, a.exponent


def _round(v: int, exp: int, p: int) -> tuple:
    """Round the exact v*2^exp (v a signed integer) to p bits, nearest-even:
    the (mantissa, exponent) pair."""
    shift = v.bit_length() - p
    if shift <= 0:
        return (v << -shift, exp + shift) if v else (0, 0)
    keep = v >> shift  # floor, so rem is in [0, 2^shift) for either sign
    rem = v - (keep << shift)
    half = 1 << (shift - 1)
    if rem > half or (rem == half and keep & 1):
        keep += 1
    if keep.bit_length() > p:  # carried up to 2^p, or floored to -2^p
        keep >>= 1
        shift += 1
    return keep, exp + shift


def _round_quotient(num: int, den: int, exp: int, p: int) -> tuple:
    """Round the exact (num/den)*2^exp to p bits, nearest-even; a zero den
    raises ZeroDivisionError.

    The quotient is taken to at least p+3 bits; a nonzero remainder sets its
    last bit (sticky), which no rounding boundary at p bits can sit on."""
    shift = max(0, p + 3 + den.bit_length() - num.bit_length())
    q, rem = divmod(num << shift, den)
    return _round(q | 1 if rem else q, exp - shift, p)


def _add(am: int, ae: int, bm: int, be: int, p: int) -> tuple:
    """Round the exact am*2^ae + bm*2^be to p bits: the pair, as _round."""
    # The zero checks come first: a zero's top bit says nothing about scale.
    if not am:
        return _round(bm, be, p)
    if not bm:
        return _round(am, ae, p)
    ta = ae + am.bit_length()
    tb = be + bm.bit_length()
    if ta < tb:
        am, ae, bm, be, ta, tb = bm, be, am, ae, tb, ta
    # Widen a to an even integer of at least p+3 bits. A b wholly below its
    # last bit only decides which side of a the sum falls: fold it into an
    # odd last bit (sticky), which no rounding boundary at p bits can sit on.
    low = min(ae - 1, ta - p - 3)
    if tb <= low:
        return _round((am << (ae - low)) + (1 if bm > 0 else -1), low, p)
    if ae <= be:
        return _round(am + (bm << (be - ae)), ae, p)
    return _round((am << (ae - be)) + bm, be, p)


def _exact(*products) -> tuple:
    """The exact sum of products a*b of raw (mantissa, exponent) pairs, as
    one (integer, exponent) pair; an empty sum is (0, 0)."""
    products = products or (((0, 0), (0, 0)),)
    low = min([a[1] + b[1] for a, b in products])
    return sum([a[0] * b[0] << (a[1] + b[1] - low) for a, b in products]), low


def from_int(v: int, p: int) -> PrecisionReal:
    return PrecisionReal(*_round(v, 0, p))


def from_ratio(num: int, den: int, p: int) -> PrecisionReal:
    """Correctly rounded num/den."""
    return PrecisionReal(*_round_quotient(num, den, 0, p))


def from_fraction(x: Fraction, p: int) -> PrecisionReal:
    return from_ratio(x.numerator, x.denominator, p)


def rneg(a: PrecisionReal) -> PrecisionReal:
    return PrecisionReal(-a.mantissa, a.exponent)


def rabs(a: PrecisionReal) -> PrecisionReal:
    return PrecisionReal(abs(a.mantissa), a.exponent)


def radd(a: PrecisionReal, b: PrecisionReal, p: int) -> PrecisionReal:
    return PrecisionReal(*_add(a.mantissa, a.exponent, b.mantissa, b.exponent, p))


def rsub(a: PrecisionReal, b: PrecisionReal, p: int) -> PrecisionReal:
    return PrecisionReal(*_add(a.mantissa, a.exponent, -b.mantissa, b.exponent, p))


def rmul(a: PrecisionReal, b: PrecisionReal, p: int) -> PrecisionReal:
    return PrecisionReal(*_round(a.mantissa * b.mantissa, a.exponent + b.exponent, p))


def rdiv(a: PrecisionReal, b: PrecisionReal, p: int) -> PrecisionReal:
    return PrecisionReal(*_round_quotient(a.mantissa, b.mantissa, a.exponent - b.exponent, p))


def rdiv_int(a: PrecisionReal, k: int, p: int) -> PrecisionReal:
    """a/k for exact integer k, with a single rounding."""
    return PrecisionReal(*_round_quotient(a.mantissa, k, a.exponent, p))


def rcmp(a: PrecisionReal, b: PrecisionReal) -> int:
    """Exact value comparison: -1, 0, +1."""
    ma, mb = a.mantissa, b.mantissa
    if (ma > 0) != (mb > 0) or not ma or not mb:
        return (ma > mb) - (ma < mb)  # the signs alone decide
    ta = a.exponent + ma.bit_length()
    tb = b.exponent + mb.bit_length()
    if ta != tb:
        return 1 if (ta > tb) == (ma > 0) else -1
    e0 = min(a.exponent, b.exponent)
    va = ma << (a.exponent - e0)
    vb = mb << (b.exponent - e0)
    return (va > vb) - (va < vb)


def rmax(a: PrecisionReal, b: PrecisionReal) -> PrecisionReal:
    return a if rcmp(a, b) >= 0 else b


def taylor_table(x: PrecisionReal, m: int, p: int) -> tuple:
    """(factors, tr_m(e^x), tr_m(e^{-x})) at p bits: the factors are f_0 = 1
    and f_k = f_{k-1} x/k, each step rounded; both sums add them ascending.

    The recurrence at -x gives exactly (-1)^k f_k, since correct rounding is
    symmetric in sign, so tr_m(e^{-x}) alternates adding and subtracting the
    same factors."""
    f = from_int(1, p)
    factors, up, down = [f], f, f
    for k in range(1, m + 1):
        f = rdiv_int(rmul(f, x, p), k, p)
        factors.append(f)
        up = radd(up, f, p)
        down = rsub(down, f, p) if k & 1 else radd(down, f, p)
    return tuple(factors), up, down


@functools.lru_cache(maxsize=256)
def _pow10(g: int) -> int:
    return 10**g


def _pow10_bracket(k: int, bits: int) -> tuple:
    """(lo, hi, s) with lo*2^s <= 10^k <= hi*2^s: 5^k by binary powering,
    each product cut to `bits` bits, floored in lo and ceiled in hi."""
    lo = hi = 1
    s = k
    for bit in bin(k)[2:]:
        lo, hi, s = lo * lo, hi * hi, 2 * s - k
        if bit == "1":
            lo, hi = 5 * lo, 5 * hi
        cut = hi.bit_length() - bits
        if cut > 0:
            lo, hi, s = lo >> cut, -(-hi >> cut), s + cut
    return lo, hi, s


def _scaled(mag: int, e: int, g: int, f: int, s: int) -> int:
    """mag*2^e*10^g rounded half up, exactly, given 10^|g| = f*2^s."""
    num, den, exp = (mag * f, 1, e + s) if g >= 0 else (mag, f, e - s)
    if exp >= 0:
        num <<= exp
    else:
        den <<= -exp
    return (2 * num + den) // (2 * den)


def _far_scaled(mag: int, e: int, g: int, bits: int) -> int:
    """_scaled for a far |g|: from _pow10_bracket's bounds, `bits` plus
    log2|g| bits wide as their relative width grows as |g|, and from 10^|g|
    itself only when the bounds round apart."""
    k = abs(g)
    f_lo, f_hi, s = _pow10_bracket(k, bits + k.bit_length())
    q = _scaled(mag, e, g, f_lo, s)
    return q if _scaled(mag, e, g, f_hi, s) == q else _scaled(mag, e, g, 10**k, 0)


def to_decimal(a: PrecisionReal, digits: int = 20) -> str:
    """Exact-integer-math decimal rendering, deterministic: |a| rounded
    half up to `digits` significant digits.

    The scaled value q = |a|*10^g is exact for |g| <= 400; past that
    _far_scaled rounds it from bounds on 10^|g| with 64 guard bits over the
    digits, so the cost follows the digits, not a's exponent."""
    if not a.mantissa:
        return "0"
    mag, e = abs(a.mantissa), a.exponent
    dec = math.floor((e + mag.bit_length() - 1) * 0.3010299956639812)
    lo, hi = _pow10(digits - 1), _pow10(digits)
    # q = round(|a| * 10^(digits-1-dec)) with exact integer arithmetic
    while True:
        g = digits - 1 - dec
        if not -400 <= g <= 400:  # 10^400 has 1329 bits
            q = _far_scaled(mag, e, g, 4 * digits + 64)
        else:
            num, den = (mag * _pow10(g), 1) if g >= 0 else (mag, _pow10(-g))
            if e >= 0:
                num <<= e
            else:
                den <<= -e
            q, rem = divmod(num, den)
            if 2 * rem >= den:
                q += 1
        if q >= hi:
            dec += 1
        elif q < lo:
            dec -= 1
        else:
            break
    s = str(q)
    body = s[0] + "." + s[1:] if digits > 1 else s
    sign = "-" if a.mantissa < 0 else ""
    return f"{sign}{body}e{dec:+d}"


def to_hex(a: PrecisionReal) -> str:
    """Lowercase hex float literal with binary exponent, e.g. 0x1.8p+1."""
    if not a.mantissa:
        return "0x0p+0"
    mag = abs(a.mantissa)
    L = mag.bit_length()
    top = a.exponent + L - 1
    frac_bits = L - 1
    frac = mag - (1 << frac_bits)
    pad = (-frac_bits) % 4
    nibbles = (frac_bits + pad) // 4
    body = format(frac << pad, f"0{nibbles}x").rstrip("0") if frac_bits else ""
    sign = "-" if a.mantissa < 0 else ""
    if body:
        return f"{sign}0x1.{body}p{top:+d}"
    return f"{sign}0x1p{top:+d}"


# The largest binary exponent from_hex reads. The filter's exact integers
# and the solve's are as wide as the exponents of the series they read
# lie apart, so a file's exponents are bounded: 2^27 bits is 16 MiB, and
# encode at the desk degree writes exponents below 10^6 at every c.
MAX_EXPONENT = 1 << 27


def from_hex(text: str, p: int) -> PrecisionReal:
    """Parse to_hex output; lossless for values written at precision <= p.
    A binary exponent beyond +-MAX_EXPONENT is refused."""
    s = text.strip()
    if s in ("0x0p+0", "0x0p0"):
        return R_ZERO
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    if not s.startswith("0x1"):
        raise ValueError(f"bad hex float literal: {text!r}")
    s = s[3:]
    if "p" not in s:
        raise ValueError(f"bad hex float literal: {text!r}")
    mant_s, exp_s = s.split("p", 1)
    top = int(exp_s)
    if abs(top) > MAX_EXPONENT:
        raise ValueError(f"binary exponent beyond the bound 2^27 = {MAX_EXPONENT} in magnitude")
    if mant_s == "":
        frac, frac_bits = 0, 0
    elif mant_s.startswith("."):
        frac = int(mant_s[1:], 16) if mant_s[1:] else 0
        frac_bits = 4 * len(mant_s[1:])
    else:
        raise ValueError(f"bad hex float literal: {text!r}")
    mag = (1 << frac_bits) | frac
    if (mag // (mag & -mag)).bit_length() > p:
        # the odd part holds more significant bits than the target width
        raise ValueError(f"hex literal does not fit in {p} bits: {text!r}")
    return PrecisionReal(*_round(sign * mag, top - frac_bits, p))


# ---------------------------------------------------------------------------
# PrecisionComplex
# ---------------------------------------------------------------------------


class PrecisionComplex:
    """Pair of PrecisionReal; component-wise rounding, no joint normalization."""

    __slots__ = ("re", "im")

    def __init__(self, re: PrecisionReal, im: PrecisionReal):
        self.re = re
        self.im = im

    def __repr__(self):
        return f"PrecisionComplex({self.re!r}, {self.im!r})"

    def __eq__(self, other):
        if not isinstance(other, PrecisionComplex):
            return NotImplemented
        return rcmp(self.re, other.re) == 0 and rcmp(self.im, other.im) == 0

    def is_zero(self) -> bool:
        return not self.re.mantissa and not self.im.mantissa

    def bits(self) -> tuple:
        return self.re.bits() + self.im.bits()

    def to_fractions(self) -> tuple:
        return (self.re.to_fraction(), self.im.to_fraction())


C_ZERO = PrecisionComplex(R_ZERO, R_ZERO)


def cfrom_int(re: int, im: int, p: int) -> PrecisionComplex:
    return PrecisionComplex(from_int(re, p), from_int(im, p))


def cadd(a: PrecisionComplex, b: PrecisionComplex, p: int) -> PrecisionComplex:
    return PrecisionComplex(radd(a.re, b.re, p), radd(a.im, b.im, p))


def cmul(a: PrecisionComplex, b: PrecisionComplex, p: int) -> PrecisionComplex:
    """a*b, each part rounded once from its exact value."""
    x, y, u, v = _pair(a.re), _pair(a.im), _pair(b.re), _pair(b.im)
    re, im = _exact((x, u), ((-y[0], y[1]), v)), _exact((x, v), (y, u))
    return _complex(_round(*re, p) + _round(*im, p))


def csup(a: PrecisionComplex) -> PrecisionReal:
    """max(|re|, |im|) -- the magnitude proxy of a complex residual."""
    return rmax(rabs(a.re), rabs(a.im))


# ---------------------------------------------------------------------------
# NormalizedSeries
# ---------------------------------------------------------------------------


class NormalizedSeries:
    """Truncated Taylor series sum_{k<=m} coeffs[k] t^k/k! at precision p."""

    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs, precision: int):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise SeriesConfigError("series needs at least the constant coefficient")
        self.coeffs = coeffs
        self.precision = precision

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"NormalizedSeries(m={self.degree_bound}, p={self.precision})"

    def __eq__(self, other):
        if not isinstance(other, NormalizedSeries):
            return NotImplemented
        return (
            self.precision == other.precision
            and len(self.coeffs) == len(other.coeffs)
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def bits(self) -> tuple:
        return tuple(c.bits() for c in self.coeffs)

    def truncate(self, m: int) -> "NormalizedSeries":
        """The head of degree m, coeffs[: m + 1], not re-rounded; a series
        of lower degree comes back whole, not padded."""
        return NormalizedSeries(self.coeffs[: m + 1], self.precision)

    def reround(self, p: int) -> "NormalizedSeries":
        return self if p == self.precision else _series(_quads(self, p), p)


def _quads(a: NormalizedSeries, p: int) -> list:
    """a's coefficients as raw (re_m, re_e, im_m, im_e) tuples, each part
    rounded to p bits: a p-bit mantissa or (0, 0). A part that is so
    already, or zero, passes through as _round would return it; only the
    rest is rounded."""
    out = []
    for c in a.coeffs:
        x, y = c.re, c.im
        xm, xe, ym, ye = x.mantissa, x.exponent, y.mantissa, y.exponent
        out.append(
            ((xm, xe) if xm.bit_length() == p else _round(xm, xe, p) if xm else (0, 0))
            + ((ym, ye) if ym.bit_length() == p else _round(ym, ye, p) if ym else (0, 0))
        )
    return out


def _complex(q: tuple) -> PrecisionComplex:
    return PrecisionComplex(PrecisionReal(q[0], q[1]), PrecisionReal(q[2], q[3]))


def _series(coeffs: list, p: int) -> NormalizedSeries:
    """The inverse of _quads at precision p."""
    return NormalizedSeries(map(_complex, coeffs), p)


def const_series(value: PrecisionComplex, m: int, p: int) -> NormalizedSeries:
    return NormalizedSeries([value] + [C_ZERO] * m, p)


def series_mul(a: NormalizedSeries, b: NormalizedSeries, m: int) -> NormalizedSeries:
    """Truncated product with binomial weights,
    c_k = sum_j binom(k,j) a_j b_{k-j}, each part of each c_k rounded once
    from its exact value; c_k is 0 beyond both operands' degrees."""
    if a.precision != b.precision:
        raise SeriesConfigError(f"precisions differ: {a.precision} vs {b.precision}")
    p = a.precision
    da, db = a.degree_bound, b.degree_bound
    ca, cb = ([(_pair(c.re), _pair(c.im)) for c in s.coeffs] for s in (a, b))
    out = []
    for k in range(m + 1):
        re, im = [], []
        for j in range(max(0, k - db), min(k, da) + 1):
            w = math.comb(k, j)
            (xm, xe), (ym, ye) = ca[j]
            u, v = cb[k - j]
            re += ((w * xm, xe), u), ((-w * ym, ye), v)
            im += ((w * xm, xe), v), ((w * ym, ye), u)
        out.append(_complex(_round(*_exact(*re), p) + _round(*_exact(*im), p)))
    return NormalizedSeries(out, p)


def series_eval(a: NormalizedSeries, t0: PrecisionReal) -> PrecisionComplex:
    """sum a_k f_k, the f_k = f_{k-1} t0/k of taylor_table(t0, degree,
    precision), each part rounded once from its exact value."""
    p = a.precision
    factors = [_pair(f) for f in taylor_table(t0, a.degree_bound, p)[0]]
    re = _exact(*[(_pair(c.re), f) for c, f in zip(a.coeffs, factors)])
    im = _exact(*[(_pair(c.im), f) for c, f in zip(a.coeffs, factors)])
    return _complex(_round(*re, p) + _round(*im, p))


# ---------------------------------------------------------------------------
# Series file format
# ---------------------------------------------------------------------------


def series_to_text(a: NormalizedSeries, **keys) -> str:
    """The series file: a header `series m=<m> p=<p>` plus one
    `key=<int>` field per keyword, then `<k> <re> <im>` per coefficient."""
    fields = {"m": a.degree_bound, "p": a.precision, **keys}
    lines = ["series " + " ".join(f"{k}={v}" for k, v in fields.items())]
    for k, c in enumerate(a.coeffs):
        lines.append(f"{k} {to_hex(c.re)} {to_hex(c.im)}")
    return "\n".join(lines) + "\n"


def too_many_digits(name: str, text: str) -> str | None:
    """For a decimal integer longer than Python reads from a string, the
    refusal that names its digit count instead of echoing it; else None."""
    digits, limit = text.lstrip("+-"), sys.get_int_max_str_digits()
    if digits.isdecimal() and limit and len(digits) > limit:
        return (
            f"{name} has {len(digits)} digits, more than the {limit} that Python reads "
            "from a string (sys.get_int_max_str_digits)"
        )
    return None


def series_header(text: str, *need: str) -> dict:
    """The fields of a series file's header, its first line with text:
    `series` then `key=<int>` words, m and p among them. A field named in
    need that the header lacks is refused by name."""
    line = next((ln for ln in text.splitlines() if ln.strip()), None)
    if line is None:
        raise ValueError("empty series file")
    head = line.split()
    for key, _, value in (word.partition("=") for word in head[1:]):
        if too_long := too_many_digits(key, value):
            raise ValueError(f"bad series header: {too_long}")
    try:
        fields = {key: int(value) for key, value in (word.split("=") for word in head[1:])}
        if head[0] != "series" or len(fields) != len(head) - 1 or not {"m", "p"} <= fields.keys():
            raise ValueError("not a series header")
    except ValueError as exc:
        raise ValueError(f"bad series header: {line!r}") from exc
    for key in need:
        if key not in fields:
            raise ValueError(f"series header has no {key}")
    return fields


def _header_field(key: str, fields: dict) -> str:
    """`key=<value>` as a refusal names it: `no key` when absent, and the
    value's digit count past 40 digits instead of the value."""
    if key not in fields:
        return f"no {key}"
    digits = str(fields[key])
    return f"{key}={digits}" if len(digits) <= 40 else f"{key} of {len(digits.lstrip('-'))} digits"


def series_from_text(text: str, **expect) -> NormalizedSeries:
    """The series in a series file. Given expect, the header's fields must
    be exactly expect's, m and p among them, each with its value; the
    refusal names the first field that differs, m and p checked first."""
    fields = series_header(text)
    m, p = fields["m"], fields["p"]
    if expect:
        for key in dict.fromkeys(("m", "p", *expect, *fields)):
            if fields.get(key) != expect.get(key):
                got, want = (_header_field(key, d) for d in (fields, expect))
                raise ValueError(f"series header has {got}, expected {want}")
    # by index, not a list of m + 1 slots: the header's m is not trusted
    coeffs = {}
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    for lineno, ln in lines[1:]:
        parts, field = ln.split(), "k"
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: bad series line: {ln!r}")
        try:
            k = int(parts[0])
            if not 0 <= k <= m:
                raise ValueError(f"coefficient index {k} out of range 0..{m}")
            if k in coeffs:
                raise ValueError(f"coefficient index {k} appears twice")
            field = "re"
            re = from_hex(parts[1], p)
            field = "im"
            coeffs[k] = PrecisionComplex(re, from_hex(parts[2], p))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: field {field}: {exc}") from exc
    if len(coeffs) <= m:
        missing = next(k for k in range(m + 1) if k not in coeffs)
        raise ValueError(f"coefficient index {missing} missing (need 0..{m})")
    return NormalizedSeries([coeffs[k] for k in range(m + 1)], p)


def read_series(path, *need: str) -> tuple:
    """A series file's text and its header's fields (series_header), for a
    reader that takes from the header what the rest must match."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    return text, series_header(text, *need)


def load_series(path, **expect) -> NormalizedSeries:
    return series_from_text(read_series(path)[0], **expect)

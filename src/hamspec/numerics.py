"""Arbitrary-precision binary floating point and truncated power-series arithmetic.

Values are immutable. A real is a signed integer mantissa and a binary
exponent. Every arithmetic primitive rounds its exact result to an explicit
mantissa width ``p`` (round-to-nearest, ties-to-even) through one of two
kernels: ``_round`` for an exact signed integer times a power of two, and
``_round_quotient`` for an exact ratio of two integers. Results are
correctly rounded, hence bit-reproducible on any platform.

The kernels work on bare integers and return a (mantissa, exponent) pair;
``_add`` rounds the exact sum of two pairs through ``_round``. Each
primitive (``radd``, ``rmul``, ``rdiv``, ``from_int``, ``round_to``, ...)
is a one-line wrapper that builds a PrecisionReal from the pair. Hot loops
(the filter step, ``series_eval``) call the pair kernels directly on raw
coefficients, (re_m, re_e, im_m, im_e) tuples, so they build no object per
operation and round exactly as the primitives would.

Every truncated exponential is a read of one memo, ``taylor_table(x, m,
p)``: the factors x^k/k! by the rounded recurrence, tr_m(e^x) and
tr_m(e^{-x}). A filter step's evaluation factors and decay, and the
schedule's alpha and beta, are entries of it.

Series are stored with normalized coefficients: ``coeffs[k]`` holds
``a_k`` in ``sum a_k t^k / k!``, which turns integration into an index
shift and keeps exponential series exact before rounding.
"""

from __future__ import annotations

import functools
import math
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

    def __hash__(self):
        # Consistent with the value-based __eq__: the same value rounded to
        # two precisions differs only in trailing zero bits of the mantissa.
        m = self.mantissa
        if not m:
            return 0
        tz = (m & -m).bit_length() - 1
        return hash((m >> tz, self.exponent + tz))

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
    low = ta - p - 3  # min(ae - 1, ta - p - 3), unrolled: this is the hottest call
    if low >= ae:
        low = ae - 1
    if tb <= low:
        return _round((am << (ae - low)) + (1 if bm > 0 else -1), low, p)
    if ae <= be:
        return _round(am + (bm << (be - ae)), ae, p)
    return _round((am << (ae - be)) + bm, be, p)


def round_to(a: PrecisionReal, p: int) -> PrecisionReal:
    return PrecisionReal(*_round(a.mantissa, a.exponent, p))


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


def rmul_int(a: PrecisionReal, k: int, p: int) -> PrecisionReal:
    """a*k for exact integer k, with a single rounding."""
    return PrecisionReal(*_round(a.mantissa * k, a.exponent, p))


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


@functools.lru_cache(maxsize=64)
def taylor_table(x: PrecisionReal, m: int, p: int) -> tuple:
    """(factors, tr_m(e^x), tr_m(e^{-x})) at p bits: the factors are f_0 = 1
    and f_k = f_{k-1} x/k, each step rounded; both sums add them ascending.

    The recurrence at -x gives exactly (-1)^k f_k, since correct rounding is
    symmetric in sign, so tr_m(e^{-x}) alternates adding and subtracting the
    same factors. The key is x's value: every operation is correctly
    rounded, so x rounded at another precision gives the same bits."""
    f = from_int(1, p)
    factors, up, down = [f], f, f
    for k in range(1, m + 1):
        f = rdiv_int(rmul(f, x, p), k, p)
        factors.append(f)
        up = radd(up, f, p)
        down = rsub(down, f, p) if k & 1 else radd(down, f, p)
    return tuple(factors), up, down


def truncated_exp(x: PrecisionReal, m: int, p: int) -> PrecisionReal:
    """sum_{i=0..m} x^i/i!: the taylor_table entry."""
    return taylor_table(x, m, p)[1]


def to_decimal(a: PrecisionReal, digits: int = 20) -> str:
    """Exact-integer-math decimal rendering, deterministic."""
    if not a.mantissa:
        return "0"
    mag = abs(a.mantissa)
    top = a.exponent + mag.bit_length() - 1
    dec = math.floor(top * 0.3010299956639812)
    # scaled = round(|a| * 10^(digits-1-dec)) with exact integer arithmetic
    while True:
        g = digits - 1 - dec
        num = mag * (10 ** g if g >= 0 else 1) * (1 << a.exponent if a.exponent >= 0 else 1)
        den = (10 ** -g if g < 0 else 1) * (1 << -a.exponent if a.exponent < 0 else 1)
        q, rem = divmod(num, den)
        if 2 * rem >= den:
            q += 1
        if q >= 10 ** digits:
            dec += 1
            continue
        if q < 10 ** (digits - 1):
            dec -= 1
            continue
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


def from_hex(text: str, p: int) -> PrecisionReal:
    """Parse to_hex output; lossless for values written at precision <= p."""
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

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return not self.re.mantissa and not self.im.mantissa

    def bits(self) -> tuple:
        return self.re.bits() + self.im.bits()

    def to_fractions(self) -> tuple:
        return (self.re.to_fraction(), self.im.to_fraction())


C_ZERO = PrecisionComplex(R_ZERO, R_ZERO)


def cfrom_int(re: int, im: int, p: int) -> PrecisionComplex:
    return PrecisionComplex(from_int(re, p), from_int(im, p))


def cone(p: int) -> PrecisionComplex:
    return PrecisionComplex(from_int(1, p), R_ZERO)


def cadd(a: PrecisionComplex, b: PrecisionComplex, p: int) -> PrecisionComplex:
    return PrecisionComplex(radd(a.re, b.re, p), radd(a.im, b.im, p))


def cmul(a: PrecisionComplex, b: PrecisionComplex, p: int) -> PrecisionComplex:
    re = rsub(rmul(a.re, b.re, p), rmul(a.im, b.im, p), p)
    im = radd(rmul(a.re, b.im, p), rmul(a.im, b.re, p), p)
    return PrecisionComplex(re, im)


def cmul_int(a: PrecisionComplex, k: int, p: int) -> PrecisionComplex:
    return PrecisionComplex(rmul_int(a.re, k, p), rmul_int(a.im, k, p))


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
        """Drop coefficients above degree m (no re-rounding); pad with zeros."""
        cs = list(self.coeffs[: m + 1])
        while len(cs) < m + 1:
            cs.append(C_ZERO)
        return NormalizedSeries(cs, self.precision)

    def reround(self, p: int) -> "NormalizedSeries":
        return self if p == self.precision else _series(_quads(self, p), p)


def _quads(a: NormalizedSeries, p: int) -> list:
    """a's coefficients as raw (re_m, re_e, im_m, im_e) tuples, rounded to
    p bits unless a is at precision p already."""
    if a.precision == p:
        return [(c.re.mantissa, c.re.exponent, c.im.mantissa, c.im.exponent) for c in a.coeffs]
    return [
        _round(c.re.mantissa, c.re.exponent, p) + _round(c.im.mantissa, c.im.exponent, p)
        for c in a.coeffs
    ]


def _complex(q: tuple) -> PrecisionComplex:
    return PrecisionComplex(PrecisionReal(q[0], q[1]), PrecisionReal(q[2], q[3]))


def _series(coeffs: list, p: int) -> NormalizedSeries:
    """The inverse of _quads at precision p."""
    return NormalizedSeries(map(_complex, coeffs), p)


def zero_series(m: int, p: int) -> NormalizedSeries:
    return NormalizedSeries([C_ZERO] * (m + 1), p)


def const_series(value: PrecisionComplex, m: int, p: int) -> NormalizedSeries:
    return NormalizedSeries([value] + [C_ZERO] * m, p)


def series_add(a: NormalizedSeries, b: NormalizedSeries) -> NormalizedSeries:
    if a.degree_bound != b.degree_bound:
        raise SeriesConfigError(
            f"degree bounds differ: {a.degree_bound} vs {b.degree_bound}"
        )
    if a.precision != b.precision:
        raise SeriesConfigError(f"precisions differ: {a.precision} vs {b.precision}")
    p = a.precision
    return NormalizedSeries(
        [cadd(x, y, p) for x, y in zip(a.coeffs, b.coeffs)], p
    )


def series_mul(a: NormalizedSeries, b: NormalizedSeries, m: int) -> NormalizedSeries:
    """Truncated product with binomial weights:
    c_k = sum_j binom(k,j) a_j b_{k-j}.

    Terms are accumulated in mirror pairs (j, k-j) ascending, which makes the
    operation bit-exactly commutative for same-shape operands while keeping a
    fixed deterministic reduction order.
    """
    if a.precision != b.precision:
        raise SeriesConfigError(f"precisions differ: {a.precision} vs {b.precision}")
    p = a.precision
    da, db = a.degree_bound, b.degree_bound
    ca, cb = a.coeffs, b.coeffs
    comb = math.comb
    out = []
    for k in range(m + 1):
        lo = max(0, k - db)
        hi = min(k, da)
        acc = C_ZERO
        for j in range(lo, hi + 1):
            j2 = k - j
            mirror_in_range = lo <= j2 <= hi and j2 <= da and k - j2 <= db
            if mirror_in_range and j2 < j:
                continue  # already accumulated as the mirror of j2
            aj, bk = ca[j], cb[j2]
            if aj.is_zero() or bk.is_zero():
                term = C_ZERO
            else:
                term = cmul_int(cmul(aj, bk, p), comb(k, j), p)
            if mirror_in_range and j2 > j:
                am, bm = ca[j2], cb[j]
                if am.is_zero() or bm.is_zero():
                    term2 = C_ZERO
                else:
                    term2 = cmul_int(cmul(am, bm, p), comb(k, j2), p)
                term = cadd(term, term2, p)
            acc = cadd(acc, term, p)
        out.append(acc)
    return NormalizedSeries(out, p)


def series_eval(a: NormalizedSeries, t0: PrecisionReal) -> PrecisionComplex:
    """sum a_k t0^k/k!, ascending k, against the factors f_k = f_{k-1} t0/k
    of taylor_table(t0, degree, precision), solved once per key."""
    p = a.precision
    return _complex(_eval(_quads(a, p), taylor_table(t0, a.degree_bound, p)[0], p))


def _eval(coeffs: list, factors: tuple, p: int) -> tuple:
    """series_eval on raw coefficients: each term coeff*f_k rounded, then
    added to the running sum; coefficients with both parts zero are skipped."""
    wm = we = zm = ze = 0
    for (cm, ce, dm, de), f in zip(coeffs, factors):
        if cm or dm:
            fm, fe = f.mantissa, f.exponent
            tm, te = _round(cm * fm, ce + fe, p)
            wm, we = _add(wm, we, tm, te, p)
            tm, te = _round(dm * fm, de + fe, p)
            zm, ze = _add(zm, ze, tm, te, p)
    return wm, we, zm, ze


def exp_series(lam: PrecisionComplex, m: int, p: int) -> NormalizedSeries:
    """Series of e^{lam t}: a_k = lam^k by repeated rounded multiplication."""
    coeffs = [cone(p)]
    for _ in range(m):
        coeffs.append(cmul(coeffs[-1], lam, p))
    return NormalizedSeries(coeffs, p)


# ---------------------------------------------------------------------------
# Series file format
# ---------------------------------------------------------------------------


def series_to_text(a: NormalizedSeries) -> str:
    lines = [f"series m={a.degree_bound} p={a.precision}"]
    for k, c in enumerate(a.coeffs):
        lines.append(f"{k} {to_hex(c.re)} {to_hex(c.im)}")
    return "\n".join(lines) + "\n"


def series_from_text(text: str) -> NormalizedSeries:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty series file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "series":
        raise ValueError(f"bad series header: {lines[0]!r}")
    try:
        m = int(head[1].removeprefix("m="))
        p = int(head[2].removeprefix("p="))
    except ValueError as exc:
        raise ValueError(f"bad series header: {lines[0]!r}") from exc
    coeffs = [None] * (m + 1)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad series line: {ln!r}")
        k = int(parts[0])
        if not 0 <= k <= m:
            raise ValueError(f"coefficient index {k} out of range 0..{m}")
        if coeffs[k] is not None:
            raise ValueError(f"coefficient index {k} appears twice")
        coeffs[k] = PrecisionComplex(from_hex(parts[1], p), from_hex(parts[2], p))
    if None in coeffs:
        raise ValueError(f"coefficient index {coeffs.index(None)} missing (need 0..{m})")
    return NormalizedSeries(coeffs, p)

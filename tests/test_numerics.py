"""Kernel arithmetic against exact rational references, plus series algebra."""

import math
import random
import re
from fractions import Fraction

import pytest

from hamspec.numerics import (
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    R_ZERO,
    SeriesConfigError,
    _add,
    _add_p,
    _round,
    cfrom_int,
    cmul,
    from_fraction,
    from_hex,
    from_int,
    from_ratio,
    rabs,
    radd,
    rcmp,
    rdiv,
    rdiv_int,
    rmul,
    rneg,
    rsub,
    series_eval,
    series_from_text,
    series_header,
    series_mul,
    series_to_text,
    taylor_table,
    to_decimal,
    to_hex,
)
from conftest import (
    exp_fraction,
    exp_series,
    reference_truncated_exp,
    round_nearest_even_fraction,
    trunc_exp_fraction,
)


def rand_fraction(rng, mag=40):
    num = rng.randrange(-(1 << mag), 1 << mag) or 1
    den = rng.randrange(1, 1 << mag)
    return Fraction(num, den)


def assert_correctly_rounded(x: Fraction, got: PrecisionReal, p: int):
    assert round_nearest_even_fraction(x, p) == got.bits()


class TestRounding:
    def test_from_int_exact_below_p_bits(self):
        v = from_int(6, 16)
        assert v.to_fraction() == 6
        assert v.mantissa.bit_length() == 16

    def test_normalized_form_unique(self):
        a = from_ratio(1, 3, 64)
        b = from_fraction(Fraction(1, 3), 64)
        assert a.bits() == b.bits()
        assert a.mantissa.bit_length() == 64

    def test_ties_to_even(self):
        # 0b10101 at p=4 sits exactly between 0b1010 and 0b1011 -> even wins
        v = from_int(0b10101, 4)
        assert v.mantissa == 0b1010 and v.to_fraction() == 20

    def test_randomized_against_fraction_reference(self):
        # each operand has its own width, and the result a third one
        widths = (8, 16, 53, 256, 512)
        rng = random.Random(101)
        for _ in range(400):
            wa, wb = rng.choice(widths), rng.choice(widths)
            p = rng.choice((24, 53, 256))
            x, y = rand_fraction(rng), rand_fraction(rng)
            a, b = from_fraction(x, wa), from_fraction(y, wb)
            xa, yb = a.to_fraction(), b.to_fraction()
            assert_correctly_rounded(x, a, wa)
            assert_correctly_rounded(xa + yb, radd(a, b, p), p)
            assert_correctly_rounded(xa * yb, rmul(a, b, p), p)
            assert_correctly_rounded(xa / yb, rdiv(a, b, p), p)
            k = rng.choice((1, -1)) * rng.randrange(1, 1 << wb)
            assert_correctly_rounded(xa / k, rdiv_int(a, k, p), p)
            num = rng.randrange(-(1 << wa), 1 << wa) or 1
            den = rng.randrange(1, 1 << wb)
            assert_correctly_rounded(Fraction(num, -den), from_ratio(num, -den, p), p)

    def test_huge_exponent_gap_addition_sticky(self):
        p = 32
        big = from_int(1, p)
        tiny = PrecisionReal(1 << (p - 1), -4000 - (p - 1))  # 2^-4000
        s = radd(big, tiny, p)
        assert s == big  # rounds back to 1
        d = radd(big, rneg(tiny), p)
        assert d == big  # nearest to 1 - 2^-4000 at 32 bits is 1
        x = from_fraction(Fraction(1, 1 << 1000), p)
        assert radd(R_ZERO, x, p).bits() == radd(x, R_ZERO, p).bits() == x.bits()
        # a 45-bit operand just above the 24-bit midpoint 2^24 + 1: a tiny
        # negative addend moves the sum below it, so it rounds down
        p = 24
        wide = from_fraction(Fraction((1 << 24) + 1) + Fraction(1, 1 << 20), 45)
        tiny = from_fraction(Fraction(-1, 1 << 10), p)
        x = wide.to_fraction() + tiny.to_fraction()
        assert radd(wide, tiny, p).bits() == round_nearest_even_fraction(x, p)
        assert radd(tiny, wide, p).bits() == round_nearest_even_fraction(x, p)

    def test_sticky_path_on_wide_operands(self):
        # a wider than p, b wholly below a's last bit: only the sticky bit's
        # sign tells which side of a p-bit midpoint the sum falls, and an a
        # of exactly p+3 bits must still be widened before it is folded in
        rng = random.Random(17)
        for _ in range(400):
            p = rng.choice((24, 53))
            extra = rng.randrange(1, 9)
            half = 1 << (extra - 1)
            low = rng.choice((half, half - 1, half + 1, 0, 1, (1 << extra) - 1)) % (1 << extra)
            mant = (rng.randrange(1 << (p - 1), 1 << p) << extra) | low
            a = PrecisionReal(rng.choice((1, -1)) * mant, rng.randrange(-40, 40))
            b = PrecisionReal(rng.choice((1, -1)) << (p - 1), a.exponent - rng.randrange(p + 4, 400))
            want = round_nearest_even_fraction(a.to_fraction() + b.to_fraction(), p)
            assert radd(a, b, p).bits() == radd(b, a, p).bits() == want

    def test_exact_int_scaling(self):
        p = 64
        a = from_fraction(Fraction(3, 7), p)
        assert_correctly_rounded(a.to_fraction() / 12, rdiv_int(a, 12, p), p)

    def test_cancellation_and_sticky_paths(self):
        # adversarial alignment cases: near-total cancellation, exponent
        # gaps straddling the sticky guard, and exact half-ulp ties
        rng = random.Random(2026)
        for _ in range(600):
            p = rng.choice((8, 24, 53, 256))
            m = rng.randrange(1 << (p - 1), 1 << p)
            e = rng.randrange(-50, 50)
            a = PrecisionReal(m, e)
            pos = rng.randrange(-p - 8, p)
            eps = Fraction(rng.choice((1, -1)) * rng.randrange(1, 8)) * Fraction(2) ** (e + pos)
            b = from_fraction(a.to_fraction() + eps, p)
            for x, got in (
                (a.to_fraction() - b.to_fraction(), rsub(a, b, p)),
                (a.to_fraction() + b.to_fraction(), radd(a, b, p)),
            ):
                want = round_nearest_even_fraction(x, p) if x else (0, 0, 0)
                assert got.bits() == want
        for _ in range(600):
            p = rng.choice((8, 24, 53, 256))
            a = PrecisionReal(rng.randrange(1 << (p - 1), 1 << p), 0)
            gap = rng.randrange(p - 1, p + 9)
            b = PrecisionReal(
                rng.choice((1, -1)) * rng.randrange(1 << (p - 1), 1 << p), -gap - p
            )
            x = a.to_fraction() + b.to_fraction()
            assert radd(a, b, p).bits() == round_nearest_even_fraction(x, p)
        for _ in range(300):
            p = rng.choice((8, 24, 53))
            a = PrecisionReal(rng.randrange(1 << (p - 1), 1 << p), 0)
            b = PrecisionReal(rng.choice((1, -1)) * (1 << (p - 1)), -(2 * p - 1))
            x = a.to_fraction() + b.to_fraction()
            assert radd(a, b, p).bits() == round_nearest_even_fraction(x, p)

    @pytest.mark.parametrize("p", [24, 53, 256])
    def test_add_p_matches_add_on_p_bit_operands(self, p):
        # _add_p reads widths off the exponents and inlines _round: on p-bit
        # operands and (0, 0) it must give _add's pair, and _round's of the
        # exact sum, in either order
        rng = random.Random(p)
        top = (1 << p) - 1
        half = 1 << (p - 1)

        def mant():
            return rng.choice((1, -1)) * rng.randrange(half, top + 1)

        cases = [
            ((mant(), 5), (mant(), 5)),  # equal exponents
            ((mant(), 0), (mant(), -p - 2)),  # the last gap summed exactly
            ((mant(), 0), (mant(), -p - 3)),  # the first gap folded to a sticky bit
            ((top, 0), (-half, -p - 2)),
            ((-top, 0), (half, -p - 3)),
            ((half, 0), (-top, -p - 1)),  # a borrow that only the summed gap rounds right
            ((top, 9), (-top, 9)),  # exact cancellation to (0, 0)
            ((top, 0), (half, -p)),  # a tie that carries up to 2^p
            ((-top, 0), (-half, -p)),  # a negative sum that floors to -2^p
            ((mant(), 3), (0, 0)),
            ((0, 0), (mant(), -3)),
            ((0, 0), (0, 0)),
        ]
        for _ in range(500):
            ea = rng.randrange(-4 * p, 4 * p)
            gap = rng.choice((rng.randrange(0, p + 6), rng.randrange(0, 3 * p)))
            cases.append(((mant(), ea), (mant(), ea - gap * rng.choice((1, -1)))))
        for (am, ae), (bm, be) in cases:
            low = min(ae, be)
            want = _round((am << (ae - low)) + (bm << (be - low)), low, p)
            assert _add_p(am, ae, bm, be, p) == _add_p(bm, be, am, ae, p) == want
            assert _add(am, ae, bm, be, p) == want

    def test_compare_exact(self):
        p = 48
        a = from_fraction(Fraction(1, 3), p)
        b = from_fraction(Fraction(1, 3), p)
        assert rcmp(a, b) == 0
        assert rcmp(a, from_fraction(Fraction(1, 2), p)) < 0
        assert rcmp(a, rneg(b)) > 0
        assert rcmp(R_ZERO, a) < 0
        assert rcmp(R_ZERO, rneg(a)) > 0
        # negation and absolute value, of zero and of negatives
        assert rneg(R_ZERO).bits() == rabs(R_ZERO).bits() == (0, 0, 0)
        assert rneg(rneg(a)).bits() == rabs(rneg(a)).bits() == a.bits()
        assert rabs(a).bits() == a.bits()


class TestSerialization:
    def test_hex_examples(self):
        assert to_hex(from_int(3, 8)) == "0x1.8p+1"
        assert to_hex(R_ZERO) == "0x0p+0"
        assert to_hex(from_int(-1, 8)) == "-0x1p+0"
        # trailing zero digits beyond the target width still fit
        assert from_hex("0x1.8000p+0", 2).bits() == from_fraction(Fraction(3, 2), 2).bits()

    def test_round_trip_bit_identical(self):
        rng = random.Random(77)
        for _ in range(300):
            p = rng.choice((24, 53, 256, 512))
            x = rand_fraction(rng) * Fraction(2) ** rng.randrange(-900, 900)
            v = from_fraction(x, p)
            back = from_hex(to_hex(v), p)
            assert back.bits() == v.bits()

    def test_series_file_round_trip(self):
        p = 128
        s = NormalizedSeries(
            [
                cfrom_int(2, 0, p),
                PrecisionComplex(from_fraction(Fraction(-7, 3), p), from_int(5, p)),
                cfrom_int(0, 0, p),
            ],
            p,
        )
        text = series_to_text(s)
        assert text.splitlines()[0] == "series m=2 p=128"
        back = series_from_text(text)
        assert back.bits() == s.bits()
        assert back.precision == p

    def test_series_file_errors(self):
        with pytest.raises(ValueError, match="header"):
            series_from_text("bogus m=2 p=64\n")
        with pytest.raises(ValueError, match="out of range"):
            series_from_text("series m=1 p=64\n3 0x1p+0 0x0p+0\n")
        with pytest.raises(ValueError, match="series line"):
            series_from_text("series m=1 p=64\n0 0x1p+0\n")
        # a bad field names its line, blank lines counted, and the field
        with pytest.raises(ValueError, match=r"^line 3: field k: invalid literal for int\(\)"):
            series_from_text("series m=1 p=64\n\nx 0x1p+0 0x0p+0\n")
        with pytest.raises(ValueError, match=r"^line 3: field im: bad hex float literal: '1\.5'$"):
            series_from_text("series m=1 p=64\n0 0x1p+0 0x0p+0\n1 0x0p+0 1.5\n")
        with pytest.raises(ValueError, match="empty"):
            series_from_text("\n\n")
        # every index 0..m exactly once: a truncated file and a repeated line
        with pytest.raises(ValueError, match="index 1 missing"):
            series_from_text("series m=2 p=64\n0 0x1p+0 0x0p+0\n2 0x1p+0 0x0p+0\n")
        with pytest.raises(ValueError, match="index 0 appears twice"):
            series_from_text("series m=1 p=64\n0 0x1p+0 0x0p+0\n0 0x1p+1 0x0p+0\n1 0x0p+0 0x0p+0\n")
        # the header's m is not an allocation: a huge m with one line is a
        # missing index, not a MemoryError with no message
        with pytest.raises(ValueError, match=r"^coefficient index 1 missing \(need 0..1000000000000\)$"):
            series_from_text("series m=1000000000000 p=512 c=1099511627776\n0 0x1p+0 0x0p+0\n")
        for head in ("series m=1 p=64 c", "series m=1 p=64 c=x", "series m=1 c=2", "series m=1 p=64 m=1"):
            with pytest.raises(ValueError, match="bad series header"):
                series_from_text(head + "\n0 0x1p+0 0x0p+0\n1 0x1p+0 0x0p+0\n")

    def test_series_header_keys(self):
        s = NormalizedSeries([cfrom_int(1, 0, 64), cfrom_int(0, 1, 64)], 64)
        text = series_to_text(s, n_d1=64, r_mu=2)
        assert text.splitlines()[0] == "series m=1 p=64 n_d1=64 r_mu=2"
        # without expect any key=<int> fields pass; with it, exactly expect's
        assert series_from_text(text).bits() == s.bits()
        assert series_from_text(text, m=1, p=64, n_d1=64, r_mu=2).bits() == s.bits()
        # the header alone, for a reader that takes a field from it first
        assert series_header(text) == {"m": 1, "p": 64, "n_d1": 64, "r_mu": 2}
        assert series_header(text, "r_mu") == series_header(text)
        with pytest.raises(ValueError, match="^series header has no n$"):
            series_header(text, "n_d1", "n")
        refusals = [
            (dict(m=2, p=32, n_d1=64, r_mu=2), "has m=1, expected m=2"),  # m, then p, first
            (dict(m=1, p=32, n_d1=64, r_mu=2), "has p=64, expected p=32"),
            (dict(m=1, p=64, n_d1=64, r_mu=3), "has r_mu=2, expected r_mu=3"),
            (dict(m=1, p=64, n_d1=64, r_mu=2, r_1=16), "has no r_1, expected r_1=16"),
            (dict(m=1, p=64, n_d1=64), "has r_mu=2, expected no r_mu"),
        ]
        for expect, message in refusals:
            with pytest.raises(ValueError, match=f"^series header {message}$"):
                series_from_text(text, **expect)

    def test_hex_parse_errors(self):
        with pytest.raises(ValueError):
            from_hex("0x2.8p+1", 64)
        with pytest.raises(ValueError):
            from_hex("1.5e3", 64)
        # more mantissa bits than the target width can represent
        with pytest.raises(ValueError, match="does not fit"):
            from_hex("0x1.fffffffb1p+0", 16)

    def test_decimal_rendering(self):
        assert to_decimal(from_int(2, 64), 5) == "2.0000e+0"
        assert to_decimal(from_fraction(Fraction(-1, 8), 64), 4) == "-1.250e-1"
        assert to_decimal(R_ZERO) == "0"

    @pytest.mark.parametrize("digits", [1, 5, 20, 25])
    def test_decimal_rendering_is_the_exact_rounding(self, digits):
        # against |x| rounded half up at `digits` significant digits in
        # Fractions; the nines round up to the next power of ten, and the
        # integers ending in 5 one digit below `digits` are exact ties
        def exact(x: Fraction) -> str:
            mag, dec = abs(x), 0
            while mag >= 10 ** (dec + 1):
                dec += 1
            while mag < Fraction(10) ** dec:
                dec -= 1
            y = mag * Fraction(10) ** (digits - 1 - dec)
            q = math.floor(y + Fraction(1, 2))
            if q == 10**digits:
                q, dec = 10 ** (digits - 1), dec + 1
            s = str(q)
            body = s[0] + "." + s[1:] if digits > 1 else s
            return f"{'-' if x < 0 else ''}{body}e{dec:+d}"

        rng = random.Random(digits)
        values = [
            PrecisionReal(rng.choice((-1, 1)) * (rng.getrandbits(p - 1) | 1 << p - 1), e)
            for p in (1, 8, 53, 256)
            for e in (-400, -90, -60, -3, 0, 2, 40, 300)
            for _ in range(3)
        ]
        nines = [Fraction(10**k - 1, 10**j) for k in (1, 5, 20, 26, 30) for j in (0, 3, 40)]
        values += [from_fraction(x, 256) for x in nines]
        values += [from_fraction(-x, 256) for x in nines]
        ties = [10 * rng.randrange(10 ** (digits - 1), 10**digits) + 5 for _ in range(8)]
        values += [from_int(t, 256) for t in ties] + [from_int(-t, 256) for t in ties]
        for v in values:
            assert to_decimal(v, digits) == exact(v.to_fraction())

    @pytest.mark.parametrize("digits", [1, 5, 25])
    def test_decimal_rendering_far_from_one(self, digits):
        # exponents of thousands of bits, where to_decimal brackets 10^|g|,
        # and exact ties (n + 1/2)*10^k and the integers just under them,
        # near (exact path) and far, where the bracket straddles the
        # boundary and 10^k decides: the printed q is |x|*10^g rounded
        # half up, with exactly `digits` digits
        rng = random.Random(digits)
        values = [
            PrecisionReal(rng.choice((-1, 1)) * (rng.getrandbits(p - 1) | 1 << p - 1), e)
            for p in (1, 53, 256)
            for e in (-100000, -5000, 5000, 100000)
        ]
        for k in (40, 60, 90, 500):
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            values.append(PrecisionReal((2 * n + 1) * 5**k, k - 1))
            values.append(PrecisionReal(((2 * n + 1) * 5**k << k - 1) - 1, 0))
        for v in values:
            text = to_decimal(v, digits)
            sign, body, dec = re.fullmatch(r"(-?)(\d(?:\.\d+)?)e([+-]\d+)", text).groups()
            q, g = int(body.replace(".", "")), digits - 1 - int(dec)
            assert len(str(q)) == digits and (sign == "-") == (v.mantissa < 0)
            assert q == math.floor(abs(v.to_fraction()) * Fraction(10) ** g + Fraction(1, 2))


class TestRoundedOnce:
    """cmul, series_mul and series_eval round each part of each result once
    from its exact value: each equals the Fraction result, correctly
    rounded. Parts are seeded p-bit values or zero, their exponents close
    together or hundreds of bits apart."""

    @staticmethod
    def value(rng, p):
        def part():
            if rng.random() < 0.2:
                return R_ZERO
            e = rng.choice((-300, -200, 0, 0, 0, 200, 300)) + rng.randrange(-8, 9) - p
            return PrecisionReal(rng.choice((1, -1)) * rng.randrange(1 << (p - 1), 1 << p), e)

        return PrecisionComplex(part(), part())

    @staticmethod
    def assert_rounded(got, re, im, p):
        assert got.bits() == round_nearest_even_fraction(re, p) + round_nearest_even_fraction(im, p)

    @pytest.mark.parametrize("p", [24, 53, 256])
    def test_cmul(self, p):
        rng = random.Random(p)
        for _ in range(400):
            a, b = self.value(rng, p), self.value(rng, p)
            (x, y), (u, v) = a.to_fractions(), b.to_fractions()
            self.assert_rounded(cmul(a, b, p), x * u - y * v, x * v + y * u, p)

    @pytest.mark.parametrize("p", [24, 53, 256])
    def test_series_mul(self, p):
        rng = random.Random(p + 1)
        for da, db in ((5, 5), (2, 6), (6, 1), (0, 4), (3, 0)):
            a = NormalizedSeries([self.value(rng, p) for _ in range(da + 1)], p)
            b = NormalizedSeries([self.value(rng, p) for _ in range(db + 1)], p)
            m = da + db + 2
            prod = series_mul(a, b, m)
            assert prod.degree_bound == m
            for k, got in enumerate(prod.coeffs):
                terms = [
                    (math.comb(k, j), a.coeffs[j].to_fractions(), b.coeffs[k - j].to_fractions())
                    for j in range(max(0, k - db), min(k, da) + 1)
                ]
                re = sum(w * (x * u - y * v) for w, (x, y), (u, v) in terms)
                im = sum(w * (x * v + y * u) for w, (x, y), (u, v) in terms)
                self.assert_rounded(got, Fraction(re), Fraction(im), p)

    @pytest.mark.parametrize("p", [24, 53, 256])
    def test_series_eval(self, p):
        rng = random.Random(p + 2)
        for m in (0, 1, 4, 9, 16):
            for _ in range(6):
                a = NormalizedSeries([self.value(rng, p) for _ in range(m + 1)], p)
                t0 = from_fraction(rand_fraction(rng, 12), p)
                factors = [f.to_fraction() for f in taylor_table(t0, m, p)[0]]
                re = sum(c.re.to_fraction() * f for c, f in zip(a.coeffs, factors))
                im = sum(c.im.to_fraction() * f for c, f in zip(a.coeffs, factors))
                self.assert_rounded(series_eval(a, t0), Fraction(re), Fraction(im), p)


class TestSeriesMul:
    def test_exponential_product_law(self):
        p = 128
        m = 12
        a = exp_series(cfrom_int(0, 2, p), m, p)
        b = exp_series(cfrom_int(0, 3, p), m, p)
        prod = series_mul(a, b, m)
        expect = exp_series(cfrom_int(0, 5, p), m, p)
        assert prod == expect  # (2i+3i)^k exact in 128 bits for k <= 12

    def test_multiplicative_identity(self):
        p = 64
        a = exp_series(cfrom_int(1, 1, p), 8, p)
        one = NormalizedSeries([cfrom_int(1, 0, p)] + [cfrom_int(0, 0, p)] * 8, p)
        assert series_mul(a, one, 8) == a

    def test_config_errors(self):
        # an empty series, and operands at two precisions
        with pytest.raises(SeriesConfigError):
            NormalizedSeries([], 64)
        a = exp_series(cfrom_int(1, 0, 64), 3, 64)
        with pytest.raises(SeriesConfigError):
            series_mul(a, a.reround(128), 3)

    def test_binomial_weight(self):
        # t * t = 2 * t^2/2!: normalized coefficient picks up binom(2,1)
        p = 64
        t = NormalizedSeries([cfrom_int(0, 0, p), cfrom_int(1, 0, p), cfrom_int(0, 0, p)], p)
        sq = series_mul(t, t, 2)
        assert [c.re.to_fraction() for c in sq.coeffs] == [0, 0, 2]

    def test_commutative_bit_exact(self):
        p = 96
        rng = random.Random(5)
        m = 9
        a = NormalizedSeries(
            [PrecisionComplex(from_fraction(rand_fraction(rng), p), from_fraction(rand_fraction(rng), p)) for _ in range(m + 1)], p
        )
        b = NormalizedSeries(
            [PrecisionComplex(from_fraction(rand_fraction(rng), p), from_fraction(rand_fraction(rng), p)) for _ in range(m + 1)], p
        )
        ab = series_mul(a, b, m)
        ba = series_mul(b, a, m)
        assert ab.bits() == ba.bits()

    def test_associative_within_bound(self):
        p = 128
        m = 8
        rng = random.Random(9)
        mk = lambda: NormalizedSeries(
            [PrecisionComplex(from_fraction(rand_fraction(rng, 10), p), from_fraction(rand_fraction(rng, 10), p)) for _ in range(m + 1)],
            p,
        )
        a, b, c = mk(), mk(), mk()
        left = series_mul(series_mul(a, b, m), c, m)
        right = series_mul(a, series_mul(b, c, m), m)
        bound = Fraction(2) ** (-p + (m + 1).bit_length() + 2)
        for lc, rc in zip(left.coeffs, right.coeffs):
            for lx, rx in ((lc.re, rc.re), (lc.im, rc.im)):
                scale = max(abs(lx.to_fraction()), abs(rx.to_fraction()), Fraction(1))
                assert abs(lx.to_fraction() - rx.to_fraction()) <= bound * scale

    def test_exp_times_inverse_exp(self):
        p = 128
        m = 10
        rng = random.Random(31)
        for _ in range(10):
            lam = PrecisionComplex(
                from_fraction(rand_fraction(rng, 8) % 2, p),
                from_fraction(rand_fraction(rng, 8) % 2, p),
            )
            prod = series_mul(exp_series(lam, m, p), exp_series(cneg_c(lam), m, p), m)
            assert prod.coeffs[0].re.to_fraction() == 1
            assert prod.coeffs[0].im.is_zero()
            bound = Fraction(2) ** (-(p // 2))
            for c in prod.coeffs[1:]:
                assert abs(c.re.to_fraction()) <= bound
                assert abs(c.im.to_fraction()) <= bound


def cneg_c(z):
    return PrecisionComplex(rneg(z.re), rneg(z.im))


class TestSeriesEval:
    def test_constant(self):
        p = 64
        s = NormalizedSeries([cfrom_int(7, -2, p)], p)
        v = series_eval(s, from_int(123, p))
        assert v.re.to_fraction() == 7 and v.im.to_fraction() == -2

    def test_degree_one_decay(self):
        p = 64
        s = NormalizedSeries([cfrom_int(1, 0, p), cfrom_int(-1, 0, p)], p)
        v = series_eval(s, from_fraction(Fraction(1, 2), p))
        assert v.re.to_fraction() == Fraction(1, 2)

    def test_truncated_decay_against_exponential_oracle(self):
        # value of sum_{k<=64} (-16)^k/k! versus true e^{-16}; the truncation
        # itself dominates: measured relative error is 1.606e-6 ~ 2^-19.25
        p = 256
        m = 64
        s = exp_series(cfrom_int(-1, 0, p), m, p)
        got = series_eval(s, from_int(16, p)).re.to_fraction()
        truth = exp_fraction(Fraction(-16))
        rel = abs(got - truth) / truth
        assert Fraction(2) ** -20 < rel < Fraction(2) ** -19
        # rounding residual sits far below the truncation error; the bound
        # scales with the largest alternating term (16^16/16! ~ 2^20) that
        # cancels down to ~2^-23
        exact = trunc_exp_fraction(Fraction(-16), m)
        assert abs(got - exact) / exact < Fraction(2) ** -200

    def test_double_precision_agreement(self):
        p = 96
        m = 12
        rng = random.Random(13)
        coeffs = [
            PrecisionComplex(from_fraction(rand_fraction(rng, 12), 2 * p), from_fraction(rand_fraction(rng, 12), 2 * p))
            for _ in range(m + 1)
        ]
        hi = NormalizedSeries(coeffs, 2 * p)
        lo = hi.reround(p)
        t0 = Fraction(3, 7)
        v_hi = series_eval(hi, from_fraction(t0, 2 * p))
        v_lo = series_eval(lo, from_fraction(t0, p))
        bound = Fraction(2) ** (-p + (m + 1).bit_length() + 2)
        for a, b in ((v_hi.re, v_lo.re), (v_hi.im, v_lo.im)):
            scale = max(abs(a.to_fraction()), Fraction(1))
            assert abs(a.to_fraction() - b.to_fraction()) <= bound * scale


class TestExpSeries:
    """conftest.exp_series, the reference the series tests compare against:
    powers lam^k by rounded cmul, exact on small complex integers."""

    def test_zero_rate(self):
        p = 64
        s = exp_series(cfrom_int(0, 0, p), 5, p)
        assert s.coeffs[0].re.to_fraction() == 1
        assert all(c.is_zero() for c in s.coeffs[1:])

    def test_alternating_parity_coefficients(self):
        p = 64
        s = exp_series(cfrom_int(-1, 0, p), 9, p)
        for k, c in enumerate(s.coeffs):
            assert c.re.to_fraction() == (-1) ** k
            assert c.im.is_zero()

    def test_imaginary_rate_powers(self):
        p = 64
        s = exp_series(cfrom_int(0, 2, p), 3, p)
        vals = [c.to_fractions() for c in s.coeffs]
        assert vals == [(1, 0), (0, 2), (-4, 0), (0, -8)]


class TestTruncatedExp:
    def test_matches_fraction_reference_closely(self):
        # absolute error scales with the largest term of the alternating sum
        p = 192
        for m, x in ((8, Fraction(2)), (8, Fraction(-2)), (64, Fraction(-16)), (5, Fraction(1, 3))):
            got = taylor_table(from_fraction(x, p), m, p)[1].to_fraction()
            want = trunc_exp_fraction(x, m)
            term = Fraction(1)
            peak = Fraction(1)
            for i in range(1, m + 1):
                term = term * abs(x) / i
                peak = max(peak, term)
            assert abs(got - want) <= Fraction(2) ** (-p + 16) * peak

    def test_table_invariants(self):
        # both sums equal the object-level recurrence at x and at -x, and the
        # factors at -x are (-1)^k times those at x, bit for bit
        rng = random.Random(13)
        for width in (8, 24, 53, 100, 256, 512):
            for sign in (1, -1):
                mant = sign * rng.randrange(1 << (width - 1), 1 << width)
                x = PrecisionReal(mant, rng.randrange(-6, 5) - (width - 1))
                for m in (0, 1, 8, 64):
                    for p in (24, 53, 256):
                        factors, up, down = taylor_table(x, m, p)
                        assert up.bits() == reference_truncated_exp(x, m, p).bits()
                        assert down.bits() == reference_truncated_exp(rneg(x), m, p).bits()
                        flipped = [(rneg(f) if k & 1 else f).bits() for k, f in enumerate(factors)]
                        assert [f.bits() for f in taylor_table(rneg(x), m, p)[0]] == flipped
                        assert len(factors) == m + 1

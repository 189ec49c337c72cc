"""Solve the two-channel system for the zero-frequency amplitude and round it.

The model: the filtered output's constant and linear coefficients (c0, c1)
are written as k0 * (phi00, phi10) + z1 * (phi01, phi11). Both columns are
solved by filter_pipeline.system_columns: (phi00, phi10) is run_filter's
output for a unit constant, which its unpinned step 1 makes 1 - e^{-t},
and (phi01, phi11) is the response of steps 2..n_d+3 to a unit e^{-t}.
k0 is the zero-frequency amplitude claim. z1 is the decay amplitude of
run_filter's step-1 output beyond the constant's own companion; it is
exactly 0 on the 2-path. Solved on the output of run_pipeline, the pinned
reference, k0 is the same in exact arithmetic and z1 is larger by step
1's pin amplitude A = -w/tr_{n_d1}(e^{-r_1}); the reference's pin,
though, leaves its k0 to rounding.

The constant column has to be what the cascade itself does to a
constant. Unpinned, the two columns have a sine of ~4.2e-3; with step 1
pinned they were nearly parallel (~1.2e-11), and a closed form for the
pinned column missed it by ~1.5e-5 and landed the constant in z1.

Both columns are real, so the solve splits into one real 2x2 solve per
part of (c0, c1), run on raw (mantissa, exponent) pairs. The system's
entries and right-hand side are dyadic, so Cramer's rule is exact in
integers: k0 and z1 are each one correctly rounded quotient, and each
row residual is the exact misfit of the rounded k0 and z1, rounded once.
The result holds only what the solve finds; its callers hold its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .filter_pipeline import system_columns
from .numerics import (
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    _exact,
    _round,
    _round_quotient,
    csup,
    rabs,
    rcmp,
)
if TYPE_CHECKING:  # schedule imports this module to check a solved schedule
    from .schedule import StepSchedule

FLAG_LIMIT = PrecisionReal(1, -2)  # 1/4
# tests/test_transfer.py::test_k0_error_bar bounds Re k0's schedule plus
# arithmetic error by |Re k0|*2^(45-p_2), so below 1/8 wherever
# |Re k0| <= 2^(p_2-PRECISION_GUARD); past that the precision flag fires.
PRECISION_GUARD = 48


class SingularSystemError(ArithmeticError):
    """The two-channel system's determinant is 0 or small against its
    entries. The system depends on the profile alone, and
    profile_constraints refuses a singular one, so extract_nh raises it
    only on other decay columns."""


@dataclass(frozen=True)
class ExtractionResult:
    """k0, z1, n_h_rounded (Re k0 rounded), the flag figures |Im k0| and
    |Re k0 - n_h_rounded|, each row's residual sup-norm, and the precision
    p of the solve, against which the precision flag reads |Re k0|."""

    k0: PrecisionComplex
    z1: PrecisionComplex
    n_h_rounded: int
    imag_magnitude: PrecisionReal
    round_distance: PrecisionReal
    residual0: PrecisionReal
    residual1: PrecisionReal
    p: int

    @property
    def flags(self) -> tuple:
        """round_distance and imaginary past 1/4, and precision when
        |Re k0| > 2^(p - PRECISION_GUARD), too wide for p bits to resolve."""
        named = (
            ("round_distance", self.round_distance, FLAG_LIMIT),
            ("imaginary", self.imag_magnitude, FLAG_LIMIT),
            ("precision", rabs(self.k0.re), PrecisionReal(1, self.p - PRECISION_GUARD)),
        )
        return tuple(name for name, x, limit in named if rcmp(x, limit) > 0)


def _nearest_integer(m: int, e: int, p: int) -> tuple:
    """The round-half-even nearest integer to m*2^e, and the distance to it
    rounded to p bits as a (mantissa, exponent) pair."""
    if e >= 0:
        return m << e, (0, 0)
    n, rem, one = m >> -e, m & ((1 << -e) - 1), 1 << -e  # m*2^e = n + rem*2^e
    if 2 * rem > one or (2 * rem == one and n & 1):
        n, rem = n + 1, one - rem
    return n, _round(rem, e, p)


def _system(phi01: PrecisionComplex, phi11: PrecisionComplex, sched: StepSchedule, p: int):
    """(phi00, phi10, phi01, phi11, det) as raw pairs, with
    system_columns(sched, p)'s constant column and det exact. Raises
    ValueError on a non-real column and SingularSystemError when det is 0
    or |det| is below 2^(-p//2) of some column entry."""
    columns = (*system_columns(sched, p)[0], phi01, phi11)
    if any(z.im.mantissa for z in columns):
        raise ValueError("two-channel system column is not real; the solve takes real columns")
    f00, f10, f01, f11 = real = tuple((z.re.mantissa, z.re.exponent) for z in columns)
    det = _exact((f00, f11), ((-f10[0], f10[1]), f01))
    if not det[0]:
        raise SingularSystemError("two-channel system determinant is 0")
    d, h = abs(det[0]), det[1] + p // 2  # |det|*2^(p//2) = d*2^h against each |m|*2^e
    if any([d << (h - e) < abs(m) if h >= e else d < abs(m) << (e - h) for m, e in real]):
        raise SingularSystemError(
            f"two-channel system determinant below 2^-{p // 2} of coefficient scale"
        )
    return real + (det,)


def _solve_part(system: tuple, x0: tuple, x1: tuple, p: int) -> tuple:
    """k0, z1 and both row residuals for one part (real or imaginary) of
    the right-hand side (x0, x1), all raw pairs. Cramer's rule is exact in
    integers, so k0 and z1 are each one rounded quotient, and each
    residual is the exact misfit of the rounded k0 and z1, rounded once."""
    f00, f10, f01, f11, (dm, de) = system
    n0, n1 = (-x0[0], x0[1]), (-x1[0], x1[1])
    km, ke = _exact((x0, f11), (f01, n1))
    zm, ze = _exact((f00, x1), (f10, n0))
    k0, z1 = _round_quotient(km, dm, ke - de, p), _round_quotient(zm, dm, ze - de, p)
    r0 = _round(*_exact((f00, k0), (f01, z1), (n0, (1, 0))), p)
    r1 = _round(*_exact((f10, k0), (f11, z1), (n1, (1, 0))), p)
    return k0, z1, r0, r1


def extract_nh(
    o: NormalizedSeries,
    phi01: PrecisionComplex,
    phi11: PrecisionComplex,
    sched: StepSchedule,
    p: int,
) -> ExtractionResult:
    """Closed-form 2x2 solve of o's (c0, c1), once per part, against
    system_columns(sched, p)'s constant column and (phi01, phi11); rounds
    Re(k0) to the nearest integer. Raises ValueError when a column is not
    real, and SingularSystemError when det is 0 or |det| falls below
    2^(-p//2) times the largest system coefficient, det being exact."""
    c0, c1 = o.coeffs[0], o.coeffs[1]
    system = _system(phi01, phi11, sched, p)
    re, im = (
        _solve_part(system, (a.mantissa, a.exponent), (b.mantissa, b.exponent), p)
        for a, b in ((c0.re, c1.re), (c0.im, c1.im))
    )
    k0, z1, r0, r1 = (
        PrecisionComplex(PrecisionReal(*a), PrecisionReal(*b)) for a, b in zip(re, im)
    )
    n_h, dist = _nearest_integer(*re[0], p)
    return ExtractionResult(
        k0=k0, z1=z1, n_h_rounded=n_h, imag_magnitude=rabs(k0.im),
        round_distance=PrecisionReal(*dist), residual0=csup(r0), residual1=csup(r1), p=p,
    )

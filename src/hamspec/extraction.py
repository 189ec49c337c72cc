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

Both columns are real, so the complex solve splits into one real solve
per part of (c0, c1), run on raw (mantissa, exponent) pairs. Every
product it drops is an exact zero, and adding an exact zero returns the
other, already rounded operand: the per-part solve has its bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .filter_pipeline import system_columns
from .numerics import (
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    _add,
    _round,
    _round_quotient,
    csup,
    rabs,
    rcmp,
)
from .schedule import StepSchedule

FLAG_LIMIT = PrecisionReal(1, -2)  # 1/4


class SingularSystemError(ArithmeticError):
    """The two-channel system's determinant is numerically zero."""


@dataclass(frozen=True)
class ExtractionResult:
    k0: PrecisionComplex
    z1: PrecisionComplex
    n_h_rounded: int
    imag_magnitude: PrecisionReal
    round_distance: PrecisionReal
    phi00: PrecisionComplex
    phi10: PrecisionComplex
    phi01: PrecisionComplex
    phi11: PrecisionComplex
    c0: PrecisionComplex
    c1: PrecisionComplex
    residual0: PrecisionReal
    residual1: PrecisionReal

    @property
    def flags(self) -> tuple:
        named = (("round_distance", self.round_distance), ("imaginary", self.imag_magnitude))
        return tuple(name for name, x in named if rcmp(x, FLAG_LIMIT) > 0)


def _nearest_integer(m: int, e: int, p: int) -> tuple:
    """The round-half-even nearest integer to m*2^e, and the distance to it
    rounded to p bits as a (mantissa, exponent) pair."""
    if e >= 0:
        return m << e, (0, 0)
    n, rem, one = m >> -e, m & ((1 << -e) - 1), 1 << -e  # m*2^e = n + rem*2^e
    if 2 * rem > one or (2 * rem == one and n & 1):
        n, rem = n + 1, one - rem
    return n, _round(rem, e, p)


# RN(a*b), RN(a - b) and RN(a/b) on raw (mantissa, exponent) pairs
def _mul(a: tuple, b: tuple, p: int) -> tuple:
    return _round(a[0] * b[0], a[1] + b[1], p)


def _sub(a: tuple, b: tuple, p: int) -> tuple:
    return _add(a[0], a[1], -b[0], b[1], p)


def _div(a: tuple, b: tuple, p: int) -> tuple:
    return _round_quotient(a[0], b[0], a[1] - b[1], p)


@functools.lru_cache(maxsize=8)
def _system(phi01: PrecisionComplex, phi11: PrecisionComplex, sched: StepSchedule, p: int):
    """(phi00, phi10, (phi00, phi10, phi01, phi11, det, det^2) as raw pairs),
    with system_columns(sched, p)'s constant column, once per process per
    key. A non-real column, and a |det| below 2^(-p/2) of the largest
    column entry (SingularSystemError), are raised, not cached."""
    (phi00, phi10), _ = system_columns(sched, p)
    columns = (phi00, phi10, phi01, phi11)
    if any(z.im.mantissa for z in columns):
        raise ValueError("two-channel system column is not real; the solve takes real columns")
    f00, f10, f01, f11 = real = tuple((z.re.mantissa, z.re.exponent) for z in columns)
    det = _sub(_mul(f00, f11, p), _mul(f10, f01, p), p)
    scale = max((PrecisionReal(abs(m), e) for m, e in real), key=functools.cmp_to_key(rcmp))
    if rcmp(PrecisionReal(abs(det[0]), det[1] + p // 2), scale) < 0:
        raise SingularSystemError(
            f"two-channel system determinant below 2^-{p // 2} of coefficient scale"
        )
    return phi00, phi10, real + (det, _mul(det, det, p))


def _solve_part(system: tuple, x0: tuple, x1: tuple, p: int) -> tuple:
    """k0, z1 and both row residuals for one part (real or imaginary) of
    the right-hand side (x0, x1), all raw pairs. Each quotient takes
    complex division's order for a real divisor: times det, over det^2."""
    f00, f10, f01, f11, det, det2 = system
    k0 = _div(_mul(_sub(_mul(x0, f11, p), _mul(f01, x1, p), p), det, p), det2, p)
    z1 = _div(_mul(_sub(_mul(f00, x1, p), _mul(f10, x0, p), p), det, p), det2, p)
    r0 = _sub(_add(*_mul(f00, k0, p), *_mul(f01, z1, p), p), x0, p)
    r1 = _sub(_add(*_mul(f10, k0, p), *_mul(f11, z1, p), p), x1, p)
    return k0, z1, r0, r1


def extract_nh(
    o: NormalizedSeries,
    phi01: PrecisionComplex,
    phi11: PrecisionComplex,
    sched: StepSchedule,
    p: int,
) -> ExtractionResult:
    """Closed-form 2x2 solve, once per part of (c0, c1), against
    system_columns(sched, p)'s constant column; rounds Re(k0) to the
    nearest integer. Raises ValueError when a column is not real, and
    SingularSystemError when |det| falls below 2^(-p/2) times the largest
    system coefficient (run should be marked inconclusive)."""
    c0, c1 = o.coeffs[0], o.coeffs[1]
    phi00, phi10, system = _system(phi01, phi11, sched, p)
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
        round_distance=PrecisionReal(*dist), phi00=phi00, phi10=phi10,
        phi01=phi01, phi11=phi11, c0=c0, c1=c1,
        residual0=csup(r0), residual1=csup(r1),
    )

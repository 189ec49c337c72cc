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
constant. With step 1 pinned, a unit constant left step 1 as
1 - alpha*e^{-t} (alpha ~ 8.9e6 at the desk profile), and the two columns
were nearly parallel (sine ~1.2e-11); unpinned, the sine is ~4.2e-3. A
closed form for the pinned column, (1, -tr_{n_d}(e^{r_last})/r_last),
missed it by a sine of ~1.5e-5, since step n_d+2 realizes a companion of
1/tr_{n_d}(e^{-r_mu}), not tr_{n_d}(e^{r_mu}); solved against it, the
constant landed in the decay channel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .filter_pipeline import system_columns
from .numerics import (
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    R_ZERO,
    cadd,
    cdiv,
    cmul,
    csub,
    csup,
    from_fraction,
    pow2,
    rabs,
    rcmp,
    rmax,
    rmul,
)
from .schedule import StepSchedule

FLAG_LIMIT = Fraction(1, 4)


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
        out = []
        if self.round_distance.to_fraction() > FLAG_LIMIT:
            out.append("round_distance")
        if self.imag_magnitude.to_fraction() > FLAG_LIMIT:
            out.append("imaginary")
        return tuple(out)


def nearest_integer(x: PrecisionReal):
    """Round-half-even nearest integer and the exact distance to it."""
    frac = x.to_fraction()
    n = round(frac)
    return n, abs(frac - n)


@functools.lru_cache(maxsize=8)
def _system(phi01: PrecisionComplex, phi11: PrecisionComplex, sched: StepSchedule, p: int):
    """(phi00, phi10, det) with system_columns(sched, p)'s constant column,
    once per process per key; SingularSystemError is raised, not cached."""
    (phi00, phi10), _ = system_columns(sched, p)
    det = csub(cmul(phi00, phi11, p), cmul(phi10, phi01, p), p)
    scale = rmax(rmax(csup(phi00), csup(phi10)), rmax(csup(phi01), csup(phi11)))
    threshold = rmul(pow2(-(p // 2), p), scale, p)
    if rcmp(csup(det), threshold) < 0:
        raise SingularSystemError(
            f"two-channel system determinant below 2^-{p // 2} of coefficient scale"
        )
    return phi00, phi10, det


def extract_nh(
    o: NormalizedSeries,
    phi01: PrecisionComplex,
    phi11: PrecisionComplex,
    sched: StepSchedule,
    p: int,
) -> ExtractionResult:
    """Closed-form 2x2 solve; rounds Re(k0) to the nearest integer.

    The constant column (phi00, phi10) is system_columns(sched, p)'s
    constant half, measured on 1 - e^{-t}, step 1's unpinned output for a
    unit constant. Raises
    SingularSystemError when |det| falls below 2^(-p/2) times the largest
    system coefficient (run should be marked inconclusive).
    """
    c0, c1 = o.coeffs[0], o.coeffs[1]
    phi00, phi10, det = _system(phi01, phi11, sched, p)
    k0 = cdiv(csub(cmul(c0, phi11, p), cmul(phi01, c1, p), p), det, p)
    z1 = cdiv(csub(cmul(phi00, c1, p), cmul(phi10, c0, p), p), det, p)
    residual0 = csup(csub(cadd(cmul(phi00, k0, p), cmul(phi01, z1, p), p), c0, p))
    residual1 = csup(csub(cadd(cmul(phi10, k0, p), cmul(phi11, z1, p), p), c1, p))
    n_h, dist = nearest_integer(k0.re)
    return ExtractionResult(
        k0=k0,
        z1=z1,
        n_h_rounded=n_h,
        imag_magnitude=rabs(k0.im),
        round_distance=from_fraction(dist, p) if dist else R_ZERO,
        phi00=phi00,
        phi10=phi10,
        phi01=phi01,
        phi11=phi11,
        c0=c0,
        c1=c1,
        residual0=residual0,
        residual1=residual1,
    )

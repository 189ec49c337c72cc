"""First-order low-pass steps realized as integrator cascades on normalized
coefficients, with a zero-output condition at each step's scheduled time.

One step: (1) the zero-state response of y' + y = u via the index-shift
cascade out[d+1+i] += u[d] * (-1)^i; (2) evaluate the response at the
step's time r, and add the multiple of e^{-t} that zeroes it there. The
added term is a homogeneous solution, so the output still solves the ODE.

Every step runs in one kernel, _step, on raw coefficients: a list of
(re_m, re_e, im_m, im_e) integer tuples, each part a p-bit mantissa and
exponent as in PrecisionReal. Every addition, product and quotient rounds
through numerics' _add, _round and _round_quotient, in the order the
object-level primitives would take, so the bits are theirs. _step pins
only coefficients 0..keep, since the pin changes each coefficient on its
own, and a cascade at degree n_d reads only u_0..u_{n_d-1}: run_pipeline
keeps coefficients 0..n_d-1 in steps 1..n_d+2 and all of them in the last
step, or in every step when a dump callback asks for the full output.
A series is converted to raw coefficients once per pipeline and back once.
"""

from __future__ import annotations

import functools

from .numerics import (
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    R_ZERO,
    _add,
    _complex,
    _eval,
    _quads,
    _round_quotient,
    _series,
    from_int,
    rneg,
    round_to,
    rsub,
    taylor_table,
)
from .schedule import PipelineProfile, StepSchedule

ZERO = (0, 0, 0, 0)  # a raw zero coefficient


class DegenerateScheduleError(ArithmeticError):
    """The truncated decay tr_m(e^{-r}) vanished; the adjustment divides by it."""


def _cascade(coeffs: list, m: int, p: int) -> list:
    """integrator_cascade on raw coefficients: acc = u - acc, rounded as the
    sum (-acc) + u; a zero part of u negates acc's part without rounding."""
    acc = ZERO
    out = [acc]
    for um, ue, vm, ve in coeffs[:m]:
        am, ae, bm, be = acc
        acc = (_add(-am, ae, um, ue, p) if um else (-am, ae)) + (
            _add(-bm, be, vm, ve, p) if vm else (-bm, be)
        )
        out.append(acc)
    while len(out) <= m:  # u_d = 0 beyond the series
        am, ae, bm, be = out[-1]
        out.append((-am, ae, -bm, be))
    return out


def _step(coeffs: list, r: PrecisionReal, m: int, p: int, keep: int) -> list:
    """One step at degree m on raw coefficients; returns the pinned
    coefficients 0..keep. The pin adj = -(w / tr_m(e^{-r})) is added to
    even and subtracted from odd coefficients."""
    shifted = _cascade(coeffs, m, p)
    factors, _, q = taylor_table(r, m, p)
    wm, we, zm, ze = _eval(shifted, factors, p)
    if not q.mantissa:
        raise DegenerateScheduleError(
            f"truncated decay vanished at r={r.to_float()} with degree {m}"
        )
    wm, we = _round_quotient(wm, q.mantissa, we - q.exponent, p)
    zm, ze = _round_quotient(zm, q.mantissa, ze - q.exponent, p)
    out = []
    for i, (cm, ce, dm, de) in enumerate(shifted[: keep + 1]):
        if i & 1:
            out.append(_add(cm, ce, wm, we, p) + _add(dm, de, zm, ze, p))
        else:
            out.append(_add(cm, ce, -wm, we, p) + _add(dm, de, -zm, ze, p))
    return out


def integrator_cascade(series: NormalizedSeries, m: int) -> NormalizedSeries:
    """Zero-state response of y' + y = u truncated to degree m:
    out_k = sum_{d=0..k-1} (-1)^(k-1-d) u_d, accumulated in ascending d.

    Computed as out_k = u_{k-1} - out_{k-1} (u_d = 0 beyond the series),
    which is bit-identical to the ascending sum: out_k's partial sums are
    exactly the negations of out_{k-1}'s, because negation is exact and
    round-to-nearest-even is symmetric in sign, so only the last addition
    differs. Zero inputs are skipped, as in the sum, so a zero u_{k-1}
    gives -out_{k-1} exactly.
    """
    p = series.precision
    return _series(_cascade(_quads(series, p), m, p), p)


def filter_step(
    series: NormalizedSeries, r_sp: PrecisionReal, m: int, p: int
) -> NormalizedSeries:
    """One step at degree m: cascade, then pin the output to zero at r_sp.
    The evaluation factors at r_sp and tr_m(e^{-r_sp}) are one entry of
    numerics.taylor_table, solved once per process per (r_sp, m, p)."""
    return _series(_step(_quads(series, p), r_sp, m, p, m), p)


def run_pipeline(
    f_series: NormalizedSeries,
    sched: StepSchedule,
    profile: PipelineProfile,
    dump=None,
) -> NormalizedSeries:
    """All steps 1..n_d+3. Step 1 runs at degree n_d1; its output is then
    truncated to coefficients 0..n_d-1, all that a cascade at degree n_d
    reads, and the remaining steps run at degree n_d. `dump`, if given, is
    called with (step_index, series) after every step; step 1's series has
    all n_d1 + 1 coefficients."""
    n_d, n_d1, p = profile.n_d, profile.n_d1, profile.p_2
    if f_series.degree_bound != n_d1:
        raise ValueError(
            f"input series degree {f_series.degree_bound} != n_d1 {n_d1}"
        )
    j = _step(_quads(f_series, p), sched.times[1], n_d1, p, n_d1 if dump else n_d - 1)
    if dump:
        dump(1, _series(j, p))
    return _series(_tail_steps(j[:n_d], sched, n_d, p, dump), p)


def _tail_steps(coeffs: list, sched: StepSchedule, n_d: int, p: int, dump) -> list:
    """Steps 2..n_d+3 at degree n_d on raw coefficients that stand for step
    1's output; `dump` as in run_pipeline."""
    for sp in range(2, n_d + 4):
        keep = n_d if dump or sp == n_d + 3 else n_d - 1
        coeffs = _step(coeffs, sched.times[sp], n_d, p, keep)
        if dump:
            dump(sp, _series(coeffs, p))
    return coeffs


def decay_series(m: int, p: int) -> NormalizedSeries:
    """Normalized form of e^{-t}: coefficients (-1)^k."""
    one = from_int(1, p)
    neg_one = rneg(one)
    return NormalizedSeries(
        [PrecisionComplex(one if k % 2 == 0 else neg_one, R_ZERO) for k in range(m + 1)],
        p,
    )


def run_pseudo_steps(sched: StepSchedule, profile: PipelineProfile):
    """The decay half of system_columns(sched, profile.p_2)."""
    return system_columns(sched, profile.p_2)[1]


@functools.lru_cache(maxsize=8)
def system_columns(sched: StepSchedule, p: int):
    """Both columns of the extraction's two-channel system,
    ((phi00, phi10), (phi01, phi11)): the constant and linear coefficients
    of what steps 2..n_d+3 at degree n_d make of 1 - alpha*e^{-t} (step 1's
    output for a unit constant) and of e^{-t}. n_d = step_count - 3.
    Solved once per process per (schedule, p); a DegenerateScheduleError
    is raised, not cached."""
    n_d = sched.step_count - 3
    alpha = round_to(sched.alpha, p)
    neg_alpha = rneg(alpha)
    constant = [PrecisionComplex(rsub(from_int(1, p), alpha, p), R_ZERO)]
    constant += [
        PrecisionComplex(alpha if k % 2 else neg_alpha, R_ZERO) for k in range(1, n_d + 1)
    ]
    columns = []
    for series in (NormalizedSeries(constant, p), decay_series(n_d, p)):
        j = _tail_steps(_quads(series, p), sched, n_d, p, None)
        columns.append((_complex(j[0]), _complex(j[1])))
    return tuple(columns)

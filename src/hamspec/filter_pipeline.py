"""First-order low-pass steps realized as integrator cascades on normalized
coefficients, with a zero-output condition at each step's scheduled time.

One step: (1) the zero-state response of y' + y = u via the index-shift
cascade out[d+1+i] += u[d] * (-1)^i; (2) evaluate the response at the
step's time r, and add the multiple of e^{-t} that zeroes it there. The
added term is a homogeneous solution, so the output still solves the ODE.
"""

from __future__ import annotations

import functools

from .numerics import (
    C_ZERO,
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    R_ZERO,
    cadd,
    cdiv_real,
    cneg,
    from_int,
    rneg,
    round_to,
    rsub,
    series_eval,
    truncated_exp,
)
from .schedule import PipelineProfile, StepSchedule


class DegenerateScheduleError(ArithmeticError):
    """The truncated decay tr_m(e^{-r}) vanished; the adjustment divides by it."""


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
    coeffs = series.coeffs
    acc = C_ZERO
    out = [acc]
    for k in range(1, m + 1):
        u = coeffs[k - 1] if k - 1 < len(coeffs) else C_ZERO
        acc = cneg(acc) if u.is_zero() else cadd(cneg(acc), u, p)
        out.append(acc)
    return NormalizedSeries(out, p)


def filter_step(
    series: NormalizedSeries, r_sp: PrecisionReal, m: int, p: int
) -> NormalizedSeries:
    """One step at degree m: cascade, then pin the output to zero at r_sp.
    The evaluation factors at r_sp and tr_m(e^{-r_sp}) depend only on
    (r_sp, m, p) and are solved once per process (eval_factors, decay_at)."""
    work = series if series.precision == p else series.reround(p)
    shifted = integrator_cascade(work, m)
    w = series_eval(shifted, r_sp)
    q = decay_at(r_sp, m, p)
    if q.is_zero():
        raise DegenerateScheduleError(
            f"truncated decay vanished at r={r_sp.to_float()} with degree {m}"
        )
    adj = cneg(cdiv_real(w, q, p))
    neg_adj = cneg(adj)
    out = []
    for i, c in enumerate(shifted.coeffs):
        out.append(cadd(c, adj if i % 2 == 0 else neg_adj, p))
    return NormalizedSeries(out, p)


@functools.lru_cache(maxsize=64)
def decay_at(r_sp: PrecisionReal, m: int, p: int) -> PrecisionReal:
    """tr_m(e^{-r_sp}) at p bits, keyed by r_sp's value like eval_factors."""
    return truncated_exp(rneg(r_sp), m, p)


def run_pipeline(
    f_series: NormalizedSeries,
    sched: StepSchedule,
    profile: PipelineProfile,
    dump=None,
) -> NormalizedSeries:
    """All steps 1..n_d+3. Step 1 runs at degree n_d1; its output is then
    truncated (coefficients above n_d dropped, no re-rounding) and the
    remaining steps run at degree n_d. `dump`, if given, is called with
    (step_index, series) after every step."""
    n_d, n_d1, p = profile.n_d, profile.n_d1, profile.p_2
    if f_series.degree_bound != n_d1:
        raise ValueError(
            f"input series degree {f_series.degree_bound} != n_d1 {n_d1}"
        )
    j = f_series.reround(p)
    j = filter_step(j, sched.times[1], n_d1, p)
    if dump:
        dump(1, j)
    return run_tail_steps(j.truncate(n_d), sched, n_d, p, dump=dump)


def run_tail_steps(
    series: NormalizedSeries, sched: StepSchedule, n_d: int, p: int, dump=None
) -> NormalizedSeries:
    """Steps 2..n_d+3 at degree n_d on a series that stands for step 1's
    output; `dump` as in run_pipeline."""
    j = series
    for sp in range(2, n_d + 4):
        j = filter_step(j, sched.times[sp], n_d, p)
        if dump:
            dump(sp, j)
    return j


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
        j = run_tail_steps(series, sched, n_d, p)
        columns.append((j.coeffs[0], j.coeffs[1]))
    return tuple(columns)

"""First-order low-pass steps realized as integrator cascades on normalized
coefficients, with a zero-output condition at each step's scheduled time.

One step: (1) the zero-state response of y' + y = u via the index-shift
cascade out[d+1+i] += u[d] * (-1)^i; (2) evaluate the response at the
step's time r, and add the multiple of e^{-t} that zeroes it there. The
added term is a homogeneous solution, so the output still solves the ODE.

Every path is one loop, _run, over a compiled step plan: per step a
tuple (m, factors, q), its degree m, the evaluation factors f_1..f_m at
its time r and q = tr_m(e^{-r}) as raw (mantissa, exponent) pairs, or
factors and q None for a bare cascade (_compile). Steps 2..n_d+3 run at
degree n_d; _plan compiles them once per process per (schedule, p), so a
verdict reads no taylor_table entry, and refuses a vanished decay when
it compiles. run_filter, the production path of `hamspec run` and
`hamspec filter`, makes step 1 the bare cascade of u_0..u_{n_d-2}: step
1's pin adds A*e^{-t}, A = -w/tr_{n_d1}(e^{-r_1}), which on the
coefficients 0..n_d-1 the tail reads is exactly the decay column's
input, so by linearity it moves only the decay amplitude z1, never k0.
run_pipeline is the paper-literal pinned reference: step 1 at degree
n_d1 with its pin, whose ~2^3000 terms cancel and leave k0 to rounding.

Every step runs in one kernel, _step, on raw coefficients: a list of
(re_m, re_e, im_m, im_e) integer tuples, each part a p-bit mantissa and
exponent as in PrecisionReal, or (0, 0). The kernel is one pass over
k=1..m that forms the cascade value out_k and rounds out_k f_k into the
evaluation sums in the same iteration; the quotients by q and the pin
follow, and a bare step skips both. Every addition, product and
quotient rounds through numerics' _add_p, _round and _round_quotient, in
the order the object-level primitives would take, so the bits are
theirs. _add_p is _add for operands in that p-bit form: _quads puts
every part in it on entry, and every kernel result, out of _round or
_round_quotient or a negation, keeps it. The pin changes each
coefficient on its own, so _step pins only coefficients 0..keep, and
_run sets keep from the plan: a step pins what the next step's cascade
reads, 0..m_next-1, and the last step what its caller reads, `reads`
coefficients (c0 and c1 for `hamspec run` and system_columns) or, by
default, all of its own; under a dump callback every step pins all of
its own. A series is converted to raw coefficients once per run and
back once.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .numerics import (
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    R_ZERO,
    _add_p,
    _quads,
    _round,
    _round_quotient,
    _series,
    from_int,
    rneg,
    taylor_table,
)
if TYPE_CHECKING:  # schedule imports this module to check a solved schedule
    from .schedule import PipelineProfile, StepSchedule

ZERO = (0, 0, 0, 0)  # a raw zero coefficient


class DegenerateScheduleError(ArithmeticError):
    """The truncated decay tr_m(e^{-r}) vanished; the adjustment divides by it."""


def _compile(r: PrecisionReal | None, m: int, p: int) -> tuple:
    """A plan's entry for one step at degree m: (m, factors, q), the
    factors f_1..f_m at r and q = tr_m(e^{-r}) as raw (mantissa, exponent)
    pairs off taylor_table(r, m, p); r None gives the bare cascade
    (m, None, None). A vanished decay raises DegenerateScheduleError."""
    if r is None:
        return m, None, None
    factors, _, q = taylor_table(r, m, p)
    if not q.mantissa:
        raise DegenerateScheduleError(
            f"truncated decay vanished at r={r.to_float()} with degree {m}"
        )
    return m, tuple((f.mantissa, f.exponent) for f in factors[1:]), (q.mantissa, q.exponent)


@functools.lru_cache(maxsize=8)
def _plan(sched: StepSchedule, p: int) -> tuple:
    """Steps 2..n_d+3 compiled at degree n_d, once per process per
    (schedule, p); a DegenerateScheduleError is raised, not cached."""
    return tuple(_compile(r, sched.n_d, p) for r in sched.times[2:])


def _step(coeffs: list, step: tuple, p: int, keep: int) -> list:
    """One compiled step (m, factors, q) on raw coefficients; returns the
    pinned coefficients 0..keep. One pass over k = 1..m forms the cascade
    value out_k = u_{k-1} - out_{k-1} (u_d = 0 beyond the series) and
    rounds out_k f_k into the sums w (real parts) and z (imaginary parts).
    The pin adj = -((w, z) / q) is then added to even and subtracted from
    odd coefficients. A bare step (factors None) is the cascade alone,
    neither evaluated nor pinned.

    out_k is rounded as the sum (-out_{k-1}) + u_{k-1}, which is
    bit-identical to the ascending sum sum_{d<k} (-1)^(k-1-d) u_d: out_k's
    partial sums are exactly the negations of out_{k-1}'s, because negation
    is exact and round-to-nearest-even is symmetric in sign, so only the
    last addition differs. Zero inputs are skipped, as in the sum, so a
    zero part of u_{k-1} negates that part of out_{k-1} without rounding."""
    m, factors, q = step
    am = ae = bm = be = wm = we = zm = ze = 0
    out = [ZERO]
    for k, (um, ue, vm, ve) in enumerate(coeffs[:m] + [ZERO] * (m - len(coeffs))):
        am, ae = _add_p(-am, ae, um, ue, p) if um else (-am, ae)
        bm, be = _add_p(-bm, be, vm, ve, p) if vm else (-bm, be)
        out.append((am, ae, bm, be))
        if factors is not None:
            fm, fe = factors[k]
            if am:
                tm, te = _round(am * fm, ae + fe, p)
                wm, we = _add_p(wm, we, tm, te, p)
            if bm:
                tm, te = _round(bm * fm, be + fe, p)
                zm, ze = _add_p(zm, ze, tm, te, p)
    if factors is None:
        return out[: keep + 1]
    qm, qe = q
    wm, we = _round_quotient(wm, qm, we - qe, p)
    zm, ze = _round_quotient(zm, qm, ze - qe, p)
    for i in range(keep + 1):
        wm, zm = -wm, -zm  # adj = -(w, z) at even i, +(w, z) at odd i
        cm, ce, dm, de = out[i]
        out[i] = _add_p(cm, ce, wm, we, p) + _add_p(dm, de, zm, ze, p)
    return out[: keep + 1]


def _run(series: NormalizedSeries, steps, p: int, dump=None, reads=None) -> NormalizedSeries:
    """The compiled steps in order on the series at precision p. Each step
    pins what the next step's cascade reads, and the last step its first
    `reads` coefficients, all of its own when reads is None; with `dump`,
    every step pins all of its own and dump(sp, series) follows step sp,
    the plan's first entry being step 1."""
    coeffs = _quads(series, p)
    for sp, step in enumerate(steps, 1):
        if sp < len(steps) and not dump:
            keep = steps[sp][0] - 1
        else:
            keep = step[0] if dump or reads is None else reads - 1
        coeffs = _step(coeffs, step, p, keep)
        if dump:
            dump(sp, _series(coeffs, p))
    return _series(coeffs, p)


def filter_step(
    series: NormalizedSeries, r_sp: PrecisionReal, m: int, p: int
) -> NormalizedSeries:
    """One step at degree m: cascade, then pin the output to zero at r_sp.
    The evaluation factors at r_sp and tr_m(e^{-r_sp}) are
    numerics.taylor_table(r_sp, m, p), solved on every call."""
    return _run(series, [_compile(r_sp, m, p)], p)


def run_filter(
    u_series: NormalizedSeries,
    sched: StepSchedule,
    profile: PipelineProfile,
    dump=None,
    reads=None,
) -> NormalizedSeries:
    """The production path, steps 1..n_d+3 without step 1's pin. Step 1
    is the bare cascade of u_0..u_{n_d-2} at degree n_d - 1; the series
    may have any degree from n_d - 2 up, and grid_series gives it at
    n_d - 2. k0 is the pinned reference's in exact arithmetic, and z1 is
    the pinned z1 less step 1's pin amplitude A. `dump`, if given, is
    called with (step_index, series) after every step; step 1's series
    has n_d coefficients. Given `reads`, the output holds only its first
    `reads` coefficients, with the bits of the full output's."""
    n_d = profile.n_d
    if u_series.degree_bound < n_d - 2:
        raise ValueError(
            f"input series degree {u_series.degree_bound} < n_d - 2 = {n_d - 2}"
        )
    plan = (_compile(None, n_d - 1, profile.p_2),) + _plan(sched, profile.p_2)
    return _run(u_series.truncate(n_d - 2), plan, profile.p_2, dump, reads)


def run_pipeline(
    f_series: NormalizedSeries,
    sched: StepSchedule,
    profile: PipelineProfile,
    dump=None,
) -> NormalizedSeries:
    """The paper-literal pinned reference, steps 1..n_d+3, step 1 at
    degree n_d1 with its pin. `dump`, if given, is called with
    (step_index, series) after every step; step 1's series has all
    n_d1 + 1 coefficients. run_filter is the production path."""
    n_d1 = profile.n_d1
    if f_series.degree_bound != n_d1:
        raise ValueError(
            f"input series degree {f_series.degree_bound} != n_d1 {n_d1}"
        )
    p = profile.p_2
    return _run(f_series, (_compile(sched.times[1], n_d1, p),) + _plan(sched, p), p, dump)


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
    of run_filter's output for a unit constant, whose step 1 makes it
    1 - e^{-t}, and of what steps 2..n_d+3 make of e^{-t}. Solved once
    per process per (schedule, p); a DegenerateScheduleError is raised,
    not cached."""
    unit, tail = decay_series(0, p), _plan(sched, p)
    constant = _run(unit, (_compile(None, sched.n_d - 1, p),) + tail, p, reads=2)
    decay = _run(decay_series(sched.n_d, p), tail, p, reads=2)
    return constant.coeffs, decay.coeffs

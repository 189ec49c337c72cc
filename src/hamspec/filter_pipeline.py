"""First-order low-pass steps realized as integrator cascades on normalized
coefficients, with a zero-output condition at each step's scheduled time.

One step: (1) the zero-state response of y' + y = u via the index-shift
cascade out[d+1+i] += u[d] * (-1)^i; (2) evaluate the response at the
step's time r, and add the multiple of e^{-t} that zeroes it there. The
added term is a homogeneous solution, so the output still solves the ODE.

Every path is one loop, _run, over a step plan [(r, m), ...]: each step
at time r (None for a bare cascade) and degree m. Steps 2..n_d+3 run at
degree n_d. run_filter, the production path of `hamspec run` and `hamspec
filter`, makes step 1 the bare cascade of u_0..u_{n_d-2}: step 1's pin
adds A*e^{-t}, A = -w/tr_{n_d1}(e^{-r_1}), which on the coefficients
0..n_d-1 the tail reads is exactly the decay column's input, so by
linearity it moves only the decay amplitude z1, never k0. run_pipeline
is the paper-literal pinned reference: step 1 at degree n_d1 with its
pin, whose ~2^3000 terms cancel and leave k0 to rounding.

Every step runs in one kernel, _step, on raw coefficients: a list of
(re_m, re_e, im_m, im_e) integer tuples, each part a p-bit mantissa and
exponent as in PrecisionReal, or (0, 0). The kernel is one pass over
k=1..m that forms the cascade value out_k and rounds out_k f_k into the
evaluation sums in the same iteration; the quotients by tr_m(e^{-r}) and
the pin follow, and a bare step skips both. Every addition, product and
quotient rounds through numerics' _add_p, _round and _round_quotient, in
the order the object-level primitives would take, so the bits are
theirs. _add_p is _add for operands in that p-bit form: _quads puts
every part in it on entry, and every kernel result, out of _round or
_round_quotient or a negation, keeps it. The pin changes each
coefficient on its own, so _step pins only coefficients 0..keep, and
_run sets keep from the plan: a step pins what the next step's cascade
reads, 0..m_next-1, and the last step, or every step when a dump
callback asks for the full output, pins all of its own. A series is
converted to raw coefficients once per run and back once.
"""

from __future__ import annotations

import functools

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
from .schedule import PipelineProfile, StepSchedule

ZERO = (0, 0, 0, 0)  # a raw zero coefficient


class DegenerateScheduleError(ArithmeticError):
    """The truncated decay tr_m(e^{-r}) vanished; the adjustment divides by it."""


def _step(coeffs: list, r: PrecisionReal | None, m: int, p: int, keep: int) -> list:
    """One step at degree m on raw coefficients; returns the pinned
    coefficients 0..keep. One pass over k = 1..m forms the cascade value
    out_k = u_{k-1} - out_{k-1} (u_d = 0 beyond the series) and rounds
    out_k f_k into the sums w (real parts) and z (imaginary parts), against
    taylor_table(r, m, p)'s factors. The pin adj = -((w, z) / tr_m(e^{-r}))
    is then added to even and subtracted from odd coefficients. With r None
    the step is the bare cascade, neither evaluated nor pinned.

    out_k is rounded as the sum (-out_{k-1}) + u_{k-1}, which is
    bit-identical to the ascending sum sum_{d<k} (-1)^(k-1-d) u_d: out_k's
    partial sums are exactly the negations of out_{k-1}'s, because negation
    is exact and round-to-nearest-even is symmetric in sign, so only the
    last addition differs. Zero inputs are skipped, as in the sum, so a
    zero part of u_{k-1} negates that part of out_{k-1} without rounding."""
    factors = ()
    if r is not None:
        factors, _, q = taylor_table(r, m, p)
        qm, qe = q.mantissa, q.exponent
        if not qm:
            raise DegenerateScheduleError(
                f"truncated decay vanished at r={r.to_float()} with degree {m}"
            )
    am = ae = bm = be = wm = we = zm = ze = 0
    out = [ZERO]
    for k, (um, ue, vm, ve) in enumerate(coeffs[:m] + [ZERO] * (m - len(coeffs)), 1):
        am, ae = _add_p(-am, ae, um, ue, p) if um else (-am, ae)
        bm, be = _add_p(-bm, be, vm, ve, p) if vm else (-bm, be)
        out.append((am, ae, bm, be))
        if factors:
            f = factors[k]
            if am:
                tm, te = _round(am * f.mantissa, ae + f.exponent, p)
                wm, we = _add_p(wm, we, tm, te, p)
            if bm:
                tm, te = _round(bm * f.mantissa, be + f.exponent, p)
                zm, ze = _add_p(zm, ze, tm, te, p)
    if not factors:
        return out[: keep + 1]
    wm, we = _round_quotient(wm, qm, we - qe, p)
    zm, ze = _round_quotient(zm, qm, ze - qe, p)
    for i in range(keep + 1):
        wm, zm = -wm, -zm  # adj = -(w, z) at even i, +(w, z) at odd i
        cm, ce, dm, de = out[i]
        out[i] = _add_p(cm, ce, wm, we, p) + _add_p(dm, de, zm, ze, p)
    return out[: keep + 1]


def _run(series: NormalizedSeries, steps: list, p: int, dump=None) -> NormalizedSeries:
    """The plan's steps in order on the series at precision p, each
    pinning what the next step reads and the last (or, with `dump`,
    every) step all of its own; dump(sp, series) follows step sp, the
    plan's first entry being step 1."""
    coeffs = _quads(series, p)
    for sp, (r, m) in enumerate(steps, 1):
        keep = m if dump or sp == len(steps) else steps[sp][1] - 1
        coeffs = _step(coeffs, r, m, p, keep)
        if dump:
            dump(sp, _series(coeffs, p))
    return _series(coeffs, p)


def _tail(sched: StepSchedule) -> list:
    """The plan of steps 2..n_d+3, each at degree n_d."""
    return [(r, sched.n_d) for r in sched.times[2:]]


def filter_step(
    series: NormalizedSeries, r_sp: PrecisionReal, m: int, p: int
) -> NormalizedSeries:
    """One step at degree m: cascade, then pin the output to zero at r_sp.
    The evaluation factors at r_sp and tr_m(e^{-r_sp}) are one entry of
    numerics.taylor_table, solved once per process per (r_sp, m, p)."""
    return _run(series, [(r_sp, m)], p)


def run_filter(
    u_series: NormalizedSeries,
    sched: StepSchedule,
    profile: PipelineProfile,
    dump=None,
) -> NormalizedSeries:
    """The production path, steps 1..n_d+3 without step 1's pin. Step 1
    is the bare cascade of u_0..u_{n_d-2} at degree n_d - 1; the series
    may have any degree from n_d - 2 up, and grid_series gives it at
    n_d - 2. k0 is the pinned reference's in exact arithmetic, and z1 is
    the pinned z1 less step 1's pin amplitude A. `dump`, if given, is
    called with (step_index, series) after every step; step 1's series
    has n_d coefficients."""
    n_d = profile.n_d
    if u_series.degree_bound < n_d - 2:
        raise ValueError(
            f"input series degree {u_series.degree_bound} < n_d - 2 = {n_d - 2}"
        )
    plan = [(None, n_d - 1)] + _tail(sched)
    return _run(u_series.truncate(n_d - 2), plan, profile.p_2, dump)


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
    return _run(f_series, [(sched.times[1], n_d1)] + _tail(sched), profile.p_2, dump)


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
    n_d, tail = sched.n_d, _tail(sched)
    constant = _run(decay_series(0, p), [(None, n_d - 1)] + tail, p)  # the unit
    decay = _run(decay_series(n_d, p), tail, p)
    return tuple(j.coeffs[:2] for j in (constant, decay))

"""First-order low-pass steps realized as integrator cascades on normalized
coefficients, with a zero-output condition at each step's scheduled time.

One step: (1) the zero-state response of y' + y = u via the index-shift
cascade out[d+1+i] += u[d] * (-1)^i; (2) evaluate the response at the
step's time r, and add the multiple of e^{-t} that zeroes it there. The
added term is a homogeneous solution, so the output still solves the ODE.

Every path is one loop, _run, over a compiled step plan: per step a
tuple (m, factors, q), its degree m, the evaluation factors f_1..f_m at
its time r as integers over one exponent and q = tr_m(e^{-r}) as a raw
(mantissa, exponent) pair, or factors and q None for a bare cascade
(_compile). Steps 2..n_d+3 run at degree n_d; _plan compiles them once
per process per (schedule, p), so a verdict reads no taylor_table entry,
and refuses a vanished decay when it compiles. run_filter, the
production path of `hamspec run` and `hamspec filter`, makes step 1 the
bare cascade of u_0..u_{n_d-2}: step 1's pin adds A*e^{-t},
A = -w/tr_{n_d1}(e^{-r_1}), which on the coefficients 0..n_d-1 the tail
reads is exactly the decay column's input, so by linearity it moves only
the decay amplitude z1, never k0.
run_pipeline is the paper-literal pinned reference: step 1 at degree
n_d1 with its pin, whose ~2^3000 terms cancel and leave k0 to rounding.

Every step runs in one kernel, _step, on one part of the raw
coefficients: the step is real-linear with real constants, so _run splits
the series once into a real and an imaginary list of (mantissa, exponent)
pairs, each a p-bit mantissa or (0, 0), and joins them once. Each kept
output is the exact step on its p-bit input, correctly rounded to p bits
once (numerics' _round, or _round_quotient where it cancels). The pin
changes each coefficient on its own, so _step pins only coefficients
0..keep, and _run sets keep from the plan: a step pins what the next
step's cascade reads, 0..m_next-1, and the last step what its caller
reads, `reads` coefficients (c0 and c1 for `hamspec run` and
system_columns) or, by default, all of its own; under a dump callback
every step pins all of its own.
"""

from __future__ import annotations

import functools
from operator import mul
from typing import TYPE_CHECKING

from .numerics import (
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    R_ZERO,
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


class DegenerateScheduleError(ArithmeticError):
    """The truncated decay tr_m(e^{-r}) vanished; the adjustment divides by it."""


def _compile(r: PrecisionReal | None, m: int, p: int) -> tuple:
    """A plan's entry for one step at degree m: (m, factors, q), the
    factors f_1..f_m at r off taylor_table(r, m, p) as (integers, exponent),
    f_k = integers[k-1] * 2^exponent, and q = tr_m(e^{-r}) as a raw
    (mantissa, exponent) pair; r None gives the bare cascade
    (m, None, None). A vanished decay raises DegenerateScheduleError."""
    if r is None:
        return m, None, None
    factors, _, q = taylor_table(r, m, p)
    if not q.mantissa:
        raise DegenerateScheduleError(
            f"truncated decay vanished at r={r.to_float()} with degree {m}"
        )
    low = min([f.exponent for f in factors[1:] if f.mantissa], default=0)
    ints = tuple(f.mantissa << (f.exponent - low) if f.mantissa else 0 for f in factors[1:])
    return m, (ints, low), (q.mantissa, q.exponent)


@functools.lru_cache(maxsize=8)
def _plan(sched: StepSchedule, p: int) -> tuple:
    """Steps 2..n_d+3 compiled at degree n_d, once per process per
    (schedule, p); a DegenerateScheduleError is raised, not cached."""
    return tuple(_compile(r, sched.n_d, p) for r in sched.times[2:])


def _step(part: list, step: tuple, p: int, keep: int) -> list:
    """One compiled step (m, factors, q) on one part of the raw
    coefficients, (mantissa, exponent) pairs; returns its outputs 0..keep,
    each the exact step correctly rounded to p bits. The cascade values
    out_k = u_{k-1} - out_{k-1} (u_d = 0 beyond the list) are exact
    integers over the inputs' lowest exponent e0, and so is
    w = sum out_k f_k. A bare step (factors None) rounds out_k alone.
    Otherwise adj = -w/q is added to even and subtracted from odd outputs:
    its floored quotient Q is taken once, with at least p + 3 bits and one
    bit below e0, and a nonzero remainder makes Q odd (sticky), so
    (out_i << d) +- Q rounds as the exact value does while it keeps p + 2
    bits; a sum cancelled below that is rounded from the exact rational."""
    m, factors, q = step
    u = part[:m]
    low = [e for v, e in u if v]
    if not low:
        return [(0, 0)] * (keep + 1)
    e0 = min(low)
    o = 0
    out = [o]
    for v, e in u:
        o = (v << (e - e0) if v else 0) - o
        out.append(o)
    for _ in range(m - len(u)):
        o = -o
        out.append(o)
    num = -sum(map(mul, factors[0], out[1:])) if factors else 0  # -w at e0 + fe
    if not num:
        return [_round(o, e0, p) for o in out[: keep + 1]]
    fe, (qm, qe) = factors[1], q
    ea = e0 + fe - qe  # adj = (num / qm) * 2^ea
    eq = min(e0 - 1, ea + num.bit_length() - qm.bit_length() - p - 3)
    sh, d = ea - eq, e0 - eq
    quot, rem = divmod(num << sh, qm) if sh >= 0 else divmod(num, qm << -sh)
    if rem:
        quot |= 1
    res = []
    for i, o in enumerate(out[: keep + 1]):
        s = (o << d) - quot if i & 1 else (o << d) + quot
        if rem and s.bit_length() < p + 2:  # cancelled to the sticky bit
            lo = min(e0, ea)
            a = num << (ea - lo)
            res.append(_round_quotient((o << (e0 - lo)) * qm + (-a if i & 1 else a), qm, lo, p))
        else:
            res.append(_round(s, eq, p))
    return res


def _run(series: NormalizedSeries, steps, p: int, dump=None, reads=None) -> NormalizedSeries:
    """The compiled steps in order on the series at precision p, on its
    real and imaginary parts apart. Each step pins what the next step's
    cascade reads, and the last step its first `reads` coefficients, all
    of its own when reads is None; with `dump`, every step pins all of its
    own and dump(sp, series) follows step sp, the plan's first entry being
    step 1."""
    quads = _quads(series, p)
    re, im = [c[:2] for c in quads], [c[2:] for c in quads]
    for sp, step in enumerate(steps, 1):
        if sp < len(steps) and not dump:
            keep = steps[sp][0] - 1
        else:
            keep = step[0] if dump or reads is None else reads - 1
        re, im = _step(re, step, p, keep), _step(im, step, p, keep)
        if dump:
            dump(sp, _series(list(map(tuple.__add__, re, im)), p))
    return _series(list(map(tuple.__add__, re, im)), p)


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

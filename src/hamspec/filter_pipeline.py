"""First-order low-pass steps realized as integrator cascades on normalized
coefficients, with a zero-output condition at each step's scheduled time.

One step: (1) the zero-state response of y' + y = u via the index-shift
cascade out[d+1+i] += u[d] * (-1)^i; (2) evaluate the response at the
step's time r, and add the multiple of e^{-t} that zeroes it there. The
added term is a homogeneous solution, so the output still solves the ODE.

A step is compiled once into a plan entry (m, factors, q): its degree m,
the evaluation factors f_k = r^k/k!, k = 1..m, as integers over one
exponent and q = tr_m(e^{-r}) as a raw (mantissa, exponent) pair, each
taylor_table's exact value rounded once to p bits (_compile). Steps
2..n_d+3 run at degree n_d; _plan compiles them once per process per
(schedule, p), so a verdict reads no taylor_table entry, and refuses a
vanished decay when it compiles.

run_filter, the path of `hamspec filter`, makes step 1 the bare cascade
of u_0..u_{n_d-2}: step 1's pin adds A*e^{-t}, A = -w/tr_{n_d1}(e^{-r_1}),
which on the coefficients 0..n_d-1 the tail reads is exactly the decay
column's input, so by linearity it moves only the decay amplitude z1,
never k0. Every step is linear with the plan's constants, so the whole
plan is one linear map. _prefixes starts from one integer matrix whose
columns are step 1's bare cascade of each u_j and e^{-t}'s coefficients
(-1)^k, and _rows composes _plan on it exactly, once per process per
(schedule, p), into integer rows over one denominator and one power of
two (_compose). Each output is one exact dot product with the p-bit
inputs, rounded once (_apply, which reads only the input columns;
Bostan, Lecerf and Schost, "Tellegen's principle into practice",
ISSAC 2003, on precomputing such a map). system_columns rounds four
entries of the same rows: the first column's, whose step 1 makes a unit
constant 1 - e^{-t}, and the decay column's; extraction folds the rows
into the covectors `hamspec run` reads off the exact moments.

run_pipeline is the paper-literal pinned reference: step 1 at degree
n_d1 with its pin, whose ~2^3000 terms cancel and leave k0 to rounding.
It and filter_step run the plan step by step, each step rounded, in
_step: _compose on one column, one part of the raw coefficients. The
step is real-linear with real constants, so _run splits the series once
into a real and an imaginary list of (mantissa, exponent) pairs, each a
p-bit mantissa or (0, 0), and joins them once. Each output, 0..m, is
the exact step on its p-bit input and the step's p-bit constants,
rounded once to p bits; the next step reads its first m.
"""

from __future__ import annotations

import functools
from itertools import chain
from operator import mul, sub
from typing import TYPE_CHECKING

from .numerics import (
    NormalizedSeries,
    PrecisionReal,
    _quads,
    _round_quotient,
    _series,
    taylor_table,
)
if TYPE_CHECKING:  # schedule imports this module to check a solved schedule
    from .schedule import PipelineProfile, StepSchedule


class DegenerateScheduleError(ArithmeticError):
    """The truncated decay tr_m(e^{-r}) vanished; the adjustment divides by it."""


def _compile(r: PrecisionReal, m: int, p: int) -> tuple:
    """A plan's entry for one step at degree m: (m, factors, q), the
    factors f_1..f_m at r off taylor_table(r, m, p) as (integers, exponent),
    f_k = integers[k-1] * 2^exponent, and q = tr_m(e^{-r}) as a raw
    (mantissa, exponent) pair. A vanished decay raises
    DegenerateScheduleError."""
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


def _step(part: list, step: tuple, p: int) -> list:
    """One compiled step (m, factors, q) on one part of the raw
    coefficients, (mantissa, exponent) pairs: _compose on one column, the
    part's first m mantissas over their lowest exponent e0, zero as 0.
    Returns its outputs 0..m, each the exact step rounded once to p bits."""
    u = part[: step[0]]
    e0 = min([e for v, e in u if v], default=None)
    if e0 is None:
        return [(0, 0)] * (step[0] + 1)
    column = [[v << (e - e0) if v else 0] for v, e in u]
    rows, den, exp = next(_compose(column, [step]))
    return [_round_quotient(row[0], den, exp + e0, p) for row in rows]


def _parts(series: NormalizedSeries, p: int) -> tuple:
    """The series' real and imaginary parts as lists of raw (mantissa,
    exponent) pairs, each rounded to p bits."""
    quads = _quads(series, p)
    return [c[:2] for c in quads], [c[2:] for c in quads]


def _run(series: NormalizedSeries, steps, p: int, dump=None) -> NormalizedSeries:
    """The compiled steps in order on the series at precision p, on its
    real and imaginary parts apart, each step rounded. With `dump`,
    dump(sp, series) follows step sp, the plan's first entry being step 1."""
    re, im = _parts(series, p)
    for sp, step in enumerate(steps, 1):
        re, im = _step(re, step, p), _step(im, step, p)
        if dump:
            dump(sp, _series(list(map(tuple.__add__, re, im)), p))
    return _series(list(map(tuple.__add__, re, im)), p)


def _compose(rows: list, steps):
    """The compiled steps in order on a linear map, in exact integers:
    rows[i][j] is coefficient i's weight on input j. Yields (rows, den,
    exp) after each step, coefficient i being
    sum_j rows[i][j] u_j / den * 2^exp. A step's cascade reads rows
    0..m-1, zero beyond; the rows are never empty. The pin adds
    adj = -w/q, w = sum_k F_k out_k * 2^low and q = qm * 2^qe, to even
    outputs and subtracts it from odd ones; over the denominator qm and
    with a - b = qe - low, a and b >= 0, output i is
    (qm out_i 2^a -+ w 2^b) / qm * 2^-a. So a pinned step's integer
    matrix is qm 2^a C plus a rank-one term, C the cascade's, and each of
    its 2x2 minors, det(A) + w^T adj(A) v, is divisible by qm 2^a; by
    Cauchy-Binet every 2x2 minor of the integer rows composed, the decay
    column's included, is divisible by den * 2^-exp."""
    den, exp = 1, 0
    zero = [0] * len(rows[0])
    for m, (ints, low), (qm, qe) in steps:
        out = [zero]
        for k in range(m):
            out.append(list(map(sub, rows[k] if k < len(rows) else zero, out[-1])))
        a, b = max(qe - low, 0), max(low - qe, 0)
        w = [sum(map(mul, ints, col)) << b for col in zip(*out[1:])]
        rows = [
            [(qm * c << a) + (v if i & 1 else -v) for c, v in zip(row, w)]
            for i, row in enumerate(out)
        ]
        den, exp = den * qm, exp - a
        yield rows, den, exp


def _apply(rows: list, den: int, exp: int, parts: tuple, p: int) -> NormalizedSeries:
    """The rows on the inputs' real and imaginary parts, lists of raw
    (mantissa, exponent) pairs: part k of output i is
    sum_j rows[i][j] v_j 2^e_j / den * 2^exp, rounded once. Each product
    is formed before it is shifted to the part's lowest exponent, and the
    sum runs one term at a time, so inputs far apart hold one wide
    integer at a time. Columns past the inputs are not read."""
    out = []
    for part in parts:
        e0 = min((e for v, e in part if v), default=0)
        terms = [(j, v, e - e0) for j, (v, e) in enumerate(part) if v]
        out.append([
            _round_quotient(sum(row[j] * v << s for j, v, s in terms), den, exp + e0, p)
            for row in rows
        ])
    return _series(list(map(tuple.__add__, *out)), p)


def _prefixes(sched: StepSchedule, p: int):
    """Each step's (rows, den, exp) over run_filter's plan: step 1's n_d x
    n_d integer matrix, whose column j < n_d - 1 is the bare cascade of
    u_j at degree n_d - 1, (-1)^(k-1-j) at k > j, and whose last column is
    e^{-t}'s coefficients (-1)^k; then _compose of _plan on it. _plan
    compiles before step 1 is handed out, so a vanished decay raises
    first; then n_d < 2, which leaves no input column, raises ValueError."""
    plan = _plan(sched, p)
    n_d = sched.n_d
    if n_d < 2:
        raise ValueError(f"n_d={n_d} < 2: run_filter's rows need at least the input u_0")
    start = [
        [(-1) ** (k - 1 - j) if k > j else 0 for j in range(n_d - 1)] + [(-1) ** k]
        for k in range(n_d)
    ]
    return chain([(start, 1, 0)], _compose(start, plan))


@functools.lru_cache(maxsize=8)
def _rows(sched: StepSchedule, p: int) -> tuple:
    """run_filter's exact rows (_prefixes' last), the decay column last,
    once per process per (schedule, p); a DegenerateScheduleError is
    raised, not cached."""
    for last in _prefixes(sched, p):  # holds one step's rows at a time
        pass
    return last


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
) -> NormalizedSeries:
    """The path of `hamspec filter`, steps 1..n_d+3 without step 1's pin.
    Step 1 is the bare cascade of u_0..u_{n_d-2} at degree n_d - 1; the series
    may have any degree from n_d - 2 up, and grid_series gives it at
    n_d - 2. Each output is the exact plan on the p_2-bit inputs, rounded
    once (_rows). k0 is the pinned reference's in exact arithmetic, and z1
    is the pinned z1 less step 1's pin amplitude A. `dump`, if given, is
    called with (step_index, series) after every step, each the exact
    prefix of the plan rounded once; step 1's series has n_d
    coefficients. A vanished decay raises before the first call."""
    n_d, p = profile.n_d, profile.p_2
    if u_series.degree_bound < n_d - 2:
        raise ValueError(
            f"input series degree {u_series.degree_bound} < n_d - 2 = {n_d - 2}"
        )
    rows, den, exp = _rows(sched, p)
    parts = _parts(u_series.truncate(n_d - 2), p)
    if dump:
        for sp, prefix in enumerate(_prefixes(sched, p), 1):
            dump(sp, _apply(*prefix, parts, p))
    return _apply(rows, den, exp, parts, p)


def run_pipeline(
    f_series: NormalizedSeries,
    sched: StepSchedule,
    profile: PipelineProfile,
    dump=None,
) -> NormalizedSeries:
    """The paper-literal pinned reference, steps 1..n_d+3, step 1 at
    degree n_d1 with its pin, each step rounded. `dump`, if given, is
    called with (step_index, series) after every step; step 1's series
    has all n_d1 + 1 coefficients. run_filter is the path of `hamspec filter`."""
    n_d1 = profile.n_d1
    if f_series.degree_bound != n_d1:
        raise ValueError(
            f"input series degree {f_series.degree_bound} != n_d1 {n_d1}"
        )
    p = profile.p_2
    return _run(f_series, (_compile(sched.times[1], n_d1, p),) + _plan(sched, p), p, dump)


def run_pseudo_steps(sched: StepSchedule, profile: PipelineProfile):
    """The decay half of system_columns(sched, profile.p_2)."""
    return system_columns(sched, profile.p_2)[1]


def system_columns(sched: StepSchedule, p: int):
    """Both columns of the extraction's two-channel system,
    ((phi00, phi10), (phi01, phi11)): the constant and linear coefficients
    of run_filter's output for a unit constant, _rows' first column, whose
    step 1 makes it 1 - e^{-t}, and of its decay column, what steps
    2..n_d+3 make of e^{-t}; each rounded once. A DegenerateScheduleError
    is raised, not cached."""
    rows, den, exp = _rows(sched, p)
    return tuple(
        _series([_round_quotient(rows[i][j], den, exp, p) + (0, 0) for i in (0, 1)], p).coeffs
        for j in (0, -1)
    )

"""Shared fixtures: the desk-scale graph corpus and exact-arithmetic helpers."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from hamspec.extraction import ExtractionResult, SingularSystemError
from hamspec.filter_pipeline import DegenerateScheduleError, _plan, system_columns
from hamspec.graph import Graph
from hamspec.numerics import (
    R_ZERO,
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    cmul,
    from_fraction,
    from_int,
    rabs,
    rmax,
)


def _connected(n, edges):
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star_graph(n):
    return Graph(n, [(1, i) for i in range(2, n + 1)])


FOUR_CLUSTER = Graph(4, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 3)])


def fixture_graphs():
    """Deterministic corpus: >= 30 connected graphs with n <= 5."""
    graphs = [
        path_graph(2),
        path_graph(3),
        path_graph(4),
        path_graph(5),
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(5),
        complete_graph(4),
        complete_graph(5),
        star_graph(4),
        star_graph(5),
        FOUR_CLUSTER,
        # paw: triangle with a pendant vertex
        Graph(4, [(1, 2), (2, 3), (3, 1), (1, 4)]),
        # bull: triangle with two horns
        Graph(5, [(1, 2), (2, 3), (3, 1), (1, 4), (2, 5)]),
        # house: 4-cycle with a roof
        Graph(5, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 5)]),
        # butterfly: two triangles sharing vertex 1
        Graph(5, [(1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 1)]),
        # complete bipartite 2x3
        Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]),
    ]
    seen = {(g.n, g.edges) for g in graphs}
    rng = random.Random(8461)
    for n in (4, 5):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        added = 0
        while added < 8:
            edges = [e for e in pairs if rng.random() < 0.55]
            if not _connected(n, edges):
                continue
            g = Graph(n, edges)
            key = (g.n, g.edges)
            if key in seen:
                continue
            seen.add(key)
            graphs.append(g)
            added += 1
    assert len(graphs) >= 30
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return fixture_graphs()


@pytest.fixture(scope="session")
def four_cluster():
    return FOUR_CLUSTER


# ---------------------------------------------------------------------------
# Exact-arithmetic oracles (independent of the package's numeric kernels)
# ---------------------------------------------------------------------------


def round_nearest_even_fraction(x: Fraction, p: int):
    """Reference rounder: (sign, mantissa, exponent) of x at p bits, from
    floor divisions of x's numerator and denominator, which stay fast on
    a numerator of a million bits where Fraction arithmetic on 2^e does
    not."""
    if x == 0:
        return (0, 0, 0)
    sign = 1 if x > 0 else -1
    n, d = abs(x.numerator), x.denominator
    # find e with 2^(p-1) <= |x| / 2^e < 2^p
    e = n.bit_length() - d.bit_length() - p
    while True:
        num, den = (n, d << e) if e >= 0 else (n << -e, d)
        m, rem = divmod(num, den)  # |x| / 2^e = m + rem/den
        if m >= 1 << p:
            e += 1
        elif m < 1 << (p - 1):
            e -= 1
        else:
            break
    if 2 * rem > den or (2 * rem == den and m % 2 == 1):
        m += 1
    if m == (1 << p):
        m >>= 1
        e += 1
    return (sign, m, e)


def rounding_midpoints(x: Fraction, p: int):
    """(below, above): the midpoints between a positive p-bit x and its two
    p-bit neighbours, so x is the correctly rounded value of exactly the
    reals strictly between them."""
    sign, m, e = round_nearest_even_fraction(x, p)
    assert sign == 1 and m * Fraction(2) ** e == x, "x is not a p-bit value"
    ulp = Fraction(2) ** e
    below = ulp / 4 if m == 1 << (p - 1) else ulp / 2  # a power of two has a finer grid below
    return x - below, x + ulp / 2


def pow2(k, p):
    """Exact 2^k at precision p."""
    return PrecisionReal(1 << (p - 1), k - (p - 1))


def trunc_exp_fraction(x: Fraction, m: int) -> Fraction:
    total = Fraction(1)
    term = Fraction(1)
    for i in range(1, m + 1):
        term = term * x / i
        total += term
    return total


def reference_truncated_exp(x, m: int, p: int):
    """sum_{i=0..m} x^i/i! in exact Fractions, rounded once to p bits."""
    return rounded_fraction(trunc_exp_fraction(x.to_fraction(), m), p)


def exp_series(lam, m: int, p: int):
    """Series of e^{lam t}: coefficient k is lam^k by repeated rounded
    cmul, so exact while lam^k fits p bits."""
    coeffs = [PrecisionComplex(from_int(1, p), R_ZERO)]
    for _ in range(m):
        coeffs.append(cmul(coeffs[-1], lam, p))
    return NormalizedSeries(coeffs, p)


def exp_fraction(x: Fraction, terms: int = 300) -> Fraction:
    """e^x by series with enough terms to be an oracle for |x| <= 32."""
    return trunc_exp_fraction(x, terms)


def bisect_fraction(fn, lo: Fraction, hi: Fraction, iters: int) -> Fraction:
    """Plain bisection on exact rationals; fn(lo) < 0 <= fn(hi)."""
    assert fn(lo) < 0 <= fn(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def ruleu_lhs(alpha, r, sp: int, n_d: int, p: int):
    """The step-time equation's left side at r in exact Fractions, rounded
    once to p bits: alpha * r^(sp-1)/(sp-1)! * sum_{i=0..n_d-sp+1}
    (-1)^i r^i / i!, which is 1 at a solved r_sp up to rounding."""
    x = r.to_fraction()
    lead = alpha.to_fraction() * x ** (sp - 1) / math.factorial(sp - 1)
    return rounded_fraction(lead * trunc_exp_fraction(-x, n_d - sp + 1), p)


# ---------------------------------------------------------------------------
# Exact filter step: the reference for filter_pipeline's kernel
# ---------------------------------------------------------------------------


def exact_step(u, m, factors=None, q=None):
    """One filter step at degree m in exact Fractions on u, a list of
    (re, im) Fraction pairs, zero beyond the list: the cascade
    out_k = u_{k-1} - out_{k-1}, k = 0..m, and given the factors f_1..f_m
    and the decay q, the pin adj = -sum_k out_k f_k / q, added to even and
    subtracted from odd outputs. Returns outputs 0..m."""
    zero = (Fraction(0), Fraction(0))
    out = [zero]
    for k in range(1, m + 1):
        a, b = u[k - 1] if k - 1 < len(u) else zero
        out.append((a - out[-1][0], b - out[-1][1]))
    if factors is None:
        return out
    adj = tuple(-sum(o[part] * f for o, f in zip(out[1:], factors)) / q for part in (0, 1))
    return [
        (a + adj[0], b + adj[1]) if i % 2 == 0 else (a - adj[0], b - adj[1])
        for i, (a, b) in enumerate(out)
    ]


def rounded_inputs(series, p):
    """The series' coefficients as exact (re, im) Fractions, each part
    rounded to p bits first."""
    return [tuple(rounded_fraction(x, p).to_fraction() for x in c.to_fractions()) for c in series.coeffs]


def rounded_series(coeffs, p):
    """(re, im) Fraction pairs as a series, each part rounded once."""
    return NormalizedSeries(
        [PrecisionComplex(rounded_fraction(a, p), rounded_fraction(b, p)) for a, b in coeffs], p
    )


def reference_step(series, r, m, p):
    """One filter step at degree m in exact Fractions, each output part
    rounded once by round_nearest_even_fraction. The input is the series
    with each part rounded to p bits; the cascade, and for r not None the
    pin (exact_step), are exact, the factors f_k = r^k/k! and
    tr_m(e^{-r}) each being its exact value rounded once to p bits. r None
    is the bare cascade. Every coefficient 0..m is returned."""
    u = rounded_inputs(series, p)
    if r is None:
        return rounded_series(exact_step(u, m), p)
    x, f, factors = r.to_fraction(), Fraction(1), []
    for k in range(1, m + 1):
        f = f * x / k
        factors.append(rounded_fraction(f, p).to_fraction())
    decay = rounded_fraction(trunc_exp_fraction(-x, m), p)
    if decay.is_zero():
        raise DegenerateScheduleError("truncated decay vanished")
    return rounded_series(exact_step(u, m, factors, decay.to_fraction()), p)


def plan_replay(u, plan):
    """A compiled plan, filter_pipeline._compile's (m, factors, q)
    entries, in exact Fractions on u, a list of (re, im) Fraction pairs:
    each step's exact outputs 0..m as (re, im) pairs, in a list, a step
    reading its predecessor's. The constants are read off the plan,
    f_k = ints[k-1] * 2^low and q = qm * 2^qe, and nothing is rounded."""
    states = []
    for m, (ints, low), (qm, qe) in plan:
        scale = Fraction(2) ** low
        u = exact_step(u, m, [v * scale for v in ints], qm * Fraction(2) ** qe)
        states.append(u)
    return states


def reference_readout(moments, c, sched, p):
    """run's (k0, z1) in exact Fractions, each part rounded once: step 1's
    bare cascade at degree n_d - 1 (exact_step) on the exact
    a_k = (i c)^k S_k for (c0, c1) and on a unit constant for the
    constant column, e^{-t}'s coefficients (-1)^k, k < n_d, for the decay
    column, then plan_replay of _plan on each, then Cramer's rule."""
    n_d = sched.n_d
    unit = (1, 0, -1, 0), (0, 1, 0, -1)  # the parts of i^k, by k mod 4
    coeffs = [(s * c**k * unit[0][k % 4], s * c**k * unit[1][k % 4]) for k, s in enumerate(moments)]
    step_one = (
        exact_step(coeffs, n_d - 1),
        exact_step([(Fraction(1), Fraction(0))], n_d - 1),
        [(Fraction((-1) ** k), Fraction(0)) for k in range(n_d)],
    )
    state, const, decay = (plan_replay(u, _plan(sched, p))[-1] for u in step_one)
    (f00, _), (f10, _), (f01, _), (f11, _) = const[0], const[1], decay[0], decay[1]
    det = f00 * f11 - f10 * f01
    x0, x1 = state[0], state[1]  # (re, im) each
    k0 = PrecisionComplex(*(rounded_fraction((a * f11 - f01 * b) / det, p) for a, b in zip(x0, x1)))
    z1 = PrecisionComplex(*(rounded_fraction((f00 * b - f10 * a) / det, p) for a, b in zip(x0, x1)))
    return k0, z1


def integrator_cascade(series, m: int):
    """The bare cascade on a series at its precision: the zero-state
    response of y' + y = u truncated to degree m,
    out_k = sum_{d<k} (-1)^(k-1-d) u_d, exact and each part rounded once
    (reference_step with r None)."""
    return reference_step(series, None, m, series.precision)


def reference_pipeline(f_series, sched, prof, dump=None):
    """run_pipeline from reference_step: step 1 at n_d1 on the series
    rounded to p_2, truncated to n_d, then steps 2..n_d+3 at n_d, each
    step's output the correctly rounded exact step of its input."""
    n_d, p = prof.n_d, prof.p_2
    j = reference_step(f_series, sched.times[1], prof.n_d1, p)
    if dump:
        dump(1, j)
    j = j.truncate(n_d)
    for sp in range(2, n_d + 4):
        j = reference_step(j, sched.times[sp], n_d, p)
        if dump:
            dump(sp, j)
    return j


# ---------------------------------------------------------------------------
# Exact solve: the reference for extraction's per-part solve
# ---------------------------------------------------------------------------


def nearest_integer(x):
    """Round-half-even nearest integer and the exact distance to it."""
    frac = x.to_fraction()
    n = round(frac)
    return n, abs(frac - n)


def rounded_fraction(x: Fraction, p: int) -> PrecisionReal:
    """x correctly rounded to p bits by round_nearest_even_fraction."""
    sign, m, e = round_nearest_even_fraction(x, p)
    return PrecisionReal(sign * m, e)


def reference_extract(o, phi01, phi11, sched, p, columns=None):
    """extract_nh in exact Fractions: Cramer's rule once per part of
    (c0, c1), k0 and z1 each the correctly rounded exact quotient, each
    residual the larger part magnitude of the rounded k0 and z1's exact
    misfit, rounded once, and n_h from the exact Fraction of k0.
    columns replaces system_columns(sched, p)'s constant column."""
    system = (*(columns or system_columns(sched, p)[0]), phi01, phi11)
    f00, f10, f01, f11 = (z.re.to_fraction() for z in system)
    det = f00 * f11 - f10 * f01
    if det == 0:
        raise SingularSystemError("two-channel system determinant is 0")
    if abs(det) * 2 ** (p // 2) < max(abs(f) for f in (f00, f10, f01, f11)):
        raise SingularSystemError("two-channel system determinant below threshold")
    parts = []
    for x0, x1 in zip(o.coeffs[0].to_fractions(), o.coeffs[1].to_fractions()):
        k0 = rounded_fraction((x0 * f11 - f01 * x1) / det, p)
        z1 = rounded_fraction((f00 * x1 - f10 * x0) / det, p)
        k, z = k0.to_fraction(), z1.to_fraction()
        r0 = rounded_fraction(abs(f00 * k + f01 * z - x0), p)
        r1 = rounded_fraction(abs(f10 * k + f11 * z - x1), p)
        parts.append((k0, z1, r0, r1))
    (k0re, z1re, r0re, r1re), (k0im, z1im, r0im, r1im) = parts
    k0, z1 = PrecisionComplex(k0re, k0im), PrecisionComplex(z1re, z1im)
    n_h, dist = nearest_integer(k0.re)
    return ExtractionResult(
        k0=k0,
        z1=z1,
        n_h_rounded=n_h,
        imag_magnitude=rabs(k0.im),
        round_distance=from_fraction(dist, p) if dist else R_ZERO,
        residual0=rmax(r0re, r0im),
        residual1=rmax(r1re, r1im),
        p=p,
    )


def reference_flags(result):
    """ExtractionResult.flags from exact Fractions: round_distance and
    imaginary against 1/4, precision |Re k0| against 2^(p - 48)."""
    quarter = Fraction(1, 4)
    named = (
        ("round_distance", result.round_distance.to_fraction(), quarter),
        ("imaginary", result.imag_magnitude.to_fraction(), quarter),
        ("precision", abs(result.k0.re.to_fraction()), Fraction(2) ** (result.p - 48)),
    )
    return tuple(name for name, x, limit in named if x > limit)

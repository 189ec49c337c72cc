"""Shared fixtures: the desk-scale graph corpus and exact-arithmetic helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hamspec.filter_pipeline import DegenerateScheduleError
from hamspec.graph import Graph
from hamspec.numerics import (
    C_ZERO,
    NormalizedSeries,
    PrecisionComplex,
    cadd,
    from_int,
    radd,
    rdiv,
    rdiv_int,
    rmul,
    rneg,
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
    """Reference rounder: (sign, mantissa, exponent) of x at p bits."""
    if x == 0:
        return (0, 0, 0)
    sign = 1 if x > 0 else -1
    ax = abs(x)
    # find e with 2^(p-1) <= ax / 2^e < 2^p
    e = ax.numerator.bit_length() - ax.denominator.bit_length() - p
    while ax / Fraction(2) ** e >= (1 << p):
        e += 1
    while ax / Fraction(2) ** e < (1 << (p - 1)):
        e -= 1
    scaled = ax / Fraction(2) ** e
    m = int(scaled)
    rem = scaled - m
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and m % 2 == 1):
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


def trunc_exp_fraction(x: Fraction, m: int) -> Fraction:
    total = Fraction(1)
    term = Fraction(1)
    for i in range(1, m + 1):
        term = term * x / i
        total += term
    return total


def reference_truncated_exp(x, m: int, p: int):
    """sum_{i=0..m} x^i/i! from the object-level primitives: the term
    recurrence t_k = t_{k-1} x/k, each step rounded, added ascending."""
    term = acc = from_int(1, p)
    for k in range(1, m + 1):
        term = rdiv_int(rmul(term, x, p), k, p)
        acc = radd(acc, term, p)
    return acc


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


# ---------------------------------------------------------------------------
# Object-level filter step: the reference for filter_pipeline's raw kernel
# ---------------------------------------------------------------------------


def cneg(a):
    return PrecisionComplex(rneg(a.re), rneg(a.im))


def cmul_real(a, r, p):
    return PrecisionComplex(rmul(a.re, r, p), rmul(a.im, r, p))


def cdiv_real(a, r, p):
    return PrecisionComplex(rdiv(a.re, r, p), rdiv(a.im, r, p))


def reference_step(series, r, m, p):
    """One filter step at degree m from radd/rmul/rdiv on PrecisionComplex
    values, in the kernel's operation order: the cascade acc = u - acc (a
    zero u negates acc), the ascending evaluation at r against the factors
    f_k = f_{k-1} r / k, and the pin adj = -(w / tr_m(e^{-r})) added to even
    and subtracted from odd coefficients. Every coefficient is pinned."""
    u = series.coeffs if series.precision == p else series.reround(p).coeffs
    acc = C_ZERO
    shifted = [acc]
    for k in range(1, m + 1):
        c = u[k - 1] if k - 1 < len(u) else C_ZERO
        acc = cneg(acc) if c.is_zero() else cadd(cneg(acc), c, p)
        shifted.append(acc)
    w, f, neg_r = C_ZERO, from_int(1, p), rneg(r)
    decay, g = f, f
    for k, c in enumerate(shifted):
        if k:
            f = rdiv_int(rmul(f, r, p), k, p)
            g = rdiv_int(rmul(g, neg_r, p), k, p)
            decay = radd(decay, g, p)
        if not c.is_zero():
            w = cadd(w, cmul_real(c, f, p), p)
    if decay.is_zero():
        raise DegenerateScheduleError("truncated decay vanished")
    adj = cneg(cdiv_real(w, decay, p))
    return NormalizedSeries(
        [cadd(c, adj if i % 2 == 0 else cneg(adj), p) for i, c in enumerate(shifted)], p
    )


def reference_pipeline(f_series, sched, prof, dump=None):
    """run_pipeline from reference_step: step 1 at n_d1 on the series
    rounded to p_2, truncated to n_d, then steps 2..n_d+3 at n_d."""
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

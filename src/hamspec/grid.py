"""Exact integer moments of the encoded series, by one layered wavefront.

Before rounding, every coefficient of the encoded series is an integer:
coefficient k is i^k c^k S_k, with S_k = sum_W mult(W) (W - a_h)^k over
the walk-numbers W of all n-walks (k = 0..n_d1 = m), so the shared path
frequency sits at zero and c scales the time axis. Each coefficient is
rounded once, to p_1 bits: the encoded series is correctly rounded.

Wire l at depth d stands for the d-walks ending at l. Depth 1 starts
wire l at its vertex-number n^l; every further depth sums the neighbor
wires and adds n^l to each walk-number, n^l - a_h at the last depth. Up
to a switch depth d0, a wire is a sparse spectrum {W: count}; equal
visit multisets give equal walk-numbers, so it has at most
C(n+d-2, d-1) keys. At d0 every wire becomes its moments
M_k = sum count W^k by power sums, and each later depth shifts the
summed neighbor moments, out_k = sum_j C(k,j) in_j v^(k-j), by Shaw and
Traub's scaled Pascal triangle (JACM 1974): about m^2 / 2 additions.
With d0 = n no shift runs, and S_k are the power sums of the merged
spectrum of at most C(2n-1, n) offsets W - a_h.

For odd n = 2h - 1 the route may instead fold at depth h (meet in the
middle; Horowitz and Sahni, JACM 1974): an n-walk splits in one way into
two h-walks ending at the same l, so with A_l the moments of
Y = 2W - n^l - a_h over those, S_k = 2^-k sum_l sum_j C(k,j) A_l,j A_l,k-j.

The route (d0, fold) minimizes one operation count, keyed on (n, m, |E|):
min(C(2n-1, n), n (2|E|/n)^(n-1)) m for d0 = n, else n C(n+d0-2, d0-1) m
plus m^2 / 2 + 40 per shift and m^2 per square. The second term of the
min estimates a sparse graph's smaller spectrum without counting its
walks. The 40 prices a shift's fixed cost per call (its passes, slices
and divisions), which dominates at small m: a shift took 5.3 us at
m = 6 and 392 us at m = 64, and a square 0.56x and ~2x a shift (timeit,
2-vCPU x86). At the desk degree m = 64: d0 = n for n <= 6, and for
n = 7, 8 up to |E| = n (the cycle); with more edges d0 = 3 folded for
n = 7 (7 shifts, 7 squares), d0 = 3 for n = 8 (40 shifts). At m = 6,
the degree `hamspec run` reads (n_d - 2): d0 = n for n <= 4, for
n = 5, 6 up to |E| = n and for n = 7, 8 up to |E| = n - 1 (a tree);
with more edges d0 = 2 folded for n = 5 and 7, d0 = 2 for n = 6 and 8.
Every route gives the same integers, and none enumerates walks.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from math import comb
from operator import mul

from .graph import Graph, hamiltonian_frequency, vertex_numbers
from .numerics import R_ZERO, NormalizedSeries, PrecisionComplex, PrecisionReal, _round
from .schedule import PipelineProfile


@functools.lru_cache(maxsize=64)
def _powers(v: int, m: int) -> tuple:
    """(v^0, v^1, ..., v^m); v is a vertex-number n^l or n^l - a_h, so it
    depends only on n, and m is n_d1."""
    out = [1]
    for _ in range(m):
        out.append(out[-1] * v)
    return tuple(out)


def _shift(moments: list, v: int) -> list:
    """Moments of the walk-numbers after adding v to each:
    out_k = sum_j C(k,j) moments_j v^(k-j), where v != 0 (a vertex-number
    is >= n, and n^l - a_h <= -1).

    With y_j = moments_j v^(m-j), out_k v^(m-k) = sum_j C(k,j) y_j, and the
    add-only Pascal triangle forms those sums: the pass at i = m-1..0
    replaces y_i..y_m by their prefix sums, after which
    y_k = sum_{j=i..k} C(k-i, j-i) y_j (hockey-stick identity). Dividing by
    v^(m-k) is exact."""
    scale = _powers(v, len(moments) - 1)[::-1]
    y = list(map(mul, moments, scale))
    for i in range(len(y) - 2, -1, -1):
        y[i:] = accumulate(y[i:])
    return [a // b for a, b in zip(y, scale)]


def _merged(spectra, v: int) -> dict:
    """Sum of the spectra {W: count}, with v added to every walk-number."""
    out = {}
    for spectrum in spectra:
        for w, k in spectrum.items():
            out[w + v] = out.get(w + v, 0) + k
    return out


def _power_sums(spectrum: dict, m: int) -> list:
    """sum count W^k for k = 0..m: term_W starts at count and gains a
    factor W per degree."""
    keys = list(spectrum)
    terms = list(spectrum.values())
    sums = [sum(terms)]
    for _ in range(m):
        terms = list(map(mul, terms, keys))
        sums.append(sum(terms))
    return sums


def _fold(wires: list, m: int) -> list:
    """S_k = 2^-k sum_l sum_j C(k,j) A_l,j A_l,k-j for k = 0..m, wire l
    holding A_l; the terms j and k-j are equal, so j runs to k/2."""
    cols = list(zip(*wires))
    return [
        sum(
            (2 - (2 * j == k)) * comb(k, j) * sum(map(mul, cols[j], cols[k - j]))
            for j in range(k // 2 + 1)
        )
        >> k
        for k in range(m + 1)
    ]


@functools.lru_cache(maxsize=64)
def _route(n: int, m: int, edges: int) -> tuple:
    """The (d0, fold) with the fewest operations, the first listed on a tie:
    unfolded for d0 = 1..n, then folded (odd n) for d0 = 1..h-1. d0 = n
    is priced by its keys: at most C(2n-1, n), and about n (2|E|/n)^(n-1),
    the n-walks were every degree the average (exact on regular graphs)."""
    h = (n + 1) // 2

    def cost(route):
        d0, fold = route
        if d0 == n:
            return min(comb(2 * n - 1, n), n * (2 * edges / n) ** (n - 1)) * m
        shifts = (h if fold else n) - d0
        return n * comb(n + d0 - 2, d0 - 1) * m + n * (shifts * (m * m / 2 + 40) + fold * m * m)

    routes = [(d0, False) for d0 in range(1, n + 1)] + [(d0, True) for d0 in range(1, h) if n % 2]
    return min(routes, key=cost)


def _wires(g: Graph, m: int, depth: int, d0: int, a_h: int = 0, fold: bool = False) -> list:
    """The n wires at `depth`, with a_h taken from every walk-number at
    that depth: spectra {W: count} when depth <= d0, else moment vectors
    M_0..M_m, turned from spectra by power sums at d0 and shifted since.
    With `fold` (d0 < depth), the last depth doubles the summed neighbor
    moments (M_k << k) before its shift: the moments of 2W - n^l - a_h."""
    numbers = vertex_numbers(g.n)
    last = [v - a_h for v in numbers]
    wires = [{v: 1} for v in (last if depth == 1 else numbers)]
    for d in range(2, depth + 1):
        shifts = last if d == depth else numbers
        if d == d0 + 1:
            wires = [_power_sums(w, m) for w in wires]
        ins = [[wires[j - 1] for j in g.neighbors(l)] for l in range(1, g.n + 1)]
        if d <= d0:
            wires = [_merged(w, v) for w, v in zip(ins, shifts)]
            continue
        zero = [0] * (m + 1)
        sums = [[sum(c) for c in zip(zero, *w)] for w in ins]
        if fold and d == depth:
            sums = [[x << k for k, x in enumerate(s)] for s in sums]
        wires = [_shift(s, v) for s, v in zip(sums, shifts)]
    return wires


def _moments(g: Graph, m: int, d0: int, fold: bool = False) -> list:
    """S_0..S_m by the wavefront switching at d0: with d0 = n, one power
    sum over the merged spectrum of offsets W - a_h; with `fold` (odd n,
    d0 < h), _fold of the wires at depth h."""
    a_h = hamiltonian_frequency(g)
    if fold:
        return _fold(_wires(g, m, (g.n + 1) // 2, d0, a_h, fold=True), m)
    wires = _wires(g, m, g.n, d0, a_h)
    if d0 >= g.n:
        return _power_sums(_merged(wires, 0), m)
    return [sum(col) for col in zip(*wires)]


def _round_moments(moments: list, c: int, p: int) -> NormalizedSeries:
    """Series with coefficient k = i^k c^k moments_k, each rounded once to p
    bits: with c = odd * 2^e, odd^k moments_k at exponent e*k."""
    e = (c & -c).bit_length() - 1
    odd = c >> e
    coeffs = []
    ok = 1
    for k, s in enumerate(moments):
        x = PrecisionReal(*_round(ok * s if k % 4 < 2 else -ok * s, e * k, p))
        coeffs.append(PrecisionComplex(x, R_ZERO) if k % 2 == 0 else PrecisionComplex(R_ZERO, x))
        ok *= odd
    return NormalizedSeries(coeffs, p)


def grid_intermediate(g: Graph, profile: PipelineProfile, depth: int) -> list:
    """The n wire series (unshifted, time unscaled) at a given depth, for
    cross-checks and debugging: grid_series' wavefront, never folded."""
    if not 1 <= depth <= g.n:
        raise ValueError(f"depth {depth} outside 1..{g.n}")
    m = profile.n_d1
    d0, _ = _route(g.n, m, g.edge_count())
    wires = _wires(g, m, depth, d0)
    if depth <= d0:
        wires = [_power_sums(w, m) for w in wires]
    return [_round_moments(w, 1, profile.p_1) for w in wires]


def exact_moments(g: Graph, m: int) -> list:
    """The exact S_0..S_m, switching from spectra to shifts at the cheapest
    depth for (n, m). `hamspec run` reads k0 off them at m = n_d - 2, all
    that run_filter reads of the encoded series."""
    return _moments(g, m, *_route(g.n, m, g.edge_count()))


def grid_series(g: Graph, profile: PipelineProfile, m: int | None = None) -> NormalizedSeries:
    """Encoded series at degree m (default n_d1), precision p_1: the exact
    moments, each rounded once with time scaled by c. Coefficient k does
    not depend on m, so a lower degree gives the head of the series."""
    if profile.n != g.n:
        raise ValueError(f"profile n={profile.n} does not match graph n={g.n}")
    c = profile.require_c()
    if m is None:
        m = profile.n_d1
    return _round_moments(exact_moments(g, m), c, profile.p_1)

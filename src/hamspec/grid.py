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

The packed route (PACKED, d0 = 0) runs the wavefront on exponential
generating functions packed into integers (Kronecker substitution, the
lane trick of walk_oracle.walk_and_path_counts). With F = m!, wire l is
one integer whose lane k, w bits wide, holds M_k F/k!, M_k the moments
of its walk-numbers. Adding v to every walk-number multiplies the EGF by
e^{vt}, so a Taylor shift is one EGF product (von zur Gathen and
Gerhard, ISSAC 1997), and each depth takes one integer product per wire:
wire_l <- ((sum_{j in N(l)} wire_j) Q_{n^l} mod 2^(w(m+1))) // F, with
Q_v = sum_i (F/i!) v^i 2^(wi), also wire l at depth 1. Lane k of the
product is sum_i (M_{k-i} F/(k-i)!) (F v^i/i!) = F (out_k F/k!), so every
lane is nonnegative and, once the lanes above m are masked off, every
kept one is divisible by F: the floor division is exact, lane by lane.
No lane carries: each is at most F^2 n (n-1)^(n-1) (n n^n)^m (F^2, times
at most n (n-1)^(n-1) walks, times W^m <= (n n^n)^m), and w is one bit
above that bound, a function of (n, m) alone. The walk-numbers stay
positive, n^l at the last depth too; S_k are the lanes of the summed
wires times k!/F, after one shift by -a_h.

The route minimizes one operation count, keyed on (n, m, |E|):
min(C(2n-1, n), n (2|E|/n)^(n-1)) m for d0 = n, else n C(n+d0-2, d0-1) m
plus m^2 / 2 + 40 per shift and m^2 per square, and for PACKED (n-1) (n
((L/350)^2 + 6) + 2|E|) + m^2 / 2 + 40 with L = w(m+1). The second term
of the first min estimates a sparse graph's smaller spectrum without
counting its walks (the n = 7 star has 1512 walks but 182 walk-numbers,
near its estimate 178). The 40 prices a shift's fixed cost per call (its
passes, slices and divisions), which dominates at small m: a shift took
5.3 us at m = 6 and 392 us at m = 64, and a square 0.56x and ~2x a
shift. A product of two L-bit integers is priced as schoolbook on 30-bit
digits, ~1 ns per digit product (1.6 us at L = 1218, K7 at m = 6), plus
6 for its mask, its division and its loop, and 1 per neighbor summed
(timeit, 2-vCPU x86). The packed route wins at small m and loses fast as
m grows, w growing about as m (n+1) log2 n and L as m w: K7 took 125 us
packed against 204 us on the fold at m = 6, 245 against 279 at m = 8 and
428 against 333 at m = 10; at m = 14 every K_n and C_n timed (n = 3..8)
lost, K7 1194 against 504 us. At the desk degree m = 64: d0 = n for n <=
6, and for n = 7, 8 up to |E| = n (the cycle); with more edges d0 = 3
folded for n = 7 (7 shifts, 7 squares), d0 = 3 for n = 8 (40 shifts). At
m = 6, the degree `hamspec run` reads (n_d - 2): d0 = n for n <= 3, for
n = 4 below |E| = 4, for n = 5, 6 below |E| = n and for n = 7, 8 below
|E| = n - 1; PACKED otherwise.
Every route gives the same integers, and none enumerates walks.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from math import comb, factorial
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


PACKED = (0, False)  # _route's packed route: no spectra, packed wires from depth 1


def _width(n: int, m: int) -> int:
    """The packed route's lane width at (n, m): one bit above
    F^2 n (n-1)^(n-1) (n n^n)^m, F = m!, which bounds every lane."""
    f = factorial(m)
    return (f * f * n * (n - 1) ** (n - 1) * n ** ((n + 1) * m)).bit_length() + 1


@functools.lru_cache(maxsize=16)
def _egf(n: int, m: int) -> tuple:
    """The packed route's tables at (n, m), built on first use: the lane
    width w, F = m!, the lane scales F/k! and, for each vertex-number
    v = n^l, Q_v = sum_i (F/i!) v^i 2^(wi), the packed moments of {v: 1}."""
    w, f = _width(n, m), factorial(m)
    scales = [f // factorial(k) for k in range(m + 1)]
    qs = []
    for v in vertex_numbers(n):
        q = 0
        for x in reversed(list(map(mul, scales, _powers(v, m)))):
            q = q << w | x
        qs.append(q)
    return w, f, scales, tuple(qs)


def _packed_wires(g: Graph, m: int, depth: int) -> list:
    """The n packed wires at `depth`, unshifted: lane k of wire l holds
    M_k F/k!, M_k the k-th moment of the walk-numbers of the depth-walks
    ending at l. Each depth multiplies the summed neighbor wires by
    Q_{n^l}, keeps lanes 0..m and divides by F, exactly."""
    w, f, _, qs = _egf(g.n, m)
    mask = (1 << w * (m + 1)) - 1
    ins = [[j - 1 for j in g.neighbors(l)] for l in range(1, g.n + 1)]
    wires = list(qs)
    for _ in range(depth - 1):
        get = wires.__getitem__
        wires = [(sum(map(get, js)) * q & mask) // f for js, q in zip(ins, qs)]
    return wires


def _unpack(x: int, w: int, scales: list) -> list:
    """The moments M_0..M_m off a packed wire: lane k over F/k!, exactly."""
    lane = (1 << w) - 1
    return [(x >> w * k & lane) // s for k, s in enumerate(scales)]


@functools.lru_cache(maxsize=64)
def _route(n: int, m: int, edges: int) -> tuple:
    """The route with the fewest operations, the first listed on a tie:
    (d0, False) for d0 = 1..n, (d0, True) (odd n) for d0 = 1..h-1, then
    PACKED. d0 = n is priced by its keys: at most C(2n-1, n), and about
    n (2|E|/n)^(n-1), the n-walks were every degree the average (exact on
    regular graphs)."""
    h = (n + 1) // 2

    def cost(route):
        d0, fold = route
        if d0 == 0:
            bits = _width(n, m) * (m + 1)
            return (n - 1) * (n * ((bits / 350) ** 2 + 6) + 2 * edges) + m * m / 2 + 40
        if d0 == n:
            return min(comb(2 * n - 1, n), n * (2 * edges / n) ** (n - 1)) * m
        shifts = (h if fold else n) - d0
        return n * comb(n + d0 - 2, d0 - 1) * m + n * (shifts * (m * m / 2 + 40) + fold * m * m)

    routes = [(d0, False) for d0 in range(1, n + 1)] + [(d0, True) for d0 in range(1, h) if n % 2]
    return min(routes + [PACKED], key=cost)


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


def _moments(g: Graph, m: int, d0: int | None = None, fold: bool = False) -> list:
    """S_0..S_m on the route (d0, fold), by default _route's: with d0 = n,
    one power sum over the merged spectrum of offsets W - a_h; with `fold`
    (odd n, d0 < h), _fold of the wires at depth h; on PACKED, the
    unpacked sum of the packed wires at depth n, shifted by -a_h."""
    if m < 0:
        raise ValueError(f"moment degree m={m} is negative")
    if d0 is None:
        d0, fold = _route(g.n, m, g.edge_count())
    a_h = hamiltonian_frequency(g)
    if d0 == 0:
        w, _, scales, _ = _egf(g.n, m)
        return _shift(_unpack(sum(_packed_wires(g, m, g.n)), w, scales), -a_h)
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
    if d0 == 0:
        w, _, scales, _ = _egf(g.n, m)
        wires = [_unpack(x, w, scales) for x in _packed_wires(g, m, depth)]
    else:
        wires = _wires(g, m, depth, d0)
        if depth <= d0:
            wires = [_power_sums(w, m) for w in wires]
    return [_round_moments(w, 1, profile.p_1) for w in wires]


def exact_moments(g: Graph, m: int) -> list:
    """The exact S_0..S_m on the cheapest route for the graph and m >= 0.
    `hamspec run` reads k0 off them at m = n_d - 2, all that run_filter
    reads of the encoded series."""
    return _moments(g, m)


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

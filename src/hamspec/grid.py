"""Exact integer moments of the encoded series, by one of two routes.

Before rounding, every coefficient of the encoded series is an integer:
coefficient k is i^k c^k S_k, with S_k = sum_W mult(W) (W - a_h)^k over
the walk-numbers W of all n-walks (k = 0..n_d1), so the shared path
frequency sits at zero and c scales the time axis. Two exact routes build
the same S_k, and each output coefficient is rounded once, to p_1 bits,
so the encoded series is the correctly rounded value of
sum_W mult(W) (i c (W - a_h))^k at every size, whichever route ran.

The moment wavefront runs in polynomial time. Wire l at depth d holds
M_k = sum of W^k over all d-walks ending at l, so its series sum e^{iWt}
has coefficients i^k M_k. Depth 1 starts wire l at the powers of its
vertex-number n^l; every further depth sums the neighbor wires and shifts
by n^l, which on moments is the binomial convolution
out_k = sum_j C(k,j) in_j (n^l)^(k-j). The final sum over wires is shifted
by -a_h the same way. Each shift is Shaw and Traub's scaled Pascal
triangle (JACM 1974): scale in_j by v^(m-j), run the add-only Pascal
triangle, divide coefficient k exactly by v^(m-k). The n(n-1) shifts of
m+1 integers cost about n(n-1) m^2 / 2 additions.

The spectrum route runs the same wavefront on sparse spectra {W: count}:
depth 1 is {n^l: 1}, every further depth merges the neighbor spectra and
adds n^l to every key. S_k is then a power sum over the N distinct
offsets W - a_h, about 2 N m operations. Equal visit multisets give equal
walk-numbers, so N is at most the number of multisets of n visits to n
vertices, C(2n-1, n). grid_series takes the spectrum route when that
bound makes it the cheaper one, 4 C(2n-1, n) <= n(n-1) m, and the
wavefront otherwise: at the desk degree m = 64, the spectrum for n <= 6
and the wavefront from n = 7. The bound grows like 4^n while the
wavefront is polynomial in n, so the wavefront is the route at scale.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from math import comb
from operator import add, mul

from .graph import Graph, hamiltonian_frequency, vertex_numbers
from .numerics import R_ZERO, NormalizedSeries, PrecisionComplex, from_int
from .schedule import PipelineProfile


@functools.lru_cache(maxsize=64)
def _powers(v: int, m: int) -> tuple:
    """(v^0, v^1, ..., v^m); v is a vertex-number or -a_h, so it depends
    only on n, and m is n_d1."""
    out = [1]
    for _ in range(m):
        out.append(out[-1] * v)
    return tuple(out)


def _shift(moments: list, v: int) -> list:
    """Moments of the walk-numbers after adding v to each:
    out_k = sum_j C(k,j) moments_j v^(k-j), where v != 0 (a vertex-number
    is >= n, and -a_h <= -1).

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


def _propagate(g: Graph, m: int, depth: int) -> list:
    """Exact moment vectors M_0..M_m of each wire after `depth` layers."""
    numbers = vertex_numbers(g.n)
    wires = [_powers(v, m) for v in numbers]
    for _ in range(2, depth + 1):
        nxt = []
        for l in range(1, g.n + 1):
            incoming = [0] * (m + 1)
            for j in g.neighbors(l):
                incoming = list(map(add, incoming, wires[j - 1]))
            nxt.append(_shift(incoming, numbers[l - 1]))
        wires = nxt
    return wires


def _wavefront_moments(g: Graph, m: int) -> list:
    """S_0..S_m by the moment wavefront: propagate to depth n, sum the
    wires, shift by -a_h."""
    total = [sum(col) for col in zip(*_propagate(g, m, g.n))]
    return _shift(total, -hamiltonian_frequency(g))


def _merged(spectra, v: int) -> dict:
    """Sum of the spectra {W: count}, with v added to every walk-number."""
    out = {}
    for spectrum in spectra:
        for w, k in spectrum.items():
            out[w + v] = out.get(w + v, 0) + k
    return out


def _spectrum(g: Graph) -> dict:
    """Multiplicity of each walk-number over all n-walks, by the wavefront
    on sparse spectra in place of moment vectors."""
    numbers = vertex_numbers(g.n)
    wires = [{v: 1} for v in numbers]
    for _ in range(2, g.n + 1):
        wires = [
            _merged((wires[j - 1] for j in g.neighbors(l)), v)
            for l, v in enumerate(numbers, start=1)
        ]
    return _merged(wires, 0)


def _spectrum_moments(g: Graph, m: int) -> list:
    """S_0..S_m as power sums over the walk-number spectrum: term_W
    starts at mult(W) and gains a factor W - a_h per degree."""
    spectrum = _spectrum(g)
    a_h = hamiltonian_frequency(g)
    offsets = [w - a_h for w in spectrum]
    terms = list(spectrum.values())
    sums = [sum(terms)]
    for _ in range(m):
        terms = list(map(mul, terms, offsets))
        sums.append(sum(terms))
    return sums


def _round_moments(moments: list, c: int, p: int) -> NormalizedSeries:
    """Series with coefficient k = i^k c^k moments_k, each rounded once to p bits."""
    coeffs = []
    ck = 1
    for k, s in enumerate(moments):
        x = from_int(ck * s if k % 4 < 2 else -ck * s, p)
        coeffs.append(PrecisionComplex(x, R_ZERO) if k % 2 == 0 else PrecisionComplex(R_ZERO, x))
        ck *= c
    return NormalizedSeries(coeffs, p)


def grid_intermediate(g: Graph, profile: PipelineProfile, depth: int) -> list:
    """The n wire series (unshifted, time unscaled) at a given depth, for
    cross-checks and debugging."""
    if not 1 <= depth <= g.n:
        raise ValueError(f"depth {depth} outside 1..{g.n}")
    return [
        _round_moments(w, 1, profile.p_1) for w in _propagate(g, profile.n_d1, depth)
    ]


def grid_series(g: Graph, profile: PipelineProfile) -> NormalizedSeries:
    """Encoded series at degree n_d1, precision p_1: the exact moments S_k
    by the cheaper route for (n, n_d1), each rounded once with time scaled
    by c."""
    if profile.n != g.n:
        raise ValueError(f"profile n={profile.n} does not match graph n={g.n}")
    c = profile.require_c()
    n, m = g.n, profile.n_d1
    # ~2 N m operations for N <= C(2n-1, n) walk-numbers against the
    # wavefront's ~n(n-1) m^2 / 2 additions
    if 4 * comb(2 * n - 1, n) <= n * (n - 1) * m:
        moments = _spectrum_moments(g, m)
    else:
        moments = _wavefront_moments(g, m)
    return _round_moments(moments, c, profile.p_1)

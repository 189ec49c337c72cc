"""Layered wavefront construction of the encoded series in polynomial time.

Before rounding, every coefficient the wavefront builds is an integer
moment. Wire l at depth d holds M_k = sum of W^k over all d-walks ending
at l (k = 0..n_d1), so its series sum e^{iWt} has coefficients i^k M_k.
Depth 1 starts wire l at the powers of its vertex-number n^l; every
further depth sums the neighbor wires and shifts by n^l, which on moments
is the binomial convolution out_k = sum_j C(k,j) in_j (n^l)^(k-j). The
final sum over wires is shifted by -a_h the same way, so the shared path
frequency sits at zero, and coefficient k becomes i^k c^k S_k, scaling
the time axis by c.

Each shift is Shaw and Traub's scaled Pascal triangle (JACM 1974): scale
in_j by v^(m-j), run the add-only Pascal triangle, divide coefficient k
exactly by v^(m-k). All of this runs in exact Python integers; each output
coefficient is rounded once, to p_1 bits, so the encoded series is the
correctly rounded value of sum_W mult(W) (i c (W - a_h))^k at every size.
"""

from __future__ import annotations

import functools
from itertools import accumulate
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
    """Encoded series at degree n_d1, precision p_1: propagate to depth n,
    sum the wires, shift by the shared path frequency, scale time by c."""
    if profile.n != g.n:
        raise ValueError(f"profile n={profile.n} does not match graph n={g.n}")
    c = profile.require_c()
    wires = _propagate(g, profile.n_d1, g.n)
    total = [sum(col) for col in zip(*wires)]
    return _round_moments(_shift(total, -hamiltonian_frequency(g)), c, profile.p_1)

"""The exact truncated functional of the production filter: an oracle for k0 and z1.

run_filter, the unpinned step 1 and then steps 2..n_d+3, is linear in the
encoded coefficients a_0..a_{n_d-2}, and so is the two-channel solve. So
k0 = sum_k l_k a_k and z1 = sum_k m_k a_k, with rational l_k and m_k
fixed by the schedule. Here they come from replaying the steps in exact
rationals at the schedule's dyadic times, with both columns and the 2x2
solve exact too, and a_k = (i c)^k S_k from the enumerated walk spectrum.
Nothing here rounds, and nothing is shared with filter_pipeline or grid,
so the difference between the package's k0 and this one is its rounding
error alone. l_0 = 1 and m_0 = 0: a unit constant is the constant column.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial

from .graph import Graph, hamiltonian_frequency
from .schedule import PipelineProfile, StepSchedule
from .walk_oracle import walk_spectrum


def _step(u: list, den: int, r: Fraction, m: int) -> tuple:
    """One step at degree m in exact rationals, on the values u_d / den
    (u_d = 0 beyond the list): the zero-state response
    out_k = sum_{d<k} (-1)^(k-1-d) u_d of y' + y = u, plus the multiple of
    e^{-t} that zeroes it at r. Returns (numerators, denominator); the
    denominator gains the factor Q = D^m m! tr_m(e^{-r}), r = N / D, and
    nothing is reduced, as gcds would cost more than the growth."""
    out = [sum((-1) ** (k - 1 - d) * u[d] for d in range(min(k, len(u)))) for k in range(m + 1)]
    n, d = r.numerator, r.denominator
    weights = [n**k * d ** (m - k) * (factorial(m) // factorial(k)) for k in range(m + 1)]
    w = sum(c * f for c, f in zip(out, weights))
    q = sum(f if k % 2 == 0 else -f for k, f in enumerate(weights))
    return [c * q - (w if k % 2 == 0 else -w) for k, c in enumerate(out)], den * q


def _tail(u: list, times: list, n_d: int) -> tuple:
    """(c0, c1) of steps 2..n_d+3 on step 1's integer coefficients 0..n_d-1."""
    den = 1
    for r in times:
        u, den = _step(u[:n_d], den, r, n_d)
    return Fraction(u[0], den), Fraction(u[1], den)


@functools.lru_cache(maxsize=8)
def transfer(sched: StepSchedule) -> tuple:
    """(l, m): k0 = sum_k l_k a_k and z1 = sum_k m_k a_k over k = 0..n_d-2,
    once per process per schedule. Step 1 turns a unit a_j into
    (-1)^(k-1-j) at k > j, its bare cascade."""
    n_d = sched.n_d
    times = [t.to_fraction() for t in sched.times[2:]]
    responses = [
        _tail([(-1) ** (k - 1 - j) if k > j else 0 for k in range(n_d)], times, n_d)
        for j in range(n_d - 1)
    ]
    phi00, phi10 = responses[0]
    phi01, phi11 = _tail([(-1) ** k for k in range(n_d)], times, n_d)
    det = phi00 * phi11 - phi10 * phi01
    l = tuple((c0 * phi11 - phi01 * c1) / det for c0, c1 in responses)
    m = tuple((phi00 * c1 - phi10 * c0) / det for c0, c1 in responses)
    return l, m


def exact_k0_z1(g: Graph, profile: PipelineProfile, sched: StepSchedule) -> tuple:
    """((Re k0, Im k0), (Re z1, Im z1)) as Fractions: the transfer
    functional on a_k = (i c)^k S_k, S_k = sum_W mult(W) (W - a_h)^k over
    the enumerated walk spectrum."""
    l, m = transfer(sched)
    a_h = hamiltonian_frequency(g)
    spectrum = walk_spectrum(g)
    c = profile.require_c()
    k0, z1 = [Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]
    for k in range(len(l)):
        a = c**k * sum(mult * (w - a_h) ** k for w, mult in spectrum.items())
        part, sign = k % 2, (-1) ** (k // 2)  # i^k = sign * i^part
        k0[part] += sign * l[k] * a
        z1[part] += sign * m[k] * a
    return tuple(k0), tuple(z1)

"""Exact ground truth: walk counts, Hamiltonian path counts, spectra.

The report's counts enumerate nothing: `walk_and_path_counts` gives n_p
and the directed path count from one pass of Karp's inclusion-exclusion
(Oper. Res. Lett. 1982), every vertex subset a lane of one Python int.
The references enumerate every n-walk (~n^n of them; `enumerate_n_walks`,
`walk_spectrum`, `total_walks`) and every vertex ordering (n!;
`count_hamiltonian_paths`). The spectrum and the direct-sum series exist
only by enumeration.

Everything here is exact integer arithmetic; nothing is shared with the
polynomial-pipeline code paths it is used to verify.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from itertools import permutations

from .graph import Graph, hamiltonian_frequency, vertex_numbers
from .numerics import R_ZERO, NormalizedSeries, PrecisionComplex, from_int

DEFAULT_ORACLE_LIMIT = 7


class OracleLimitError(RuntimeError):
    """Refused: the exact counts grow exponentially beyond the configured limit."""


def _check_limit(g: Graph, limit: int):
    if g.n > limit:
        # _lane_width(n, n - 1) from log2, without forming n (n-1)^(n-1)
        n = g.n
        width = int(math.log2(n) + (n - 1) * math.log2(max(n - 1, 1))) + 1
        raise OracleLimitError(
            f"graph has n={n} > oracle limit {limit}; raise the limit explicitly "
            f"(the path count keeps ~3n ints of 2^n lanes of up to about {width} "
            f"bits and makes (n-1)(2|E|+n) sums of them, the walk spectrum ~n^n walks)"
        )


def enumerate_n_walks(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT):
    """Yield every walk with exactly n vertex visits, lexicographic order."""
    _check_limit(g, limit)
    n = g.n
    walk = [0] * n

    def extend(depth):
        if depth == n:
            yield tuple(walk)
            return
        for nxt in g.neighbors(walk[depth - 1]):
            walk[depth] = nxt
            yield from extend(depth + 1)

    for start in range(1, n + 1):
        walk[0] = start
        yield from extend(1)


def count_hamiltonian_paths(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Directed count: vertex orderings with consecutive adjacency.

    Independent of the walk enumeration (permutation scan), so the two can
    cross-check each other. Each undirected path is counted once per
    direction; n=1 counts the single trivial path.
    """
    _check_limit(g, limit)
    if g.n == 1:
        return 1
    count = 0
    for perm in permutations(range(1, g.n + 1)):
        if all(perm[i + 1] in g.neighbors(perm[i]) for i in range(g.n - 1)):
            count += 1
    return count


def walk_spectrum(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> dict:
    """Multiplicity of each walk-number over all n-walks."""
    numbers = vertex_numbers(g.n)
    spectrum = Counter()
    for walk in enumerate_n_walks(g, limit):
        spectrum[sum(numbers[v - 1] for v in walk)] += 1
    return dict(spectrum)


def total_walks(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    return sum(walk_spectrum(g, limit).values())


def _lane_width(n: int, degree: int) -> int:
    """Bits per lane: room for n degree^(n-1), which bounds every count."""
    return (n * max(degree, 1) ** (n - 1)).bit_length()


@functools.lru_cache(maxsize=16)
def _lanes(n: int, w: int) -> tuple:
    """(ones, fulls) for 2^n lanes of w bits; lane s stands for the subset
    holding vertex l iff bit l-1 of s is set. ones has a 1 in every lane,
    fulls[l-1] all w bits of each lane holding l."""
    lane = (1 << w) - 1
    fulls, every = [], lane  # every: all bits of the lanes built so far
    for k in range(n):
        span = w << k  # lanes 0..2^k-1 are built; above them, vertex k+1
        fulls = [x | x << span for x in fulls] + [every << span]
        every |= every << span
    return every // lane, tuple(fulls)


def walk_and_path_counts(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> tuple:
    """(n_p, directed Hamiltonian path count) by one inclusion-exclusion pass.

    v[l-1] holds, per subset S, the walks inside S that end at l: 1 where S
    holds l, then n-1 rounds of neighbour sums masked to the lanes holding
    l. Lane S of their total is w(S), the n-vertex walks inside S; lane V
    is n_p. Folding out vertex u turns lane S into lane S+u less lane S, the
    walks that also visit u: never negative, so no lane borrows. The last
    lane counts the walks that visit every vertex, sum_S (-1)^(n-|S|) w(S):
    the directed paths (1 for n=1).
    """
    _check_limit(g, limit)
    n = g.n
    rows = [[j - 1 for j in g.neighbors(l)] for l in range(1, n + 1)]
    w = _lane_width(n, max(map(len, rows)))
    ones, fulls = _lanes(n, w)
    v = [ones & full for full in fulls]
    for _ in range(n - 1):
        v = [sum([v[j] for j in row]) & full for row, full in zip(rows, fulls)]
    x = sum(v)
    n_p = x >> (w << n) - w
    for k in reversed(range(n)):
        x = (x >> (w << k)) - (x & (1 << (w << k)) - 1)
    return n_p, x


def check_visit_pair_uniqueness(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT):
    """True iff all n-walks sharing a walk-number share the visit multiset.

    Returns (ok, witness) where witness is a pair of offending walks when
    ok is False.
    """
    numbers = vertex_numbers(g.n)
    seen = {}
    for walk in enumerate_n_walks(g, limit):
        wn = sum(numbers[v - 1] for v in walk)
        pair = frozenset(Counter(walk).items())
        if wn in seen:
            prev_pair, prev_walk = seen[wn]
            if prev_pair != pair:
                return False, (prev_walk, walk)
        else:
            seen[wn] = (pair, walk)
    return True, None


def oracle_series(
    g: Graph, c: int, m: int, p: int, limit: int = DEFAULT_ORACLE_LIMIT
) -> NormalizedSeries:
    """Direct-sum ground truth for the encoded series:
    a_k = sum over walk-numbers W of mult(W) * (i*c*(W - a_h))^k.

    The real sum S_k = sum mult(W) (c (W - a_h))^k is exact in Python
    integers and rounded once to p bits; i^k = 1, i, -1, -i places it, with
    its sign, in the real or the imaginary part.
    """
    a_h = hamiltonian_frequency(g)
    sums = [0] * (m + 1)
    for wn, mult in walk_spectrum(g, limit).items():
        lam = c * (wn - a_h)
        term = mult
        for k in range(m + 1):
            sums[k] += term
            term *= lam
    coeffs = []
    for k, s in enumerate(sums):
        x = from_int(s if k % 4 < 2 else -s, p)
        coeffs.append(PrecisionComplex(x, R_ZERO) if k % 2 == 0 else PrecisionComplex(R_ZERO, x))
    return NormalizedSeries(coeffs, p)

"""Exact ground truth: walk counts, Hamiltonian path counts, spectra.

Two routes to each count, kept independent so they cross-check each other.
The report's counts enumerate nothing: n_p is the entry sum of A^(n-1)
(`matrix_walk_count`, n-1 rounds of neighbour sums, O(n |E|)) and the
directed path count is a DP over (visited set, last vertex)
(`count_hamiltonian_paths_dp`, O(2^n n^2)).
The references enumerate every n-walk (~n^n of them; `enumerate_n_walks`,
`walk_spectrum`, `total_walks`) and every vertex ordering (n!;
`count_hamiltonian_paths`). The spectrum and the direct-sum series exist
only by enumeration.

Everything here is exact integer arithmetic; nothing is shared with the
polynomial-pipeline code paths it is used to verify.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations

from .graph import Graph, hamiltonian_frequency, vertex_numbers
from .numerics import R_ZERO, NormalizedSeries, PrecisionComplex, from_int

DEFAULT_ORACLE_LIMIT = 7


class OracleLimitError(RuntimeError):
    """Refused: the exact counts grow exponentially beyond the configured limit."""


def _check_limit(g: Graph, limit: int):
    if g.n > limit:
        raise OracleLimitError(
            f"graph has n={g.n} > oracle limit {limit}; raise the limit explicitly "
            f"(the path DP takes ~2^n n^2 steps, the walk spectrum ~n^n walks)"
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


def count_hamiltonian_paths_dp(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Directed count by the Held-Karp DP over (visited bitmask, last vertex).

    ways[mask][v] counts the directed paths that visit exactly the vertices
    in mask and end at v; O(2^n n^2) steps. Counts what
    `count_hamiltonian_paths` counts, n=1 included, without its n! scan.
    """
    _check_limit(g, limit)
    n = g.n
    nbr_mask = [sum(1 << (u - 1) for u in g.neighbors(v)) for v in range(1, n + 1)]
    ways = [[0] * n for _ in range(1 << n)]
    for v in range(n):
        ways[1 << v][v] = 1
    for mask in range(1, 1 << n):
        for v, w in enumerate(ways[mask]):
            if not w:
                continue
            free = nbr_mask[v] & ~mask
            while free:
                bit = free & -free
                free ^= bit
                ways[mask | bit][bit.bit_length() - 1] += w
    return sum(ways[-1])


def walk_spectrum(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> dict:
    """Multiplicity of each walk-number over all n-walks."""
    numbers = vertex_numbers(g.n)
    spectrum = Counter()
    for walk in enumerate_n_walks(g, limit):
        spectrum[sum(numbers[v - 1] for v in walk)] += 1
    return dict(spectrum)


def total_walks(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    return sum(walk_spectrum(g, limit).values())


def matrix_walk_count(g: Graph) -> int:
    """1^T A^{n-1} 1 by n-1 neighbour sums over exact integers; independent
    route to n_p. v_l counts the walks of the current length that end at l."""
    v = [1] * g.n
    for _ in range(g.n - 1):
        v = [sum(v[j - 1] for j in g.neighbors(l)) for l in range(1, g.n + 1)]
    return sum(v)


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

"""Enumeration ground truth: counts, spectra, uniqueness, direct series."""

import random
from itertools import combinations
from math import factorial

import pytest

from hamspec.graph import Graph, hamiltonian_frequency
from hamspec.walk_oracle import (
    OracleLimitError,
    check_visit_pair_uniqueness,
    count_hamiltonian_paths,
    enumerate_n_walks,
    oracle_series,
    total_walks,
    walk_and_path_counts,
    walk_spectrum,
)
from hamspec import walk_oracle
from conftest import FOUR_CLUSTER, complete_graph, cycle_graph, path_graph


class TestEnumerate:
    def test_p2_both_directions(self):
        g = path_graph(2)
        assert list(enumerate_n_walks(g)) == [(1, 2), (2, 1)]

    def test_edgeless_empty(self):
        assert list(enumerate_n_walks(Graph(2, []))) == []

    def test_four_cluster_walk_count(self):
        # exhaustive enumeration, cross-checked against the lane pass
        walks = list(enumerate_n_walks(FOUR_CLUSTER))
        assert len(walks) == 66
        assert walk_and_path_counts(FOUR_CLUSTER) == (66, 12)

    def test_lexicographic_order(self):
        walks = list(enumerate_n_walks(path_graph(3)))
        assert walks == sorted(walks)

    def test_limit_refusal(self):
        g = path_graph(5)
        with pytest.raises(OracleLimitError):
            list(enumerate_n_walks(g, limit=4))


class TestHamiltonianCount:
    def test_four_cluster_directed(self):
        assert count_hamiltonian_paths(FOUR_CLUSTER) == 12

    def test_path3(self):
        assert count_hamiltonian_paths(path_graph(3)) == 2

    def test_edgeless(self):
        assert count_hamiltonian_paths(Graph(3, [])) == 0

    def test_single_vertex(self):
        assert count_hamiltonian_paths(Graph(1, [])) == 1

    def test_complete_graphs(self):
        assert count_hamiltonian_paths(complete_graph(4)) == 24
        assert count_hamiltonian_paths(complete_graph(5)) == 120


def near_complete(n, seed):
    """K_n minus two seeded edges."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    dropped = random.Random(seed).sample(pairs, 2)
    return Graph(n, [e for e in pairs if e not in dropped])


LARGE = [complete_graph(6), complete_graph(7), near_complete(6, 1), near_complete(7, 2)]


def references(g, limit=7):
    """(n_p, directed path count) by enumeration and the permutation scan."""
    return total_walks(g, limit), count_hamiltonian_paths(g, limit)


class TestHamiltonianDP:
    """Karp's inclusion-exclusion pass against the permutation scan."""

    def test_corpus(self, corpus):
        for g in corpus:
            assert walk_and_path_counts(g)[1] == count_hamiltonian_paths(g)

    @pytest.mark.parametrize(
        "g",
        [
            Graph(1, []),
            Graph(3, []),
            Graph(5, [(1, 2), (3, 4), (4, 5)]),  # disconnected
            *LARGE,
            near_complete(6, 3),
            near_complete(7, 4),
        ],
    )
    def test_small_and_large(self, g):
        assert walk_and_path_counts(g)[1] == count_hamiltonian_paths(g)

    def test_limit_refusal(self):
        with pytest.raises(OracleLimitError, match="oracle limit"):
            walk_and_path_counts(path_graph(5), limit=4)


class TestWalkAndPathCounts:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_labelled_graph(self, n):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            assert walk_and_path_counts(g) == references(g), g

    @pytest.mark.parametrize("n", [6, 7])
    def test_seeded_random_graphs(self, n):
        rng = random.Random(7000 + n)
        pairs = list(combinations(range(1, n + 1), 2))
        for _ in range(4):
            density = rng.uniform(0.3, 0.8)
            g = Graph(n, [e for e in pairs if rng.random() < density])
            assert walk_and_path_counts(g) == references(g), g

    @pytest.mark.parametrize("n", range(1, 11))
    def test_complete_graph_closed_form(self, n):
        assert walk_and_path_counts(complete_graph(n), 10) == (n * (n - 1) ** (n - 1), factorial(n))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_cycle_closed_form(self, n):
        assert walk_and_path_counts(cycle_graph(n), 10) == (n * 2 ** (n - 1), 2 * n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_path_graph_has_two_directed_paths(self, n):
        assert walk_and_path_counts(path_graph(n), 10)[1] == 2

    def test_edge_cases(self):
        assert walk_and_path_counts(Graph(1, [])) == (1, 1)
        assert walk_and_path_counts(Graph(4, [])) == (0, 0)
        # two triangles: walks in each, no path through both
        two_triangles = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        assert walk_and_path_counts(two_triangles) == (2 * 3 * 2 ** 5, 0)

    def test_limit_refuses_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lanes built above the limit")

        monkeypatch.setattr(walk_oracle, "_lanes", refuse)
        with pytest.raises(OracleLimitError, match="oracle limit 9"):
            walk_and_path_counts(complete_graph(10), limit=9)


class TestSpectrum:
    def test_p2(self):
        assert walk_spectrum(path_graph(2)) == {6: 2}

    def test_single_vertex(self):
        assert walk_spectrum(Graph(1, [])) == {1: 1}

    def test_four_cluster_path_frequency(self):
        spectrum = walk_spectrum(FOUR_CLUSTER)
        assert spectrum[340] == 12
        assert sum(spectrum.values()) == 66

    def test_spectrum_keys_lower_bound(self):
        # every walk-number is a sum of n vertex-numbers, each >= n
        for g in (path_graph(3), FOUR_CLUSTER, complete_graph(4)):
            assert min(walk_spectrum(g)) >= g.n * g.n


class TestCorpusInvariants:
    def test_path_count_equals_spectrum_at_path_frequency(self, corpus):
        for g in corpus:
            spectrum = walk_spectrum(g)
            assert spectrum.get(hamiltonian_frequency(g), 0) == count_hamiltonian_paths(g)

    def test_visit_pair_uniqueness(self, corpus):
        for g in corpus:
            ok, witness = check_visit_pair_uniqueness(g)
            assert ok, witness

    def test_matrix_count_matches_enumeration(self, corpus):
        for g in [*corpus, Graph(1, [])]:
            assert walk_and_path_counts(g)[0] == total_walks(g)
        assert walk_and_path_counts(Graph(1, []))[0] == 1

    @pytest.mark.parametrize("g", LARGE)
    def test_matrix_count_matches_enumeration_n6_7(self, g):
        assert walk_and_path_counts(g)[0] == total_walks(g)


class TestOracleSeries:
    def test_p2_constant(self):
        s = oracle_series(path_graph(2), c=1, m=6, p=128)
        assert s.coeffs[0].re.to_fraction() == 2
        assert all(c.is_zero() for c in s.coeffs[1:])

    def test_edgeless_zero(self):
        s = oracle_series(Graph(2, []), c=1, m=4, p=128)
        assert all(c.is_zero() for c in s.coeffs)

    def test_four_cluster_leading_coefficients(self):
        s = oracle_series(FOUR_CLUSTER, c=1, m=8, p=256)
        assert s.coeffs[0].re.to_fraction() == 66
        assert s.coeffs[0].im.is_zero()
        # first moment: i * sum mult * (W - a_h), exact integer
        spectrum = walk_spectrum(FOUR_CLUSTER)
        moment = sum(mult * (wn - 340) for wn, mult in spectrum.items())
        assert s.coeffs[1].re.is_zero()
        assert s.coeffs[1].im.to_fraction() == moment

    def test_scale_enters_as_power(self):
        a = oracle_series(path_graph(3), c=1, m=5, p=192)
        b = oracle_series(path_graph(3), c=4, m=5, p=192)
        for k in range(6):
            assert b.coeffs[k].im.to_fraction() == a.coeffs[k].im.to_fraction() * 4 ** k
            assert b.coeffs[k].re.to_fraction() == a.coeffs[k].re.to_fraction() * 4 ** k

    def test_second_coefficient_alternating_sign(self):
        # a_2 = (ic)^2 sum mult dW^2 = negative real
        s = oracle_series(FOUR_CLUSTER, c=1, m=2, p=256)
        assert s.coeffs[2].im.is_zero()
        assert s.coeffs[2].re.to_fraction() < 0

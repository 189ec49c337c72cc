"""Graph model, file parsing, vertex numbering."""

from itertools import combinations_with_replacement

import pytest

from hamspec.graph import (
    Graph,
    GraphParseError,
    hamiltonian_frequency,
    parse_graph,
    vertex_numbers,
)


class TestParse:
    def test_minimal(self):
        g = parse_graph("n 2\ne 1 2\n")
        assert g.n == 2 and g.edges == frozenset({(1, 2)})

    def test_four_cluster(self, four_cluster):
        text = "n 4\ne 1 2\ne 1 3\ne 2 3\ne 1 4\ne 4 3\n"
        assert parse_graph(text) == four_cluster

    def test_comments_whitespace_duplicates(self):
        text = "# header\nn 3\n\ne 1 2   # inline\ne 2 1\ne  2\t3\n"
        g = parse_graph(text)
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(GraphParseError, match="line 2.*self-loop"):
            parse_graph("n 2\ne 1 1\n")

    def test_out_of_range_index(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("n 2\ne 1 3\n")

    def test_malformed_line(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("v 2\n")

    def test_missing_n(self):
        with pytest.raises(GraphParseError, match="missing"):
            parse_graph("# nothing\n")

    def test_edge_before_n(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("e 1 2\nn 2\n")


class TestVertexNumbers:
    def test_n4(self):
        assert vertex_numbers(4) == [4, 16, 64, 256]

    def test_n2(self):
        assert vertex_numbers(2) == [2, 4]

    def test_n10_last(self):
        assert vertex_numbers(10)[-1] == 10 ** 10

    def test_recurrence_and_distinct(self):
        for n in range(2, 8):
            nums = vertex_numbers(n)
            assert all(nums[i] == n * nums[i - 1] for i in range(1, n))
            assert len(set(nums)) == n


class TestHamiltonianFrequency:
    def test_values(self):
        assert hamiltonian_frequency(Graph(4, [(1, 2)])) == 340
        assert hamiltonian_frequency(Graph(2, [(1, 2)])) == 6
        assert hamiltonian_frequency(Graph(1, [])) == 1


class TestWalkNumberSeparation:
    def test_distinct_visit_multisets_distinct_walk_numbers(self):
        # over all visit-count multisets summing to n, the weighted sums
        # sum_l count_l * n^l never collide (base-n digit uniqueness)
        for n in range(2, 6):
            nums = vertex_numbers(n)
            seen = {}
            for combo in combinations_with_replacement(range(1, n + 1), n):
                wn = sum(nums[v - 1] for v in combo)
                assert wn not in seen or seen[wn] == combo
                seen[wn] = combo


class TestGraphModel:
    def test_neighbors_sorted(self, four_cluster):
        assert four_cluster.neighbors(1) == (2, 3, 4)
        assert four_cluster.neighbors(4) == (1, 3)

    def test_a_vertex_without_edges_has_no_neighbors(self):
        g = parse_graph("n 10000000\ne 2 5\n")
        assert g.neighbors(2) == (5,) and g.neighbors(5) == (2,)
        assert g.neighbors(1) == () and g.neighbors(10000000) == ()

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(0, [])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Graph(3, [(1, 1)]), "self-loop at vertex 1 not allowed"),
            (lambda: Graph(3, [(1, 4)]), r"edge \(1,4\) out of range 1..3"),
            (lambda: vertex_numbers(0), "vertex count must be >= 1, got 0"),
        ],
    )
    def test_the_library_path_checks_what_parse_graph_checks(self, build, message):
        # Graph and vertex_numbers are called without parse_graph by the
        # library and the tests; they refuse the same inputs themselves
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

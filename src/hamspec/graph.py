"""Undirected simple graphs, vertex numbering, and the graph file format."""

from __future__ import annotations


class GraphParseError(ValueError):
    """Malformed graph file; message carries the offending line number."""


class Graph:
    """Vertices are indices 1..n; edges a symmetric, loop-free relation."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        norm = set()
        for (a, b) in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a} not allowed")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a},{b}) out of range 1..{n}")
            norm.add((min(a, b), max(a, b)))
        self.n = n
        self.edges = frozenset(norm)
        adj = {}  # only vertices with an edge, so no work scales with n alone
        for (a, b) in self.edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        self._adj = {l: tuple(sorted(v)) for l, v in adj.items()}

    def neighbors(self, l: int) -> tuple:
        return self._adj.get(l, ())

    def edge_count(self) -> int:
        return len(self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges


def parse_graph(text: str) -> Graph:
    """Parse the graph file format.

    Line `n <count>` first, then zero or more `e <i> <j>` lines, 1-based
    indices. `#` starts a comment; duplicate edges are ignored; self-loops
    are rejected.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise GraphParseError(f"line {lineno}: duplicate 'n' line")
            if len(parts) != 2:
                raise GraphParseError(f"line {lineno}: expected 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad vertex count {parts[1]!r}")
            if n < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be >= 1")
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError(f"line {lineno}: edge before 'n' line")
            if len(parts) != 3:
                raise GraphParseError(f"line {lineno}: expected 'e <i> <j>'")
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad vertex index")
            if a == b:
                raise GraphParseError(f"line {lineno}: self-loop at vertex {a}")
            if not (1 <= a <= n and 1 <= b <= n):
                raise GraphParseError(f"line {lineno}: edge ({a},{b}) out of range 1..{n}")
            edges.append((a, b))
        else:
            raise GraphParseError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise GraphParseError("missing 'n' line")
    return Graph(n, edges)


def load_graph(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())


def vertex_numbers(n: int) -> list:
    """Exact vertex-numbers [n^1, n^2, ..., n^n]; index l-1 holds n^l."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    out = []
    v = 1
    for _ in range(n):
        v *= n
        out.append(v)
    return out


def hamiltonian_frequency(g: Graph) -> int:
    """sum of all vertex-numbers: the walk-number every n-vertex path shares."""
    return sum(vertex_numbers(g.n))

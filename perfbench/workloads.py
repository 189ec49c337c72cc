"""Seeded workload inputs, independent reference counts and output checks.

Nothing here imports hamspec: the reference counts (walks by an
adjacency-matrix power, directed Hamiltonian paths by a bitmask DP) must
stay independent of the walk_oracle code they check.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

DESK = dict(n_d=8, n_d1=64, r_1=16, r_mu=2, c=2**40, p_1=512, p_2=256)

# The committed claim experiment (demos/05_full_experiment.py).
CLAIM_GRAPHS = {
    "four_cluster": (4, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 3)]),
    "p3": (3, [(1, 2), (2, 3)]),
    "c4": (4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
    "c5": (5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
    "k4": (4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]),
}

# Vertex counts of one sweep pass: weighted towards n <= 4, so the median
# run sits inside the n=4 class and the p75 tail inside the n=5 class.
SWEEP_SIZES = (2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5)
# Each non-tree edge of a sweep graph is present with this probability.
SWEEP_EXTRA_EDGE_P = 0.35
# Edges removed from K_n for a dense near-complete graph. A fixed count keeps
# the walk count, and so the oracle's cost, nearly the same for every seed.
NEAR_MISSING = 2


@dataclass(frozen=True)
class GraphInput:
    name: str
    n: int
    edges: tuple

    def text(self) -> str:
        return f"n {self.n}\n" + "".join(f"e {a} {b}\n" for a, b in self.edges)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_percentile: int

    def graphs(self, seed: int) -> list:
        """The distinct graphs of one pass, in the seed's first-pass order."""
        return GENERATORS[self.name](random.Random(f"{self.name}/{seed}"))


def _complete(n: int) -> list:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def random_connected(rng: random.Random, n: int) -> tuple:
    """A random spanning tree on a shuffled labelling plus each other edge
    with probability SWEEP_EXTRA_EDGE_P; connected by construction."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = set()
    for i in range(1, n):
        a, b = labels[i], labels[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for e in _complete(n):
        if e not in edges and rng.random() < SWEEP_EXTRA_EDGE_P:
            edges.add(e)
    return tuple(sorted(edges))


def near_complete(rng: random.Random, n: int) -> tuple:
    """K_n minus NEAR_MISSING seeded edges (connected for n > NEAR_MISSING + 1)."""
    edges = _complete(n)
    for e in rng.sample(edges, NEAR_MISSING):
        edges.remove(e)
    return tuple(edges)


def _claim(rng):
    names = list(CLAIM_GRAPHS)
    rng.shuffle(names)
    return [GraphInput(k, CLAIM_GRAPHS[k][0], tuple(CLAIM_GRAPHS[k][1])) for k in names]


def _sweep(rng):
    out = [
        GraphInput(f"s{i:02d}_n{n}", n, random_connected(rng, n))
        for i, n in enumerate(SWEEP_SIZES)
    ]
    rng.shuffle(out)
    return out


def _dense(rng):
    # Two n=6 runs to four n=7 runs (each ~2x the cost), so the median run
    # falls inside the n=7 class rather than in the gap between the classes.
    out = [
        GraphInput("k6", 6, tuple(_complete(6))),
        GraphInput("k7", 7, tuple(_complete(7))),
        GraphInput("near6", 6, near_complete(rng, 6)),
        *(GraphInput(f"near7{c}", 7, near_complete(rng, 7)) for c in "abc"),
    ]
    rng.shuffle(out)
    return out


GENERATORS = {"claim": _claim, "sweep": _sweep, "dense": _dense}

# tail_percentile is fixed per workload, so that runs of different speed
# compare one percentile. Each sits inside one class of graphs of like cost,
# not at the edge between two classes, where a few runs more or less on
# either side move it most. In a 35 s run on a 2-vCPU x86 host claim makes
# 60-125 runs, and its p85 falls in the c5 class (the top fifth) with 9-18
# beyond it; sweep makes 70-112, and its p80 falls in the n=5 class (the top
# 36%) with 14-22 beyond. dense makes only 19-37 (a K7 run takes 1.2-2.3 s),
# so its p60 lies in the n=7 class just above the median, with 7-14 beyond.
# In the host's slow phases fewer than ten runs lie beyond claim's and
# dense's tails.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "claim",
            "the five claim graphs at the desk profile, compared byte for byte "
            "with results/claim_experiment.json; encode-bound",
            85,
        ),
        Workload(
            "sweep",
            "seeded connected graphs n=2..5 at the desk profile; per-call and "
            "profile-only work (schedule, pseudo) weigh most",
            80,
        ),
        Workload(
            "dense",
            "K6, K7 and seeded near-complete n=6..7 graphs; oracle and encode "
            "dominate, the schedule is under 5%",
            60,
        ),
    )
}


def profile_text() -> str:
    """The desk profile without n, so the program takes n from each graph."""
    return "".join(f"{k}={v}\n" for k, v in DESK.items())


# ---------------------------------------------------------------------------
# Independent reference counts
# ---------------------------------------------------------------------------


def _adjacency(n: int, edges) -> list:
    adj = [[0] * n for _ in range(n)]
    for a, b in edges:
        adj[a - 1][b - 1] = adj[b - 1][a - 1] = 1
    return adj


def walk_count(n: int, edges) -> int:
    """Walks with n vertex visits: the entry sum of A^(n-1)."""
    adj = _adjacency(n, edges)
    vec = [1] * n  # A^k applied to the all-ones vector
    for _ in range(n - 1):
        vec = [sum(adj[i][j] * vec[j] for j in range(n)) for i in range(n)]
    return sum(vec)


def directed_ham_paths(n: int, edges) -> int:
    """Directed Hamiltonian paths by a DP over (visited set, last vertex)."""
    if n == 1:
        return 1
    adj = _adjacency(n, edges)
    ways = [[0] * n for _ in range(1 << n)]
    for v in range(n):
        ways[1 << v][v] = 1
    for mask in range(1 << n):
        for v in range(n):
            w = ways[mask][v]
            if not w:
                continue
            for u in range(n):
                if adj[v][u] and not mask >> u & 1:
                    ways[mask | 1 << u][u] += w
    return sum(ways[(1 << n) - 1])


def series_mul_calls(g: GraphInput) -> int:
    """Calls the wavefront makes: one per wire with a neighbour at each of
    depths 2..n, plus the final path-frequency shift."""
    return (g.n - 1) * len({v for e in g.edges for v in e}) + 1


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """What a correct `run --json --no-timings` report must hold."""

    graph: GraphInput
    n_p: int
    n_h_directed: int
    claim_entry: dict | None = None

    @classmethod
    def for_graph(cls, g: GraphInput, claim_record: dict | None):
        return cls(
            g,
            walk_count(g.n, g.edges),
            directed_ham_paths(g.n, g.edges),
            None if claim_record is None else claim_record[g.name],
        )


def _without_file(report: dict) -> dict:
    out = dict(report)
    out["graph"] = {k: v for k, v in report["graph"].items() if k != "file"}
    return out


def check_report(exp: Expected, rc, text: str) -> list:
    """Problems with one run's exit code and stdout; empty when correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        rep = json.loads(text)
        problems = []
        if rep["graph"]["n"] != exp.graph.n or rep["graph"]["edges"] != len(exp.graph.edges):
            problems.append(f"graph block {rep['graph']}")
        if rep["profile"] != dict(DESK, n=exp.graph.n):
            problems.append(f"profile block {rep['profile']}")
        oracle = rep["oracle"]
        if oracle["n_p"] != exp.n_p:
            problems.append(f"n_p {oracle['n_p']} != {exp.n_p}")
        if oracle["n_h_directed"] != exp.n_h_directed:
            problems.append(f"n_h_directed {oracle['n_h_directed']} != {exp.n_h_directed}")
        if rep["verdict"] not in ("MATCH", "MISMATCH", "INCONCLUSIVE"):
            problems.append(f"verdict {rep['verdict']}")
        if "timings_ms" in rep:
            problems.append("timings block present under --no-timings")
        if exp.claim_entry is not None and _without_file(rep) != _without_file(exp.claim_entry):
            problems.append("report differs from the claim record")
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    return problems


def digest(parts) -> str:
    """sha256 over (encoded series text, filtered series text, report text)
    per graph, in pass order."""
    h = hashlib.sha256()
    for enc, filt, report in parts:
        for s in (enc, filt, report):
            b = s.encode()
            h.update(len(b).to_bytes(8, "big"))
            h.update(b)
    return h.hexdigest()

"""The encoder on every route (switch depth, fold) versus itself and the enumeration oracle."""

import random
from itertools import combinations_with_replacement
from math import comb, prod
from pathlib import Path

import pytest

from hamspec import grid
from hamspec.filter_pipeline import run_pipeline
from hamspec.graph import Graph, hamiltonian_frequency, load_graph, vertex_numbers
from hamspec.grid import grid_intermediate, grid_series
from hamspec.numerics import cadd, cfrom_int, from_int
from hamspec.schedule import build_schedule, desk_profile
from hamspec.walk_oracle import oracle_series, walk_and_path_counts, walk_spectrum
from conftest import (
    FOUR_CLUSTER,
    _connected,
    complete_graph,
    cycle_graph,
    exp_series,
    path_graph,
    star_graph,
)

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def encode_profile(n, **kw):
    params = dict(n_d1=32, p_1=512, c=1)
    params.update(kw)
    return desk_profile(n, **params)


class TestSmallGraphs:
    def test_p2_constant_two(self):
        s = grid_series(path_graph(2), encode_profile(2))
        assert s.coeffs[0].re.to_fraction() == 2
        assert s.coeffs[0].im.is_zero()
        assert all(c.is_zero() for c in s.coeffs[1:])

    def test_edgeless_exact_zero(self):
        s = grid_series(Graph(2, []), encode_profile(2))
        assert all(c.is_zero() for c in s.coeffs)

    def test_single_vertex(self):
        s = grid_series(Graph(1, []), encode_profile(1))
        assert s.coeffs[0].re.to_fraction() == 1
        assert all(c.is_zero() for c in s.coeffs[1:])

    def test_four_cluster_matches_oracle_exactly(self):
        # at n=4, m=32 every coefficient is an integer that fits p=512
        # bits, so grid and direct-sum oracle agree bit for bit
        prof = encode_profile(4)
        got = grid_series(FOUR_CLUSTER, prof)
        want = oracle_series(FOUR_CLUSTER, c=1, m=32, p=512)
        assert got.coeffs[0].re.to_fraction() == 66
        assert got.bits() == want.bits()


class TestOracleEquivalence:
    @pytest.mark.parametrize("c", [1, 4, 64])
    def test_fixture_sample(self, c):
        cases = [
            (g, encode_profile(g.n, c=c))
            for g in (path_graph(3), cycle_graph(4), FOUR_CLUSTER, complete_graph(4))
        ]
        # desk degree and scale at n=5, where the walk moments outgrow p_1
        cases += [(g, desk_profile(5, c=c * 2**40)) for g in (cycle_graph(5), complete_graph(5))]
        for g, prof in cases:
            got = grid_series(g, prof)
            want = oracle_series(g, c=prof.c, m=prof.n_d1, p=prof.p_1)
            assert got.bits() == want.bits(), (g, prof.c)

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(6),
            Graph(6, complete_graph(6).edges - {(1, 2), (3, 5)}),
            complete_graph(7),
        ],
        ids=["K6", "K6-minus-2-edges", "K7"],
    )
    def test_dense_n6_at_desk_profile(self, g):
        prof = desk_profile(g.n)
        want = oracle_series(g, c=prof.c, m=prof.n_d1, p=prof.p_1)
        assert grid_series(g, prof).bits() == want.bits()


def seeded_connected(n, count, seed):
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    graphs = []
    while len(graphs) < count:
        edges = [e for e in pairs if rng.random() < 0.5]
        if _connected(n, edges):
            graphs.append(Graph(n, edges))
    return graphs


ROUTE_GRAPHS = {
    f"n{n}-{i}": g for n in range(2, 8) for i, g in enumerate(seeded_connected(n, 3, 1000 + n))
}
ROUTE_GRAPHS.update(
    n1=Graph(1, []),
    edgeless4=Graph(4, []),
    disconnected5=Graph(5, [(1, 2), (3, 4), (4, 5)]),
    K6=complete_graph(6),
    K7=complete_graph(7),
    C7=cycle_graph(7),
    P7=path_graph(7),
    tree7=Graph(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)]),
)


def routes(n):
    """Every (d0, fold) the encoder can take for n vertices."""
    folded = [(d0, True) for d0 in range(1, (n + 1) // 2)] if n % 2 else []
    return [(d0, False) for d0 in range(1, n + 1)] + folded


DISPATCH = [(n, 64, (n, False)) for n in range(2, 7)] + [
    (7, 64, (3, True)),
    (7, 32, (2, True)),
    (8, 64, (3, False)),
    (6, 32, (3, False)),
    (5, 8, (2, True)),
]
# m = n_d - 2 = 6, the degree `hamspec run` encodes at, where a shift's
# fixed cost per call outweighs its m^2 / 2 additions
DISPATCH += [(n, 6, (n, False)) for n in range(2, 5)] + [
    (5, 6, (2, True)),
    (6, 6, (2, False)),
    (7, 6, (2, True)),
    (8, 6, (2, False)),
]


class TestRoutes:
    """Every route (d0, fold) gives the same exact integers
    S_k = sum_W mult(W) (W - a_h)^k."""

    @pytest.mark.parametrize("g", ROUTE_GRAPHS.values(), ids=ROUTE_GRAPHS.keys())
    def test_routes_agree_exactly(self, g):
        # graphs with few walks (every n <= 6 one, and the sparse n = 7
        # ones, where the fold runs) are also checked against enumeration
        enumerable = walk_and_path_counts(g)[0] <= 20_000
        if enumerable:
            a_h = hamiltonian_frequency(g)
            spectrum = walk_spectrum(g)
        for m in (8, 32, 64):
            got = grid._moments(g, m, g.n)
            for d0, fold in routes(g.n):
                assert grid._moments(g, m, d0, fold) == got, (m, d0, fold)
            if enumerable:
                want = [sum(c * (w - a_h) ** k for w, c in spectrum.items()) for k in range(m + 1)]
                assert got == want, m

    @pytest.mark.parametrize(
        "n, m, route",
        DISPATCH,
        ids=[f"{n}-{m}-{'spectrum' if d0 == n else 'wavefront'}" for n, m, (d0, _) in DISPATCH],
    )
    def test_dispatch(self, monkeypatch, n, m, route):
        # the op-count model's choice, one shift per wire per depth after
        # d0 and one square per wire at the fold: 7 shifts and 7 squares
        # on K7, none on K6 and 40 shifts on K8 at the desk profile
        assert grid._route(n, m, n * (n - 1) // 2) == route
        d0, fold = route
        shifts, squares = [], []
        shift, fold_wires = grid._shift, grid._fold
        monkeypatch.setattr(grid, "_shift", lambda x, v: shifts.append(v) or shift(x, v))
        monkeypatch.setattr(grid, "_fold", lambda w, m: squares.extend(w) or fold_wires(w, m))
        grid_series(complete_graph(n), desk_profile(n, n_d1=m))
        assert len(shifts) == (((n + 1) // 2 if fold else n) - d0) * n
        assert len(squares) == (n if fold else 0)

    @pytest.mark.parametrize(
        "g, m, route",
        [
            (cycle_graph(5), 6, (5, False)),
            (complete_graph(5), 6, (2, True)),
            (cycle_graph(7), 64, (7, False)),
            (complete_graph(7), 64, (3, True)),
        ],
        ids=["C5-6", "K5-6", "C7-64", "K7-64"],
    )
    def test_sparse_graphs_skip_the_fold(self, monkeypatch, g, m, route):
        # d0 = n is priced by n (2|E|/n)^(n-1) where that is below
        # C(2n-1, n): the cycles' 2-regular walks beat the fold, K_n's do not
        assert grid._route(g.n, m, g.edge_count()) == route
        squares = []
        fold_wires = grid._fold
        monkeypatch.setattr(grid, "_fold", lambda w, m: squares.extend(w) or fold_wires(w, m))
        grid_series(g, desk_profile(g.n), m)
        assert len(squares) == (g.n if route[1] else 0)


HEAD_GRAPHS = dict(ROUTE_GRAPHS, C8=cycle_graph(8))


class TestHead:
    @pytest.mark.parametrize("g", HEAD_GRAPHS.values(), ids=HEAD_GRAPHS.keys())
    def test_low_degree_is_the_head_of_the_full_series(self, g):
        # run encodes at n_d - 2 = 6, on another route than at n_d1 = 64
        # for n >= 5 (K7 folds at both, from d0 = 2 and d0 = 3)
        prof = desk_profile(g.n)
        head = grid_series(g, prof, prof.n_d - 2)
        assert head.precision == prof.p_1
        assert head.bits() == grid_series(g, prof).bits()[: prof.n_d - 1]


class TestIntermediates:
    def test_depth_one_is_oscillator_bank(self):
        prof = encode_profile(4)
        wires = grid_intermediate(FOUR_CLUSTER, prof, 1)
        nums = vertex_numbers(4)
        for l, w in enumerate(wires, start=1):
            assert w == exp_series(cfrom_int(0, nums[l - 1], prof.p_1), 32, prof.p_1)

    def test_depth_two_neighbor_sum(self):
        # vertex 2's depth-2 wire: (e^{i4t} + e^{i64t}) * e^{i16t}
        prof = encode_profile(4)
        wires = grid_intermediate(FOUR_CLUSTER, prof, 2)
        w2 = wires[1]
        # two 2-walks end at vertex 2: (1,2) with W=20 and (3,2) with W=80
        p = prof.p_1
        a = exp_series(cfrom_int(0, 20, p), 32, p)
        b = exp_series(cfrom_int(0, 80, p), 32, p)
        expect = tuple(cadd(x, y, p).bits() for x, y in zip(a.coeffs, b.coeffs))
        assert w2.bits() == expect

    def test_depth_walk_counts(self):
        # constant coefficient of the wire sum at depth d = number of d-walks
        prof = encode_profile(4)
        for d in (1, 2, 3, 4):
            wires = grid_intermediate(FOUR_CLUSTER, prof, d)
            total = sum(w.coeffs[0].re.to_fraction() for w in wires)
            g_small = FOUR_CLUSTER
            # count d-walks by powering the adjacency matrix
            n = g_small.n
            A = [[1 if (j + 1) in g_small.neighbors(i + 1) else 0 for j in range(n)] for i in range(n)]
            M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(d - 1):
                M = [[sum(M[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            assert total == sum(sum(r) for r in M)

    def test_every_wire_matches_enumerated_walk_sums(self, monkeypatch):
        # wire l at depth d is exactly sum of e^{iWt} over d-walks ending
        # at l; rebuild that sum from explicit enumeration and compare bits
        from collections import Counter

        from hamspec.numerics import cmul

        g = FOUR_CLUSTER
        nums = vertex_numbers(g.n)
        # at n_d1 = 16 the wavefront stays on spectra; forced to switch at
        # depth 1 at n_d1 = 4, depths 2..4 come from moment shifts instead
        assert grid._route(4, 16, g.edge_count()) == (4, False)
        monkeypatch.setattr(
            grid, "_route", lambda n, m, edges: (1, False) if m == 4 else (n, False)
        )
        for m, depth in ((16, 2), (16, 3), (16, 4), (4, 2), (4, 3), (4, 4)):
            prof = encode_profile(4, n_d1=m)
            p = prof.p_1
            walks = [[v] for v in range(1, g.n + 1)]
            for _ in range(depth - 1):
                walks = [w + [x] for w in walks for x in g.neighbors(w[-1])]
            by_end = {l: Counter() for l in range(1, g.n + 1)}
            for w in walks:
                by_end[w[-1]][sum(nums[v - 1] for v in w)] += 1
            wires = grid_intermediate(g, prof, depth)
            for l in range(1, g.n + 1):
                coeffs = [cfrom_int(0, 0, p) for _ in range(m + 1)]
                for wn in sorted(by_end[l]):
                    mult = by_end[l][wn]
                    lam = cfrom_int(0, wn, p)
                    power = cfrom_int(1, 0, p)
                    for k in range(m + 1):
                        if k:
                            power = cmul(power, lam, p)
                        coeffs[k] = cadd(coeffs[k], cmul(power, cfrom_int(mult, 0, p), p), p)
                assert wires[l - 1].bits() == tuple(c.bits() for c in coeffs)

    def test_depth_out_of_range(self):
        with pytest.raises(ValueError):
            grid_intermediate(FOUR_CLUSTER, encode_profile(4), 5)


class TestInvariance:
    def test_walk_total_invariant_under_relabeling(self):
        # relabeling changes individual walk-numbers but not the walk count
        g = FOUR_CLUSTER
        perm = {1: 3, 2: 1, 3: 4, 4: 2}
        relabeled = Graph(4, [(perm[a], perm[b]) for (a, b) in g.edges])
        prof = encode_profile(4)
        a = grid_series(g, prof)
        b = grid_series(relabeled, prof)
        assert a.coeffs[0].re.to_fraction() == b.coeffs[0].re.to_fraction() == 66

    def test_profile_graph_mismatch(self):
        with pytest.raises(ValueError):
            grid_series(path_graph(3), encode_profile(4))


class TestShift:
    """grid._shift against its definition out_k = sum_j C(k,j) v^(k-j) x_j."""

    @staticmethod
    def reference(x, v):
        return [sum(comb(k, j) * v ** (k - j) * x[j] for j in range(k + 1)) for k in range(len(x))]

    @pytest.mark.parametrize("m", [0, 1, 8, 64])
    def test_matches_definition(self, m):
        rng = random.Random(m)
        shifts = [1, -1]
        for n in range(2, 8):
            shifts += vertex_numbers(n) + [-hamiltonian_frequency(Graph(n, []))]
        for v in shifts:
            unsigned = [rng.randrange(1 << 200) for _ in range(m + 1)]
            signed = [rng.randrange(-(1 << 200), 1 << 200) for _ in range(m + 1)]
            for x in (unsigned, signed):
                assert grid._shift(x, v) == self.reference(x, v), (v, m)


class TestRounding:
    @pytest.mark.parametrize("c", [1, 3, 2**40, 3 * 2**5, 5**3])
    def test_rounds_like_from_int(self, c):
        # _round_moments rounds odd^k S_k at exponent e*k (c = odd * 2^e);
        # the bits must be from_int(c^k S_k, p)'s, for k = 0..64
        rng = random.Random(c)
        moments = [0, 1, -1] + [rng.randrange(-(1 << 300), 1 << 300) for _ in range(62)]
        for p in (8, 64, 512):
            got = grid._round_moments(moments, c, p)
            for k, (s, coeff) in enumerate(zip(moments, got.coeffs)):
                x = from_int(c**k * s if k % 4 < 2 else -(c**k) * s, p)
                assert (coeff.re if k % 2 == 0 else coeff.im).bits() == x.bits(), (k, p)


def clear_step_caches():
    grid._powers.cache_clear()


class TestDeterminism:
    def test_bit_identical_across_runs_and_threads(self):
        prof = encode_profile(5, c=64)
        g = cycle_graph(5)
        clear_step_caches()
        one = grid_series(g, prof)
        again = grid_series(g, prof)
        clear_step_caches()
        third = grid_series(g, prof)
        assert one.bits() == again.bits() == third.bits()
        # through the filter: a pass on cold power tables and a warm pass agree
        desk = desk_profile(5)
        sched = build_schedule(desk)
        clear_step_caches()
        cold = run_pipeline(grid_series(g, desk), sched, desk).bits()
        assert run_pipeline(grid_series(g, desk), sched, desk).bits() == cold


def offsets(n):
    """O_n: the sums of the size-n multisets of vertex_numbers(n), less
    a_h, without 0. Every nonzero offset W - a_h of an n-walk lies in it."""
    numbers = vertex_numbers(n)
    a_h = sum(numbers)
    return sorted({sum(w) - a_h for w in combinations_with_replacement(numbers, n)} - {0})


def moment_readout(g):
    """n_h from the exact moments S_0..S_|O_n|: one round S_k <- o S_k - S_{k+1}
    per offset o in O_n leaves S_0 = sum_W mult(W) prod_o (o - (W - a_h)),
    which only the paths (W = a_h) survive, each as prod_o o."""
    os = offsets(g.n)
    s = grid._moments(g, len(os), *grid._route(g.n, len(os), g.edge_count()))
    for o in os:
        s = [o * a - b for a, b in zip(s, s[1:])]
    n_h, rem = divmod(s[0], prod(os))
    assert len(s) == 1 and rem == 0
    return n_h


MOMENT_GRAPHS = [(p.stem, load_graph(str(p))) for p in sorted(GRAPHS.glob("*.graph"))]
MOMENT_GRAPHS += [(f"K{n}", complete_graph(n)) for n in range(2, 7)]
MOMENT_GRAPHS += [(f"C{n}", cycle_graph(n)) for n in range(3, 7)]
MOMENT_GRAPHS += [(f"P{n}", path_graph(n)) for n in range(2, 7)]
MOMENT_GRAPHS += [(f"star{n}", star_graph(n)) for n in range(3, 7)]


class TestMomentReadout:
    """The encoder's exact moments carry n_h at degree |O_n|, a degree set
    by n alone: the annihilator of O_n (Prony's) reads it off exactly."""

    def test_offset_counts(self):
        assert [len(offsets(n)) for n in range(2, 7)] == [2, 9, 34, 125, 461]

    @pytest.mark.parametrize("g", [g for _, g in MOMENT_GRAPHS], ids=[n for n, _ in MOMENT_GRAPHS])
    def test_readout_is_the_oracle_count(self, g):
        assert moment_readout(g) == walk_and_path_counts(g)[1]

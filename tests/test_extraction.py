"""Two-channel solve: exactness, degeneracy, flags, structural identities."""

import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from hamspec import extraction
from hamspec.extraction import (
    ExtractionResult,
    SingularSystemError,
    _nearest_integer,
    extract_nh,
)
from hamspec.cli import _extraction_block, run_experiment
from hamspec.filter_pipeline import (
    _rows,
    run_filter,
    run_pipeline,
    run_pseudo_steps,
    system_columns,
)
from hamspec.graph import hamiltonian_frequency, load_graph
from hamspec.grid import grid_series
from hamspec.numerics import (
    C_ZERO,
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    R_ZERO,
    cfrom_int,
    cmul,
    from_fraction,
    from_int,
    rabs,
)
from hamspec.schedule import build_schedule, desk_profile
from hamspec.walk_oracle import walk_spectrum
from conftest import (
    complete_graph,
    cycle_graph,
    nearest_integer,
    path_graph,
    reference_extract,
    reference_flags,
    reference_readout,
    star_graph,
    trunc_exp_fraction,
)

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


@pytest.fixture(scope="module")
def p2_run():
    prof = desk_profile(2)
    sched = build_schedule(prof)
    f = grid_series(path_graph(2), prof, prof.n_d - 2)
    o = run_filter(f, sched, prof)
    phi01, phi11 = run_pseudo_steps(sched, prof)
    return prof, sched, o, phi01, phi11


def _fraction_filter_step(u, r, m):
    """One filter step in exact rationals: the zero-state response of
    y' + y = u, plus the multiple of e^{-t} that zeroes it at r."""
    out = [Fraction(0)] + [
        sum((-1) ** (k - 1 - d) * u[d] for d in range(k)) for k in range(1, m + 1)
    ]
    w = sum(c * r ** k / factorial(k) for k, c in enumerate(out))
    adj = -w / trunc_exp_fraction(-r, m)
    return [c + adj * (-1) ** i for i, c in enumerate(out)]


def nearest(x: PrecisionReal, p: int = 64):
    """extract_nh's rounding of k0.re: the integer, and the distance to it
    as a Fraction."""
    n, dist = _nearest_integer(x.mantissa, x.exponent, p)
    return n, PrecisionReal(*dist).to_fraction()


class TestNearestInteger:
    def test_plain(self):
        n, dist = nearest(from_fraction(Fraction(9, 4), 64))
        assert n == 2 and dist == Fraction(1, 4)

    def test_half_goes_even(self):
        n, dist = nearest(from_fraction(Fraction(5, 2), 64))
        assert n == 2 and dist == Fraction(1, 2)

    def test_negative(self):
        n, _ = nearest(from_fraction(Fraction(-19, 8), 64))
        assert n == -2

    def test_zero(self):
        n, dist = nearest(R_ZERO)
        assert n == 0 and dist == 0


class TestExtract:
    def test_zero_output_is_exactly_zero(self, p2_run):
        prof, sched, _, phi01, phi11 = p2_run
        zero = NormalizedSeries([C_ZERO] * (prof.n_d + 1), prof.p_2)
        res = extract_nh(zero, phi01, phi11, sched, prof.p_2)
        assert res.k0.is_zero() and res.z1.is_zero()
        assert res.n_h_rounded == 0
        assert res.round_distance.is_zero()
        assert res.flags == ()

    def test_solve_residuals(self, p2_run):
        prof, sched, o, phi01, phi11 = p2_run
        res = extract_nh(o, phi01, phi11, sched, prof.p_2)
        c0, c1 = o.coeffs[0], o.coeffs[1]
        scale = max(
            abs(c0.re.to_fraction()),
            abs(c0.im.to_fraction()),
            abs(c1.re.to_fraction()),
            abs(c1.im.to_fraction()),
        )
        bound = Fraction(2) ** -(prof.p_2 // 2) * scale
        assert res.residual0.to_fraction() <= bound
        assert res.residual1.to_fraction() <= bound

    def test_constant_flow_lands_in_decay_channel(self, p2_run):
        # step 1 turns the constant 2 into 2 - 2*e^{-t}, exactly twice the
        # constant column's input, so none of the constant flow lands in the
        # decay channel: k0 = 2 and z1 = 0 exactly. The pinned reference
        # adds A*e^{-t} at step 1, A = 2(1 - alpha), which lands wholly in z1
        prof, sched, o, phi01, phi11 = p2_run
        res = extract_nh(o, phi01, phi11, sched, prof.p_2)
        assert res.k0.to_fractions() == (2, 0) and res.z1.is_zero()
        assert res.n_h_rounded == 2
        assert res.flags == ()
        pinned = run_pipeline(grid_series(path_graph(2), prof), sched, prof)
        ref = extract_nh(pinned, phi01, phi11, sched, prof.p_2)
        alpha = 1 / trunc_exp_fraction(Fraction(-prof.r_1), prof.n_d1)
        tol = Fraction(2) ** -100
        assert abs(ref.k0.re.to_fraction() - 2) <= tol * 2
        assert abs(ref.z1.re.to_fraction() - 2 * (1 - alpha)) <= tol * 2 * alpha

    def test_model_column_values(self, p2_run):
        # (phi00, phi10) is the response of steps 2..n_d+3 to 1 - e^{-t},
        # step 1's unpinned output for a unit constant; (phi01, phi11) the
        # response to e^{-t}. Replay those steps in exact rationals at the
        # schedule's times. system_columns holds the very columns the
        # solve reads
        prof, sched, _, _, _ = p2_run
        columns = system_columns(sched, prof.p_2)
        n_d = prof.n_d
        constant = [Fraction(0)] + [Fraction((-1) ** (k - 1)) for k in range(1, n_d + 1)]
        decay = [Fraction((-1) ** k) for k in range(n_d + 1)]
        for u, column in zip((constant, decay), columns):
            for sp in range(2, n_d + 4):
                u = _fraction_filter_step(u, sched.times[sp].to_fraction(), n_d)
            for got, want in zip(column, u):
                assert got.im.is_zero()
                assert abs(got.re.to_fraction() - want) <= Fraction(2) ** -100 * abs(want)

    def test_deterministic(self, p2_run):
        prof, sched, o, phi01, phi11 = p2_run
        a = extract_nh(o, phi01, phi11, sched, prof.p_2)
        b = extract_nh(o, phi01, phi11, sched, prof.p_2)
        assert a.k0.bits() == b.k0.bits()
        assert a.z1.bits() == b.z1.bits()
        assert a.n_h_rounded == b.n_h_rounded

    def test_singular_system_detected(self, p2_run):
        prof, sched, o, phi01, phi11 = p2_run
        p = prof.p_2
        # craft the decay column exactly proportional to the measured column
        x = cfrom_int(3, 0, p)
        (phi00, phi10), _ = system_columns(sched, p)
        res = extract_nh(o, phi01, phi11, sched, p)
        # raised on every call, and the valid system still solves after it
        for _ in range(2):
            with pytest.raises(SingularSystemError):
                extract_nh(o, cmul(phi00, x, p), cmul(phi10, x, p), sched, p)
        assert extract_nh(o, phi01, phi11, sched, p).k0.bits() == res.k0.bits()


class TestFlags:
    def mk(self, re_frac, im_frac):
        p = 128
        k0 = PrecisionComplex(from_fraction(re_frac, p), from_fraction(im_frac, p))
        n, dist = nearest_integer(k0.re)
        from hamspec.numerics import from_fraction as ff, rabs

        return ExtractionResult(
            k0=k0,
            z1=cfrom_int(0, 0, p),
            n_h_rounded=n,
            imag_magnitude=rabs(k0.im),
            round_distance=ff(dist, p) if dist else R_ZERO,
            residual0=R_ZERO,
            residual1=R_ZERO,
            p=p,
        )

    def test_clean(self):
        assert self.mk(Fraction(2), Fraction(0)).flags == ()

    def test_round_distance_fires(self):
        assert "round_distance" in self.mk(Fraction(23, 10), Fraction(0)).flags

    def test_imaginary_fires(self):
        assert "imaginary" in self.mk(Fraction(2), Fraction(1, 2)).flags

    def test_boundary_quarter_does_not_fire(self):
        assert self.mk(Fraction(9, 4), Fraction(1, 4)).flags == ()

    def test_precision_fires_past_2_to_the_p_minus_48(self):
        # p = 128: an integer k0 up to 2^80 is resolved, one past it is not
        cases = ((2**80, ()), (-(2**80), ()), (2**80 + 1, ("precision",)), (-(2**81), ("precision",)))
        for k0, flags in cases:
            assert self.mk(Fraction(k0), Fraction(0)).flags == flags


def assert_same_bits(got: ExtractionResult, want: ExtractionResult):
    for name in ("k0", "z1", "imag_magnitude", "round_distance", "residual0", "residual1"):
        assert getattr(got, name).bits() == getattr(want, name).bits(), name
    assert got.n_h_rounded == want.n_h_rounded
    assert got.flags == reference_flags(want)


class TestReferenceParity:
    """The per-part solve gives the correctly rounded bits of the exact
    Cramer's rule."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in GRAPHS.glob("*.graph")))
    def test_graph_files(self, name):
        # through run_filter (the files path) and run_pipeline (the pinned reference)
        g = load_graph(str(GRAPHS / f"{name}.graph"))
        prof = desk_profile(g.n)
        sched = build_schedule(prof)
        phi01, phi11 = run_pseudo_steps(sched, prof)
        outputs = (
            run_filter(grid_series(g, prof, prof.n_d - 2), sched, prof),
            run_pipeline(grid_series(g, prof), sched, prof),
        )
        for o in outputs:
            got = extract_nh(o, phi01, phi11, sched, prof.p_2)
            assert_same_bits(got, reference_extract(o, phi01, phi11, sched, prof.p_2))

    @pytest.fixture
    def constant_column(self, monkeypatch):
        """Set extract_nh's constant column: system_columns is patched to
        return it."""

        def set_column(phi00, phi10):
            columns = lambda sched, p: ((phi00, phi10), None)  # noqa: E731
            monkeypatch.setattr(extraction, "system_columns", columns)

        return set_column

    @staticmethod
    def _real(rng, p):
        kind = rng.random()
        if kind < 0.15:
            return R_ZERO
        if kind < 0.6:
            return from_fraction(Fraction(rng.randrange(-40, 41), rng.choice((1, 2, 4))), p)
        num, den = rng.randrange(-(1 << 60), 1 << 60), rng.randrange(1, 1 << 30)
        return from_fraction(Fraction(num, den), p)

    def _check(self, set_column, system, rhs, sched, p):
        phi00, phi10, phi01, phi11 = (PrecisionComplex(x, R_ZERO) for x in system)
        set_column(phi00, phi10)
        o = NormalizedSeries([PrecisionComplex(*rhs[:2]), PrecisionComplex(*rhs[2:])], p)
        try:
            want = reference_extract(o, phi01, phi11, sched, p, columns=(phi00, phi10))
        except SingularSystemError:
            for _ in range(2):
                with pytest.raises(SingularSystemError):
                    extract_nh(o, phi01, phi11, sched, p)
            return None
        got = extract_nh(o, phi01, phi11, sched, p)
        assert_same_bits(got, want)
        return got

    def test_seeded_real_systems(self, p2_run, constant_column):
        _, sched, _, _, _ = p2_run
        rng = random.Random(1807)
        solved = ties = negative = 0
        for case in range(400):
            p = rng.choice((24, 64, 256))
            system = [self._real(rng, p) for _ in range(4)]
            if case % 4 == 0:  # small diagonal systems: exact quotients, .5 ties
                system = [from_int(rng.choice((1, 2, 4)), p), R_ZERO, R_ZERO, from_int(1, p)]
            rhs = [self._real(rng, p) for _ in range(4)]
            got = self._check(constant_column, system, rhs, sched, p)
            if got is not None:
                solved += 1
                negative += got.k0.re.mantissa < 0
                ties += got.round_distance.to_fraction() == Fraction(1, 2)
        assert solved >= 300 and ties >= 5 and negative >= 50

    @pytest.mark.parametrize("p", (24, 64, 256))
    def test_singular_threshold_boundary(self, p2_run, constant_column, p):
        # columns (1, 0) and (0, phi11): |det|*2^(p//2) equal to the largest
        # entry, 1, solves; at phi11 one p-bit step below 2^-(p//2) it is singular
        _, sched, _, _, _ = p2_run
        one, edge = from_int(1, p), from_fraction(Fraction(1, 1 << p // 2), p)
        below = from_fraction(Fraction((1 << p) - 1, 1 << p + p // 2), p)
        rhs = [one, R_ZERO, R_ZERO, R_ZERO]
        got = self._check(constant_column, [one, R_ZERO, R_ZERO, edge], rhs, sched, p)
        assert got is not None and got.n_h_rounded == 1
        assert self._check(constant_column, [one, R_ZERO, R_ZERO, below], rhs, sched, p) is None

    def test_an_all_zero_system_is_singular(self, p2_run, constant_column):
        # det = 0 with a scale of 0: never below it, but nothing to divide by
        _, sched, _, _, _ = p2_run
        for p in (24, 64, 256):
            rhs = [from_int(1, p), R_ZERO, from_int(-3, p), R_ZERO]
            assert self._check(constant_column, [R_ZERO] * 4, rhs, sched, p) is None

    def test_a_zero_determinant_says_so(self, p2_run, constant_column):
        # det is exact, so a zero one is told apart from a small one: the
        # decay column exactly twice the constant column, then all zeros
        prof, sched, o, _, _ = p2_run
        p = prof.p_2
        doubled = [
            PrecisionComplex(PrecisionReal(z.re.mantissa, z.re.exponent + 1), R_ZERO)
            for z in system_columns(sched, p)[0]
        ]
        with pytest.raises(SingularSystemError, match="^two-channel system determinant is 0$"):
            extract_nh(o, *doubled, sched, p)
        constant_column(C_ZERO, C_ZERO)
        with pytest.raises(SingularSystemError, match="^two-channel system determinant is 0$"):
            extract_nh(o, C_ZERO, C_ZERO, sched, p)

    def test_ties_go_even(self, p2_run, constant_column):
        _, sched, _, _, _ = p2_run
        p = 64
        two, one = from_int(2, p), from_int(1, p)
        for x0, n_h in ((5, 2), (7, 4), (-5, -2), (-7, -4)):
            rhs = [from_int(x0, p), R_ZERO, R_ZERO, R_ZERO]
            got = self._check(constant_column, [two, R_ZERO, R_ZERO, one], rhs, sched, p)
            assert got.n_h_rounded == n_h
            assert got.round_distance.to_fraction() == Fraction(1, 2)
            assert got.flags == ("round_distance",)

    def test_a_non_real_column_is_refused(self, p2_run, constant_column):
        prof, sched, o, phi01, phi11 = p2_run
        p = prof.p_2
        tilted = PrecisionComplex(phi01.re, from_int(1, p))
        for _ in range(2):  # refused on every call
            with pytest.raises(ValueError, match="not real"):
                extract_nh(o, tilted, phi11, sched, p)
        constant_column(PrecisionComplex(from_int(1, p), from_int(1, p)), cfrom_int(0, 0, p))
        with pytest.raises(ValueError, match="not real"):
            extract_nh(o, phi01, phi11, sched, p)


class TestReadout:
    """run's k0 and z1: _functional's covectors on the exact moments, each
    part rounded once."""

    @pytest.mark.parametrize("key", [{}, dict(n_d=12, n_d1=140, r_1=28, p_1=768, p_2=384)])
    def test_lambda_0_is_1_and_mu_0_is_0(self, key):
        # a unit constant is the constant column: l_0 / den = 1, m_0 = 0;
        # and the scale _functional divides out divides every 2x2 minor
        prof = desk_profile(4, **key)
        sched = build_schedule(prof)
        l, m, den = extraction._functional(sched, prof.p_2, prof.c)
        assert len(l) == len(m) == prof.n_d - 1
        assert (l[0], m[0]) == (den, 0)
        rows, rows_den, exp = _rows(sched, prof.p_2)
        (*r0, d0), (*r1, d1) = rows[:2]
        minors = [a * d1 - d0 * b for a, b in zip(r0, r1)]
        minors += [r0[0] * b - r1[0] * a for a, b in zip(r0, r1)]
        assert all(x % (rows_den << -exp) == 0 for x in minors)

    @pytest.mark.parametrize("p_2", [128, 256])
    def test_run_reads_the_exact_readout_rounded_once(self, tmp_path, p_2):
        # the graphs/ files and P_n, C_n, K_n and the star for n = 2..6, on
        # moments from the enumerated walk spectrum: k0 and z1 equal the
        # Fraction replay's bits, and run prints that replay's block
        graphs = {path.stem: load_graph(str(path)) for path in sorted(GRAPHS.glob("*.graph"))}
        for n in range(2, 7):
            for family in (path_graph, cycle_graph, complete_graph, star_graph):
                graphs[f"{family.__name__}{n}"] = family(n)
        for name, g in graphs.items():
            prof = desk_profile(g.n, p_2=p_2)
            sched = build_schedule(prof)
            a_h, spectrum = hamiltonian_frequency(g), walk_spectrum(g)
            moments = [
                sum(mult * (w - a_h) ** k for w, mult in spectrum.items())
                for k in range(prof.n_d - 1)
            ]
            k0, z1 = reference_readout(moments, prof.c, sched, p_2)
            got = extraction.readout(moments, prof.c, sched, p_2)
            assert (got.k0.bits(), got.z1.bits()) == (k0.bits(), z1.bits()), name
            n_h, dist = nearest_integer(k0.re)
            want = ExtractionResult(
                k0=k0, z1=z1, n_h_rounded=n_h, imag_magnitude=rabs(k0.im),
                round_distance=from_fraction(dist, p_2) if dist else R_ZERO, p=p_2,
            )
            path = tmp_path / f"{name}.graph"
            path.write_text(f"n {g.n}\n" + "".join(f"e {a} {b}\n" for a, b in g.edges))
            report = run_experiment(str(path), prof)
            assert report.extraction == _extraction_block(want), name

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
from hamspec.filter_pipeline import run_filter, run_pipeline, run_pseudo_steps
from hamspec.graph import load_graph
from hamspec.grid import grid_series
from hamspec.numerics import (
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    R_ZERO,
    cfrom_int,
    cmul,
    from_fraction,
    from_int,
    zero_series,
)
from hamspec.schedule import build_schedule, desk_profile
from conftest import (
    nearest_integer,
    path_graph,
    reference_extract,
    reference_flags,
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
        res = extract_nh(zero_series(prof.n_d, prof.p_2), phi01, phi11, sched, prof.p_2)
        assert res.k0.is_zero() and res.z1.is_zero()
        assert res.n_h_rounded == 0
        assert res.round_distance.is_zero()
        assert res.flags == ()

    def test_solve_residuals(self, p2_run):
        prof, sched, o, phi01, phi11 = p2_run
        res = extract_nh(o, phi01, phi11, sched, prof.p_2)
        scale = max(
            abs(res.c0.re.to_fraction()),
            abs(res.c0.im.to_fraction()),
            abs(res.c1.re.to_fraction()),
            abs(res.c1.im.to_fraction()),
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
        # schedule's times
        prof, sched, o, phi01, phi11 = p2_run
        res = extract_nh(o, phi01, phi11, sched, prof.p_2)
        n_d = prof.n_d
        constant = [Fraction(0)] + [Fraction((-1) ** (k - 1)) for k in range(1, n_d + 1)]
        decay = [Fraction((-1) ** k) for k in range(n_d + 1)]
        for u, column in ((constant, (res.phi00, res.phi10)), (decay, (res.phi01, res.phi11))):
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
        res = extract_nh(o, phi01, phi11, sched, p)
        # raised on every call: the determinant memo caches no failure
        for _ in range(2):
            with pytest.raises(SingularSystemError):
                extract_nh(o, cmul(res.phi00, x, p), cmul(res.phi10, x, p), sched, p)
        assert extract_nh(o, phi01, phi11, sched, p).k0.bits() == res.k0.bits()


class TestFlags:
    def mk(self, re_frac, im_frac):
        p = 128
        k0 = PrecisionComplex(from_fraction(re_frac, p), from_fraction(im_frac, p))
        n, dist = nearest_integer(k0.re)
        from hamspec.numerics import from_fraction as ff, rabs

        zero = cfrom_int(0, 0, p)
        return ExtractionResult(
            k0=k0,
            z1=zero,
            n_h_rounded=n,
            imag_magnitude=rabs(k0.im),
            round_distance=ff(dist, p) if dist else R_ZERO,
            phi00=cfrom_int(1, 0, p),
            phi10=zero,
            phi01=zero,
            phi11=zero,
            c0=zero,
            c1=zero,
            residual0=R_ZERO,
            residual1=R_ZERO,
        )

    def test_clean(self):
        assert self.mk(Fraction(2), Fraction(0)).flags == ()

    def test_round_distance_fires(self):
        assert "round_distance" in self.mk(Fraction(23, 10), Fraction(0)).flags

    def test_imaginary_fires(self):
        assert "imaginary" in self.mk(Fraction(2), Fraction(1, 2)).flags

    def test_boundary_quarter_does_not_fire(self):
        assert self.mk(Fraction(9, 4), Fraction(1, 4)).flags == ()


def assert_same_bits(got: ExtractionResult, want: ExtractionResult):
    for name in ("k0", "z1", "imag_magnitude", "round_distance", "residual0", "residual1"):
        assert getattr(got, name).bits() == getattr(want, name).bits(), name
    assert got.n_h_rounded == want.n_h_rounded
    assert got.flags == reference_flags(want)


class TestReferenceParity:
    """The per-part real solve gives the complex solve's bits."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in GRAPHS.glob("*.graph")))
    def test_graph_files(self, name):
        # through run_filter (run's path) and run_pipeline (the pinned reference)
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
        return it, and each set empties the system memo, whose key leaves
        the constant column out."""

        def set_column(phi00, phi10):
            columns = lambda sched, p: ((phi00, phi10), None)  # noqa: E731
            monkeypatch.setattr(extraction, "system_columns", columns)
            extraction._system.cache_clear()

        yield set_column
        extraction._system.cache_clear()

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
        for _ in range(2):  # refused on every call: the memo caches no failure
            with pytest.raises(ValueError, match="not real"):
                extract_nh(o, tilted, phi11, sched, p)
        constant_column(PrecisionComplex(from_int(1, p), from_int(1, p)), cfrom_int(0, 0, p))
        with pytest.raises(ValueError, match="not real"):
            extract_nh(o, phi01, phi11, sched, p)

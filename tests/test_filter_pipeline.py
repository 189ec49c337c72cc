"""Step semantics: cascade ODE identity, zero pinning, linearity, pipelines;
the raw step kernel bit for bit against the exact step, rounded once."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hamspec.filter_pipeline import (
    DegenerateScheduleError,
    _compile,
    _plan,
    _prefixes,
    _rows,
    _step,
    filter_step,
    run_filter,
    run_pipeline,
    run_pseudo_steps,
    system_columns,
)
from hamspec.graph import load_graph
from hamspec.grid import grid_series
from hamspec.numerics import (
    C_ZERO,
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    R_ZERO,
    _quads,
    _round,
    cfrom_int,
    cmul,
    const_series,
    from_fraction,
    from_int,
    series_eval,
    taylor_table,
)
from hamspec.schedule import build_schedule, desk_profile, solve_schedule
from conftest import (
    complete_graph,
    cycle_graph,
    exact_step,
    integrator_cascade,
    path_graph,
    plan_replay,
    reference_pipeline,
    reference_step,
    rounded_fraction,
    rounded_inputs,
    rounded_series,
    star_graph,
    trunc_exp_fraction,
)

GRAPHS = Path(__file__).resolve().parents[1] / "graphs"


def random_series(rng, m, p, mag=20):
    def coeff():
        return from_fraction(
            Fraction(rng.randrange(-(1 << mag), 1 << mag), rng.randrange(1, 1 << mag)), p
        )

    return NormalizedSeries(
        [PrecisionComplex(coeff(), coeff()) for _ in range(m + 1)], p
    )


def double(c, p):
    """2c, exact: c times the complex integer 2."""
    return cmul(c, cfrom_int(2, 0, p), p)


def edge_series(rng, m, p):
    """Seeded series at precision p whose parts mix zeros (some coefficients
    wholly zero), both signs, mantissas at the carry edge 2^p - 1 and the
    floor edge -2^p + 1, and exponents near together or hundreds of bits
    apart."""

    def part():
        kind = rng.randrange(6)
        if kind == 0:
            return R_ZERO
        e = rng.randrange(-8, 8) if rng.random() < 0.5 else rng.randrange(-4 * p - 300, 4 * p + 300)
        if kind == 1:
            return PrecisionReal((1 << p) - 1, e)
        if kind == 2:
            return PrecisionReal(-(1 << p) + 1, e)
        mant = rng.randrange(1 << (p - 1), 1 << p)
        return PrecisionReal(mant if kind == 3 else -mant, e)

    return NormalizedSeries(
        [C_ZERO if rng.random() < 0.15 else PrecisionComplex(part(), part()) for _ in range(m + 1)],
        p,
    )


def spread_series(rng, m, p):
    """Seeded series at precision p: about a third of the parts zero, the
    rest p-bit mantissas of either sign with exponents drawn around -600,
    0 and +600."""

    def part():
        if rng.random() < 0.3:
            return R_ZERO
        mant = rng.randrange(1 << (p - 1), 1 << p) * rng.choice((1, -1))
        return PrecisionReal(mant, rng.choice((-600, 0, 600)) + rng.randrange(-8, 8))

    return NormalizedSeries([PrecisionComplex(part(), part()) for _ in range(m + 1)], p)


def channel_cases(u):
    """Inputs that leave parts of the kernel idle, from u's coefficients:
    real parts only with every odd coefficient zero (the form C4's and K4's
    encoded series take), imaginary parts only, and a run of zero
    coefficients in the middle. The last input holds parts off the
    kernel's p-bit form: a zero with a nonzero exponent, and a mantissa
    narrower than p at u_0 with a p-bit part 2p places below it at u_1."""
    cs, p = u.coeffs, u.precision
    n = len(cs)
    narrow = PrecisionReal(3, 0)
    head = [
        PrecisionComplex(narrow, PrecisionReal(0, 7)),
        PrecisionComplex(PrecisionReal(1 << (p - 1), -2 * p), narrow),
    ]
    real = [C_ZERO if k & 1 else PrecisionComplex(c.re, R_ZERO) for k, c in enumerate(cs)]
    imag = [PrecisionComplex(R_ZERO, c.im) for c in cs]
    gap = [C_ZERO if n // 3 <= k <= 2 * n // 3 else c for k, c in enumerate(cs)]
    return [NormalizedSeries(s, p) for s in (real, imag, gap, head)]


def step_time(rng, p):
    return from_fraction(Fraction(rng.randrange(1, 4000), rng.choice((7, 64, 997))), p)


def parts(quads):
    """Raw (re_m, re_e, im_m, im_e) coefficients as their real and
    imaginary (mantissa, exponent) lists."""
    return [c[:2] for c in quads], [c[2:] for c in quads]


def kernel(quads, step, p):
    """_step on both parts of raw coefficients, joined."""
    re, im = parts(quads)
    return [a + b for a, b in zip(_step(re, step, p), _step(im, step, p))]


def step_one(series, prof):
    """run_filter's step-1 --dump-steps series, the package's bare cascade
    of u_0..u_{n_d-2} at degree n_d - 1."""
    got = {}
    run_filter(series, build_schedule(prof), prof, dump=got.__setitem__)
    return got[1]


def sup_fractions(series):
    return max(
        max(abs(c.re.to_fraction()), abs(c.im.to_fraction())) for c in series.coeffs
    )


class TestFilterStep:
    def test_hand_worked_degree_one(self):
        # input [1, 0], r = 1/2: cascade [0, 1]; value 1/2; decay 1/2;
        # adjustment -1 -> output [-1, 2], which vanishes at 1/2
        p = 128
        out = filter_step(
            NormalizedSeries([cfrom_int(1, 0, p), cfrom_int(0, 0, p)], p),
            from_fraction(Fraction(1, 2), p),
            1,
            p,
        )
        assert [c.re.to_fraction() for c in out.coeffs] == [-1, 2]
        assert all(c.im.is_zero() for c in out.coeffs)

    def test_constant_input_produces_scaled_decay(self):
        # constant k0 in, k0 - k0*alpha*e^{-t} out, alpha the reciprocal of
        # the truncated decay at the step time
        p = 256
        m = 64
        k0 = 5
        out = filter_step(const_series(cfrom_int(k0, 0, p), m, p), from_int(16, p), m, p)
        alpha = 1 / trunc_exp_fraction(Fraction(-16), m)
        tol = Fraction(2) ** -190
        for k, c in enumerate(out.coeffs):
            want = k0 - k0 * alpha if k == 0 else -k0 * alpha * (-1) ** k
            assert abs(c.re.to_fraction() - want) <= tol * abs(want)
            assert c.im.is_zero()

    def test_zero_input(self):
        p = 128
        out = filter_step(NormalizedSeries([C_ZERO] * 9, p), from_fraction(Fraction(1, 3), p), 8, p)
        assert all(c.is_zero() for c in out.coeffs)

    def test_output_vanishes_at_step_time(self):
        rng = random.Random(42)
        p = 256
        m = 16
        for _ in range(10):
            u = random_series(rng, m, p)
            r = from_fraction(Fraction(rng.randrange(1, 1 << 20), 1 << 20), p)
            o = filter_step(u, r, m, p)
            v = series_eval(o, r)
            total = sum(
                abs(c.re.to_fraction()) + abs(c.im.to_fraction()) for c in o.coeffs
            )
            bound = Fraction(2) ** -128 * total
            assert abs(v.re.to_fraction()) <= bound
            assert abs(v.im.to_fraction()) <= bound

    def test_ode_identity(self):
        # o' + o - u vanishes coefficient-wise below the rounding floor
        rng = random.Random(7)
        p = 256
        m = 16
        for _ in range(10):
            u = random_series(rng, m, p)
            r = from_fraction(Fraction(rng.randrange(1, 1 << 16), 1 << 16), p)
            o = filter_step(u, r, m, p)
            scale = max(sup_fractions(o), sup_fractions(u))
            bound = Fraction(2) ** -128 * scale
            for k in range(m):
                for part in ("re", "im"):
                    ok = getattr(o.coeffs[k], part).to_fraction()
                    ok1 = getattr(o.coeffs[k + 1], part).to_fraction()
                    uk = getattr(u.coeffs[k], part).to_fraction()
                    assert abs(ok1 + ok - uk) <= bound

    def test_linearity(self):
        rng = random.Random(99)
        p = 256
        m = 12
        u = random_series(rng, m, p)
        v = random_series(rng, m, p)
        r = from_fraction(Fraction(3, 8), p)
        both = filter_step(NormalizedSeries([double(a, p) for a in u.coeffs], p), r, m, p)
        single = filter_step(u, r, m, p)
        # doubling is exact scaling, so the outputs match bit for bit
        assert both.bits() == tuple(double(c, p).bits() for c in single.coeffs)
        # general additivity holds to rounding
        s = filter_step(
            NormalizedSeries(
                [
                    PrecisionComplex(
                        from_fraction(a.re.to_fraction() + b.re.to_fraction(), p),
                        from_fraction(a.im.to_fraction() + b.im.to_fraction(), p),
                    )
                    for a, b in zip(u.coeffs, v.coeffs)
                ],
                p,
            ),
            r,
            m,
            p,
        )
        su = filter_step(u, r, m, p)
        sv = filter_step(v, r, m, p)
        scale = max(sup_fractions(su), sup_fractions(sv), Fraction(1))
        bound = Fraction(2) ** -128 * scale
        for k in range(m + 1):
            for part in ("re", "im"):
                got = getattr(s.coeffs[k], part).to_fraction()
                want = getattr(su.coeffs[k], part).to_fraction() + getattr(
                    sv.coeffs[k], part
                ).to_fraction()
                assert abs(got - want) <= bound

    def test_degenerate_decay_rejected(self):
        # m=1, r=1: truncated decay 1 - r vanishes
        p = 128
        with pytest.raises(DegenerateScheduleError):
            filter_step(
                NormalizedSeries([cfrom_int(1, 0, p), cfrom_int(0, 0, p)], p),
                from_int(1, p),
                1,
                p,
            )


class TestKernelBits:
    """filter_step and run_pipeline give the exact reference's bits
    (conftest.reference_step: the exact step in Fractions, rounded once)."""

    @pytest.mark.parametrize("p", [24, 53, 256])
    @pytest.mark.parametrize("m", [0, 1, 8, 64])
    def test_filter_step_matches_reference(self, p, m):
        rng = random.Random(1000 * p + m)
        cases = []
        for trial in range(4):
            # the last trial's input sits at another precision (reround path)
            q = p + 37 if trial == 3 else p
            u = edge_series(rng, rng.choice((m, m + 3, max(m - 2, 0))), q)
            cases.append((u, step_time(rng, p)))
        cases += [(u, step_time(rng, p)) for u in channel_cases(edge_series(rng, m + 1, p))]
        for u, r in cases:
            try:
                want = reference_step(u, r, m, p)
            except DegenerateScheduleError:
                with pytest.raises(DegenerateScheduleError):
                    filter_step(u, r, m, p)
                continue
            assert filter_step(u, r, m, p).bits() == want.bits()

    @pytest.mark.parametrize("p", [24, 53, 256])
    def test_quads_equals_per_part_rounding(self, p):
        # parts at p bits pass through; wider and narrower ones, and zeros
        # with a nonzero exponent, are rounded as _round rounds them
        rng = random.Random(3 * p)
        for q in (p - 7, p, p + 37):
            u = edge_series(rng, 12, q)
            for v in (u, *channel_cases(u)):
                want = [
                    _round(c.re.mantissa, c.re.exponent, p) + _round(c.im.mantissa, c.im.exponent, p)
                    for c in v.coeffs
                ]
                assert _quads(v, p) == want

    def test_vanished_decay_raises_in_kernel(self):
        # m=1, r=1: the truncated decay 1 - r vanishes; compiling the step refuses it
        p = 53
        u = _quads(NormalizedSeries([cfrom_int(3, -1, p), cfrom_int(2, 5, p)], p), p)
        with pytest.raises(DegenerateScheduleError):
            kernel(u, _compile(from_int(1, p), 1, p), p)

    @pytest.mark.parametrize("p_2", [53, 256])
    def test_run_pipeline_matches_reference(self, p_2):
        rng = random.Random(p_2)
        for g in (cycle_graph(5), complete_graph(4)):
            prof = desk_profile(g.n, p_2=p_2)
            sched = solve_schedule(prof.p_2, prof.n_d, prof.n_d1, prof.r_1, prof.r_mu)
            for f in (grid_series(g, prof), edge_series(rng, prof.n_d1, prof.p_1)):
                want = reference_pipeline(f, sched, prof)
                assert run_pipeline(f, sched, prof).bits() == want.bits()

    def test_dump_keeps_bits_and_full_step_one(self):
        prof = desk_profile(5)
        sched = build_schedule(prof)
        f = grid_series(cycle_graph(5), prof)
        got, want = {}, {}
        out = run_pipeline(f, sched, prof, dump=got.__setitem__)
        assert out.bits() == run_pipeline(f, sched, prof).bits()
        reference_pipeline(f, sched, prof, dump=want.__setitem__)
        assert got[1].degree_bound == prof.n_d1
        assert sorted(got) == sorted(want) == list(range(1, prof.n_d + 4))
        assert all(got[sp].bits() == want[sp].bits() for sp in want)


class TestExactStep:
    """Every output _step returns is round_nearest_even_fraction of the
    exact step in Fractions (conftest.reference_step), part by part: zero
    parts and exponents hundreds of bits apart."""

    @pytest.mark.parametrize("p", [8, 24, 53, 256])
    def test_every_kept_output_is_the_rounded_exact_step(self, p):
        rng = random.Random(17 * p)
        for m in (0, 1, 2, 5, 16):
            u = edge_series(rng, m + 1, p)
            inputs = [edge_series(rng, rng.choice((m, m + 2, max(m - 2, 0))), p) for _ in range(3)]
            for u in inputs + channel_cases(u):
                r = step_time(rng, p)
                try:
                    step = _compile(r, m, p)
                except DegenerateScheduleError:
                    continue
                assert kernel(_quads(u, p), step, p) == _quads(reference_step(u, r, m, p), p)

    def test_a_zero_part_gives_zeros(self):
        p, m = 53, 8
        step = _compile(from_fraction(Fraction(1, 3), p), m, p)
        assert _step([(0, 0)] * m, step, p) == [(0, 0)] * (m + 1)
        assert _step([], step, p) == [(0, 0)] * (m + 1)

    @pytest.mark.parametrize("p", [8, 24, 53, 256])
    def test_a_cancelled_output_is_rounded_from_the_exact_quotient(self, p):
        # u_1 = 1 - (q + f_1)/f_2, rounded, makes output 1 = u_0 - adj
        # cancel to about 2^-p of its terms; it is still rounded from its
        # exact value, bit-equal to the exact Fraction step
        m, r = 2, from_fraction(Fraction(1, 3), p)
        factors, _, q = taylor_table(r, m, p)
        f1, f2, q = (x.to_fraction() for x in (factors[1], factors[2], q))
        u1 = rounded_fraction(1 - (q + f1) / f2, p)
        u = NormalizedSeries([cfrom_int(1, 0, p), PrecisionComplex(u1, R_ZERO)], p)
        got = kernel(_quads(u, p), _compile(r, m, p), p)
        assert got == _quads(reference_step(u, r, m, p), p)
        one = got[1]
        assert one[0] and one[0].bit_length() + one[1] < -p + 8  # cancelled, not zero


class TestStepCaches:
    """taylor_table's bits depend on r's value, m and p alone, so
    series_eval and filter_step give the same bits whatever precision r
    is held at and whichever precision ran before."""

    def test_same_value_at_another_precision(self):
        p, m = 256, 16
        u = random_series(random.Random(5), m, p)
        narrow = from_fraction(Fraction(5, 11), 64)
        wide = PrecisionReal(narrow.mantissa << 960, narrow.exponent - 960)
        assert wide.mantissa != narrow.mantissa and wide == narrow
        cold = (series_eval(u, narrow).bits(), filter_step(u, narrow, m, p).bits())
        warm = (series_eval(u, wide).bits(), filter_step(u, wide, m, p).bits())
        cold_wide = (series_eval(u, wide).bits(), filter_step(u, wide, m, p).bits())
        assert cold == warm == cold_wide

    def test_key_includes_precision(self):
        m = 12
        r = from_fraction(Fraction(3, 8), 512)
        u = random_series(random.Random(6), m, 512)
        lo = u.reround(128)
        series_eval(u, r)
        filter_step(u, r, m, 512)
        after_512 = series_eval(lo, r).bits(), filter_step(lo, r, m, 128).bits()
        cold = series_eval(lo, r).bits(), filter_step(lo, r, m, 128).bits()
        assert after_512 == cold
        factors, up, down = taylor_table(r, m, 128)
        assert {f.mantissa.bit_length() for f in factors} == {128}
        assert up.mantissa.bit_length() == down.mantissa.bit_length() == 128
        assert {f.mantissa.bit_length() for f in taylor_table(r, m, 512)[0]} == {512}


class TestCascade:
    """The package's one bare cascade, run_filter's step 1 (step_one): the
    zero-state response of u_0..u_{n_d-2} at degree n_d - 1, each output
    rounded once."""

    KEYS = [{}, dict(n_d=12, n_d1=140, r_1=28, p_1=768, p_2=384)]

    def test_exact_over_small_integers(self):
        # with integer inputs every partial sum is exact: compare against a
        # pure-rational mirror of the cascade
        rng = random.Random(3)
        for key in self.KEYS:
            prof = desk_profile(4, **key)
            p, n_d = prof.p_2, prof.n_d
            ints = [rng.randrange(-50, 50) for _ in range(n_d - 1)]
            out = step_one(NormalizedSeries([cfrom_int(v, 0, p) for v in ints], p), prof)
            assert out.degree_bound == n_d - 1
            for k in range(n_d):
                want = sum((-1) ** (k - 1 - d) * ints[d] for d in range(k))
                assert out.coeffs[k].re.to_fraction() == want

    def test_bit_identical_to_exact_sum(self):
        # real 256-bit inputs would round at nearly every addition of a
        # running sum, so only they tell one rounding of the exact sum from
        # many: C5's encoded series, the input to the reference's step 6,
        # and that input with zeros past coefficient 4
        prof = desk_profile(5)
        p, n_d = prof.p_2, prof.n_d
        f = grid_series(cycle_graph(5), prof).reround(p)
        steps = {}
        run_pipeline(f, build_schedule(prof), prof, dump=steps.__setitem__)
        cut = NormalizedSeries(steps[5].coeffs[:5] + (C_ZERO,) * (n_d - 6), p)
        for series in (f, steps[5], cut):
            assert any(c.re.mantissa.bit_length() == p for c in series.coeffs[: n_d - 1])
            want = integrator_cascade(series.truncate(n_d - 2), n_d - 1)
            assert step_one(series, prof).bits() == want.bits()

    def test_telescoping_identity(self):
        # out_{k+1} + out_k = u_k exactly for integer inputs
        prof = desk_profile(4, p_2=192)
        p, n_d = prof.p_2, prof.n_d
        vals = [3, -7, 11, 2, -9, 5, -4][: n_d - 1]
        out = step_one(NormalizedSeries([cfrom_int(v, 0, p) for v in vals], p), prof)
        for k in range(n_d - 1):
            assert (
                out.coeffs[k + 1].re.to_fraction() + out.coeffs[k].re.to_fraction()
                == vals[k]
            )


class TestPipeline:
    def test_constant_cycle_form(self):
        # constant k0 through steps 1..n_d+1 keeps only the constant and the
        # top coefficient -k0*alpha
        prof = desk_profile(4)
        sched = build_schedule(prof)
        p, n_d = prof.p_2, prof.n_d
        k0 = 5
        j = filter_step(const_series(cfrom_int(k0, 0, p), prof.n_d1, p), sched.times[1], prof.n_d1, p)
        j = j.truncate(n_d)
        for sp in range(2, n_d + 2):
            j = filter_step(j, sched.times[sp], n_d, p)
        alpha = 1 / trunc_exp_fraction(Fraction(-16), prof.n_d1)
        scale = k0 * alpha
        tol = Fraction(2) ** -100 * scale
        assert abs(j.coeffs[0].re.to_fraction() - k0) <= tol
        assert abs(j.coeffs[n_d].re.to_fraction() + k0 * alpha) <= tol
        for k in range(1, n_d):
            assert abs(j.coeffs[k].re.to_fraction()) <= tol

    def test_zero_pipeline(self):
        prof = desk_profile(4)
        sched = build_schedule(prof)
        out = run_pipeline(NormalizedSeries([C_ZERO] * (prof.n_d1 + 1), prof.p_2), sched, prof)
        assert all(c.is_zero() for c in out.coeffs)

    def test_rejects_wrong_degree(self):
        prof = desk_profile(4)
        sched = build_schedule(prof)
        with pytest.raises(ValueError):
            run_pipeline(NormalizedSeries([C_ZERO] * 17, prof.p_2), sched, prof)

    def test_step_one_runs_at_full_degree_then_truncates(self):
        prof = desk_profile(4)
        sched = build_schedule(prof)
        seen = {}
        run_pipeline(
            const_series(cfrom_int(1, 0, prof.p_2), prof.n_d1, prof.p_2),
            sched,
            prof,
            dump=lambda sp, s: seen.__setitem__(sp, s.degree_bound),
        )
        assert seen[1] == prof.n_d1
        assert all(seen[sp] == prof.n_d for sp in range(2, prof.n_d + 4))

    def test_output_is_final_step_state(self):
        prof = desk_profile(4)
        sched = build_schedule(prof)
        last = {}
        out = run_pipeline(
            const_series(cfrom_int(3, 0, prof.p_2), prof.n_d1, prof.p_2),
            sched,
            prof,
            dump=lambda sp, s: last.__setitem__("series", s),
        )
        assert out.bits() == last["series"].bits()


class TestProductionPath:
    """run_filter: step 1 is the bare cascade of u_0..u_{n_d-2}, truncated to
    coefficients 0..n_d-1, then steps 2..n_d+3 with run_pipeline's
    constants; each output is the plan's exact value, rounded once."""

    @staticmethod
    def reference(f, sched, prof):
        """Step 1's bare cascade (exact_step) and then plan_replay of
        _plan, each step's outputs rounded once: the expected --dump-steps
        series, the last the output."""
        p, n_d = prof.p_2, prof.n_d
        u = exact_step(rounded_inputs(f.truncate(n_d - 2), p), n_d - 1)
        return [rounded_series(s, p) for s in [u] + plan_replay(u, _plan(sched, p))]

    @pytest.mark.parametrize("p_2", [53, 256])
    def test_matches_reference(self, p_2):
        rng = random.Random(p_2)
        for g in (cycle_graph(5), complete_graph(4)):
            prof = desk_profile(g.n, p_2=p_2)
            sched = solve_schedule(prof.p_2, prof.n_d, prof.n_d1, prof.r_1, prof.r_mu)
            head = grid_series(g, prof, prof.n_d - 2)
            for f in (head, edge_series(rng, prof.n_d - 2, prof.p_1)):
                assert run_filter(f, sched, prof).bits() == self.reference(f, sched, prof)[-1].bits()
            # the encoded file's degree n_d1: only its head is read
            assert run_filter(grid_series(g, prof), sched, prof).bits() == run_filter(head, sched, prof).bits()

    @pytest.mark.parametrize("p_2", [53, 256])
    def test_every_output_is_the_exact_plan_rounded_once(self, p_2):
        # the graphs/ files, P_n, C_n, K_n and the star for n = 2..7, and
        # seeded inputs with zero parts and exponents hundreds of bits
        # apart: filter's output and each of its --dump-steps series
        rng = random.Random(5 * p_2)
        graphs = [load_graph(str(path)) for path in sorted(GRAPHS.glob("*.graph"))]
        graphs += [
            family(n)
            for n in range(2, 8)
            for family in (path_graph, cycle_graph, complete_graph, star_graph)
        ]
        for g in graphs:
            prof = desk_profile(g.n, p_2=p_2)
            sched = solve_schedule(prof.p_2, prof.n_d, prof.n_d1, prof.r_1, prof.r_mu)
            inputs = [grid_series(g, prof, prof.n_d - 2)]
            if g.n in (3, 7):
                inputs += [spread_series(rng, prof.n_d - 2, q) for q in (prof.p_1, p_2)]
            for f in inputs:
                want = self.reference(f, sched, prof)
                got = {}
                out = run_filter(f, sched, prof, dump=got.__setitem__)
                assert out.bits() == want[-1].bits()
                assert sorted(got) == list(range(1, len(want) + 1))
                assert all(got[sp].bits() == s.bits() for sp, s in enumerate(want, 1))

    def test_rejects_a_series_below_n_d_minus_2(self):
        prof = desk_profile(4)
        sched = build_schedule(prof)
        run_filter(NormalizedSeries([C_ZERO] * (prof.n_d - 1), prof.p_2), sched, prof)
        with pytest.raises(ValueError, match="n_d - 2"):
            run_filter(NormalizedSeries([C_ZERO] * (prof.n_d - 2), prof.p_2), sched, prof)

    def test_dump_keeps_bits_and_holds_n_d_coefficients_at_step_one(self):
        prof = desk_profile(5)
        sched = build_schedule(prof)
        f = grid_series(cycle_graph(5), prof, prof.n_d - 2)
        got = {}
        out = run_filter(f, sched, prof, dump=got.__setitem__)
        assert out.bits() == run_filter(f, sched, prof).bits()
        assert sorted(got) == list(range(1, prof.n_d + 4))
        assert got[1].bits() == integrator_cascade(f.reround(prof.p_2), prof.n_d - 1).bits()
        assert all(got[sp].degree_bound == prof.n_d for sp in range(2, prof.n_d + 4))
        assert got[prof.n_d + 3].bits() == out.bits()

    def test_vanished_decay_raises_before_the_first_dump(self):
        # no step file is written for a schedule that cannot run, and
        # _prefixes compiles _plan when called, before it hands out step 1
        prof = desk_profile(4, n_d=1, r_mu=1)
        sched = solve_schedule(prof.p_2, prof.n_d, prof.n_d1, prof.r_1, prof.r_mu)
        calls = []
        with pytest.raises(DegenerateScheduleError):
            run_filter(NormalizedSeries([C_ZERO], prof.p_2), sched, prof, dump=lambda *a: calls.append(a))
        assert calls == []
        with pytest.raises(DegenerateScheduleError):
            _prefixes(sched, prof.p_2)

    def test_n_d_below_two_is_refused(self):
        # validate_profile refuses this key (r_mu_lt_n_d) but it solves, and
        # its decay does not vanish: with no input column the rows would
        # hand the decay column out as the constant one
        prof = desk_profile(4, n_d=1, r_mu=2)
        sched = solve_schedule(prof.p_2, prof.n_d, prof.n_d1, prof.r_1, prof.r_mu)
        calls = []
        for call in (
            lambda: _prefixes(sched, prof.p_2),
            lambda: _rows(sched, prof.p_2),
            lambda: system_columns(sched, prof.p_2),
            lambda: run_filter(NormalizedSeries([C_ZERO], prof.p_2), sched, prof, dump=calls.append),
        ):
            with pytest.raises(ValueError, match="n_d=1 < 2"):
                call()
        assert calls == []

    @pytest.mark.parametrize("key", TestCascade.KEYS)
    def test_every_2x2_minor_of_the_rows_divides_evenly(self, key):
        # _compose's Cauchy-Binet claim on every pair of rows and every
        # pair of columns, the decay column included; _functional divides
        # only 2(n_d - 1) of these minors
        prof = desk_profile(4, **key)
        rows, den, exp = _rows(build_schedule(prof), prof.p_2)
        scale = den << -exp
        assert scale > 1 and (len(rows), len(rows[0])) == (prof.n_d + 1, prof.n_d)
        for a, b in itertools.combinations(rows, 2):
            for i, j in itertools.combinations(range(prof.n_d), 2):
                assert (a[i] * b[j] - a[j] * b[i]) % scale == 0

    @pytest.mark.parametrize("key", TestCascade.KEYS)
    def test_rows_are_the_exact_plan(self, key):
        # each entry N_ij / den * 2^exp, not just its rounding: input
        # column j is step 1's bare cascade of a unit u_j and then _plan,
        # the last column _plan on e^{-t}'s coefficients (-1)^k
        prof = desk_profile(4, **key)
        sched = build_schedule(prof)
        n_d, p = prof.n_d, prof.p_2
        rows, den, exp = _rows(sched, p)
        one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
        inputs = [exact_step([zero] * j + [one], n_d - 1) for j in range(n_d - 1)]
        inputs.append([(Fraction((-1) ** k), Fraction(0)) for k in range(n_d)])
        for j, u in enumerate(inputs):
            want = plan_replay(u, _plan(sched, p))[-1]
            got = [(Fraction(row[j], den) * Fraction(2) ** exp, 0) for row in rows]
            assert got == want, j

    def test_constant_column_is_the_response_to_a_unit_constant(self):
        prof = desk_profile(4)
        sched = build_schedule(prof)
        o = run_filter(const_series(cfrom_int(1, 0, prof.p_2), prof.n_d - 2, prof.p_2), sched, prof)
        (phi00, phi10), _ = system_columns(sched, prof.p_2)
        assert (phi00, phi10) == o.coeffs[:2]


class TestPseudoSteps:
    def test_finite_and_nonzero_at_desk_profile(self):
        prof = desk_profile(4)
        sched = build_schedule(prof)
        phi01, phi11 = run_pseudo_steps(sched, prof)
        assert not phi01.is_zero() and not phi11.is_zero()
        assert phi01.im.is_zero() and phi11.im.is_zero()
        # golden values, cross-checked against an independent high-precision
        # rational/mpmath reconstruction of the same cascade
        from hamspec.numerics import to_decimal

        assert to_decimal(phi01.re).startswith("-1.114335080346308")
        assert to_decimal(phi11.re).startswith("8.232851406949203")

    def test_linearity_under_doubling(self):
        # the decay column is steps 2..n_d+3 on e^{-t}, exact and rounded
        # once, so twice e^{-t} gives twice the column; the per-step
        # reference doubles too, as doubling is exact
        prof = desk_profile(4)
        sched = build_schedule(prof)
        p, n_d = prof.p_2, prof.n_d
        base = NormalizedSeries([cfrom_int((-1) ** k, 0, p) for k in range(n_d + 1)], p)
        doubled = NormalizedSeries([double(c, p) for c in base.coeffs], p)
        phi01, phi11 = run_pseudo_steps(sched, prof)
        for f, column in ((base, (phi01, phi11)), (doubled, (double(phi01, p), double(phi11, p)))):
            exact = plan_replay(rounded_inputs(f, p), _plan(sched, p))[-1]
            assert rounded_series(exact[:2], p).coeffs == column
        chains = []
        for j in (base, doubled):
            for sp in range(2, n_d + 4):
                j = filter_step(j, sched.times[sp], n_d, p)
            chains.append(j)
        assert chains[1].coeffs == tuple(double(c, p) for c in chains[0].coeffs)

    def test_degenerate_profile_surfaces_error(self):
        prof = desk_profile(4, n_d=1, r_mu=1)
        sched = solve_schedule(prof.p_2, prof.n_d, prof.n_d1, prof.r_1, prof.r_mu)
        with pytest.raises(DegenerateScheduleError):
            run_pseudo_steps(sched, prof)

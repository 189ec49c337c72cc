"""Step semantics: cascade ODE identity, zero pinning, linearity, pipelines;
the raw step kernel bit for bit against the object-level reference."""

import random
from fractions import Fraction

import pytest

from hamspec.filter_pipeline import (
    DegenerateScheduleError,
    _compile,
    _step,
    decay_series,
    filter_step,
    run_filter,
    run_pipeline,
    run_pseudo_steps,
    system_columns,
)
from hamspec.grid import grid_series
from hamspec.numerics import (
    C_ZERO,
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    R_ZERO,
    _quads,
    _round,
    cadd,
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
    cneg,
    complete_graph,
    cycle_graph,
    integrator_cascade,
    reference_pipeline,
    reference_step,
    trunc_exp_fraction,
)


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


def ascending_cascade(series, m):
    """Reference cascade: out_k = sum_{d<k} (-1)^(k-1-d) u_d, each sum
    accumulated in ascending d with a rounding after every addition."""
    p = series.precision
    coeffs = series.coeffs
    out = [C_ZERO]
    for k in range(1, m + 1):
        acc = C_ZERO
        for d in range(min(k - 1, len(coeffs) - 1) + 1):
            u = coeffs[d]
            if u.is_zero():
                continue
            acc = cadd(acc, u if (k - 1 - d) % 2 == 0 else cneg(u), p)
        out.append(acc)
    return NormalizedSeries(out, p)


def edge_series(rng, m, p):
    """Seeded series at precision p whose parts mix zeros (some coefficients
    wholly zero), both signs, mantissas at the carry edge 2^p - 1 and the
    floor edge -2^p + 1, and exponents near together or far apart (the
    sticky path of the addition)."""

    def part():
        kind = rng.randrange(6)
        if kind == 0:
            return R_ZERO
        e = rng.randrange(-8, 8) if rng.random() < 0.5 else rng.randrange(-4 * p, 4 * p)
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


def channel_cases(u):
    """Inputs that leave parts of the kernel idle, from u's coefficients:
    real parts only with every odd coefficient zero (the form C4's and K4's
    encoded series take), imaginary parts only, and a run of zero
    coefficients in the middle. The last input holds parts off the
    kernel's p-bit form: a zero with a nonzero exponent, and a mantissa
    narrower than p at u_0, which the cascade's first sum returns as it is,
    with a p-bit part 2p places below it at u_1, which the second sum would
    fold into a sticky bit were the narrow part not widened on entry."""
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
    """filter_step and run_pipeline give the object-level reference's bits
    (conftest.reference_step: radd/rmul/rdiv on PrecisionComplex values)."""

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
    def test_kernel_pins_only_kept_coefficients(self, p):
        rng = random.Random(p)
        m = 16
        for keep in (0, 1, 7, m):
            u = edge_series(rng, m, p)
            r = step_time(rng, p)
            got = _step(_quads(u, p), _compile(r, m, p), p, keep)
            assert got == _quads(reference_step(u, r, m, p), p)[: keep + 1]

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
        for keep in (0, 1):
            with pytest.raises(DegenerateScheduleError):
                _step(u, _compile(from_int(1, p), 1, p), p, keep)

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
    def test_exact_over_small_integers(self):
        # with integer inputs every partial sum is exact: compare against a
        # pure-rational mirror of the cascade
        rng = random.Random(3)
        p = 256
        m = 16
        ints = [rng.randrange(-50, 50) for _ in range(m + 1)]
        series = NormalizedSeries([cfrom_int(v, 0, p) for v in ints], p)
        out = integrator_cascade(series, m)
        for k in range(m + 1):
            want = sum((-1) ** (k - 1 - d) * ints[d] for d in range(k))
            assert out.coeffs[k].re.to_fraction() == want

    def test_bit_identical_to_ascending_sum(self):
        # real 256-bit inputs round at nearly every addition, so only they can
        # tell the recurrence's rounding order from the ascending sum's: C5's
        # encoded series at step 1's degree, the input to step 6 at n_d, and
        # that input cut to degree 4 (zero inputs beyond the series)
        prof = desk_profile(5)
        p, n_d = prof.p_2, prof.n_d
        f = grid_series(cycle_graph(5), prof).reround(p)
        steps = {}
        run_pipeline(f, build_schedule(prof), prof, dump=steps.__setitem__)
        cases = [(f, prof.n_d1), (steps[5], n_d), (steps[5].truncate(4), n_d)]
        for series, m in cases:
            assert any(c.re.mantissa.bit_length() == p for c in series.coeffs)
            want = ascending_cascade(series, m)
            assert integrator_cascade(series, m).bits() == want.bits()

    def test_telescoping_identity(self):
        # out_{k+1} + out_k = u_k exactly for integer inputs
        p = 192
        vals = [3, -7, 11, 2, -9]
        series = NormalizedSeries([cfrom_int(v, 0, p) for v in vals], p)
        out = integrator_cascade(series, 4)
        for k in range(4):
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
    coefficients 0..n_d-1, then steps 2..n_d+3 as in run_pipeline."""

    @staticmethod
    def reference(f, sched, prof):
        p, n_d = prof.p_2, prof.n_d
        j = ascending_cascade(f.reround(p).truncate(n_d - 2), n_d - 1)
        for sp in range(2, n_d + 4):
            j = reference_step(j, sched.times[sp], n_d, p)
        return j

    @pytest.mark.parametrize("p_2", [53, 256])
    def test_matches_reference(self, p_2):
        rng = random.Random(p_2)
        for g in (cycle_graph(5), complete_graph(4)):
            prof = desk_profile(g.n, p_2=p_2)
            sched = solve_schedule(prof.p_2, prof.n_d, prof.n_d1, prof.r_1, prof.r_mu)
            head = grid_series(g, prof, prof.n_d - 2)
            for f in (head, edge_series(rng, prof.n_d - 2, prof.p_1)):
                assert run_filter(f, sched, prof).bits() == self.reference(f, sched, prof).bits()
            # the encoded file's degree n_d1: only its head is read
            assert run_filter(grid_series(g, prof), sched, prof).bits() == run_filter(head, sched, prof).bits()

    @pytest.mark.parametrize("p_2", [53, 256])
    def test_two_coefficient_output_has_the_full_outputs_bits(self, p_2):
        # run's path: the last step pins and returns only c0 and c1
        rng = random.Random(7 * p_2)
        prof = desk_profile(4, p_2=p_2)
        sched = solve_schedule(prof.p_2, prof.n_d, prof.n_d1, prof.r_1, prof.r_mu)
        inputs = [edge_series(rng, prof.n_d - 2, q) for q in (prof.p_1, p_2) for _ in range(4)]
        inputs += [random_series(rng, prof.n_d - 2, p_2) for _ in range(4)]
        for f in inputs:
            full = run_filter(f, sched, prof)
            two = run_filter(f, sched, prof, reads=2)
            assert two.degree_bound == 1
            assert two.bits() == full.bits()[:2]

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
        prof = desk_profile(4)
        sched = build_schedule(prof)
        p, n_d = prof.p_2, prof.n_d
        base = decay_series(n_d, p)
        doubled = NormalizedSeries([double(c, p) for c in base.coeffs], p)
        j = doubled
        for sp in range(2, n_d + 4):
            j = filter_step(j, sched.times[sp], n_d, p)
        phi01, phi11 = run_pseudo_steps(sched, prof)
        assert j.coeffs[0] == double(phi01, p)
        assert j.coeffs[1] == double(phi11, p)

    def test_degenerate_profile_surfaces_error(self):
        prof = desk_profile(4, n_d=1, r_mu=1)
        sched = solve_schedule(prof.p_2, prof.n_d, prof.n_d1, prof.r_1, prof.r_mu)
        with pytest.raises(DegenerateScheduleError):
            run_pseudo_steps(sched, prof)

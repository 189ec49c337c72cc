"""Step-time solvers against exact rational bisection, plus profile checks."""

import math
from fractions import Fraction

import pytest

from hamspec.numerics import from_fraction, from_int, to_decimal, truncated_exp
from hamspec.schedule import (
    NoRootError,
    PipelineProfile,
    ProfileError,
    build_schedule,
    desk_profile,
    full_scale_profile,
    profile_from_text,
    profile_ok,
    profile_to_text,
    ruleu_lhs,
    solve_schedule,
    solve_r_mu_plus_1,
    solve_r_sp,
    validate_profile,
)
from conftest import bisect_fraction, trunc_exp_fraction


def ruleu_fraction(alpha: Fraction, sp: int, n_d: int):
    fact = math.factorial(sp - 1)
    L = n_d - sp + 1

    def g(r: Fraction) -> Fraction:
        return alpha * r ** (sp - 1) / fact * trunc_exp_fraction(-r, L) - 1

    return g


class TestSolveRsp:
    def test_alpha_ten_step_two(self):
        # 10 * r * e^{-r} = 1, smallest positive root (deep truncation)
        p = 256
        n_d = 40
        got = solve_r_sp(from_int(10, p), 2, n_d, p).to_fraction()
        want = bisect_fraction(ruleu_fraction(Fraction(10), 2, n_d), Fraction(1, 100), Fraction(1, 2), 220)
        assert abs(got - want) <= Fraction(2) ** -100 * want
        assert abs(got - Fraction(11183, 100000)) < Fraction(1, 10000)

    def test_large_alpha_first_order(self):
        # alpha = 1/tr_64(e^{-16}): root ~ 1/alpha ~ 1.1254e-7
        p = 256
        alpha = 1 / trunc_exp_fraction(Fraction(-16), 64)
        got = solve_r_sp(from_fraction(alpha, p), 2, 8, p).to_fraction()
        want = bisect_fraction(
            ruleu_fraction(alpha, 2, 8), Fraction(1, 10 ** 8), Fraction(1, 10 ** 6), 260
        )
        assert abs(got - want) <= Fraction(2) ** -100 * want
        assert Fraction(1) / alpha < got < Fraction(2) / alpha

    def test_last_step_closed_form(self):
        # truncation sum reduces to 1: alpha * r^n_d / n_d! = 1
        p = 256
        n_d = 8
        alpha = 1 / trunc_exp_fraction(Fraction(-16), 64)
        got = solve_r_sp(from_fraction(alpha, p), n_d + 1, n_d, p).to_fraction()
        assert abs(alpha * got ** n_d / math.factorial(n_d) - 1) < Fraction(2) ** -120

    def test_residual_at_solution(self):
        p = 256
        alpha = from_fraction(1 / trunc_exp_fraction(Fraction(-16), 64), p)
        for sp in range(2, 10):
            r = solve_r_sp(alpha, sp, 8, p)
            lhs = ruleu_lhs(alpha, r, sp, 8, p).to_fraction()
            assert abs(lhs - 1) <= Fraction(2) ** -128

    def test_no_root_when_alpha_small(self):
        with pytest.raises(NoRootError):
            solve_r_sp(from_int(2, 128), 2, 8, 128)

    def test_no_root_when_degree_outgrows_alpha(self):
        # (n_d!/alpha)^(1/n_d) > 1 pushes the root past the unit interval
        alpha = from_fraction(1 / trunc_exp_fraction(Fraction(-16), 64), 256)
        with pytest.raises(NoRootError):
            solve_r_sp(alpha, 13, 12, 256)

    def test_bad_step_index(self):
        with pytest.raises(ValueError):
            solve_r_sp(from_int(10, 128), 1, 8, 128)


class TestSolveClosing:
    def closing_fraction(self, r_mu: int, n_d: int):
        beta = trunc_exp_fraction(Fraction(r_mu), n_d)

        def g(r: Fraction) -> Fraction:
            return beta * r - trunc_exp_fraction(r, n_d)

        return g

    def test_r_mu_two(self):
        p = 256
        got = solve_r_mu_plus_1(from_int(2, p), 8, p).to_fraction()
        want = bisect_fraction(self.closing_fraction(2, 8), Fraction(1, 100), Fraction(1, 2), 220)
        assert abs(got - want) <= Fraction(2) ** -100 * want
        assert abs(got - Fraction(1586, 10000)) < Fraction(1, 1000)

    def test_r_mu_four(self):
        p = 256
        got = solve_r_mu_plus_1(from_int(4, p), 8, p).to_fraction()
        want = bisect_fraction(self.closing_fraction(4, 8), Fraction(1, 1000), Fraction(1, 2), 220)
        assert abs(got - want) <= Fraction(2) ** -100 * want
        # asymptotically r ~ 1/beta = 1/tr(e^4)
        beta = trunc_exp_fraction(Fraction(4), 8)
        assert Fraction(1) / beta < got < Fraction(3, 2) / beta

    def test_large_beta_limit(self):
        p = 192
        r8 = solve_r_mu_plus_1(from_int(8, p), 16, p).to_fraction()
        r12 = solve_r_mu_plus_1(from_int(12, p), 16, p).to_fraction()
        assert r12 < r8 < Fraction(1, 100)

    def test_residual(self):
        p = 256
        n_d = 8
        r_mu = from_int(2, p)
        r = solve_r_mu_plus_1(r_mu, n_d, p)
        beta = truncated_exp(r_mu, n_d, p).to_fraction()
        got = trunc_exp_fraction(r.to_fraction(), n_d) / r.to_fraction()
        assert abs(got - beta) <= Fraction(2) ** -128 * beta


class TestBuildSchedule:
    def test_desk_schedule_golden(self):
        sched = build_schedule(desk_profile(4))
        assert to_decimal(sched.alpha) == "8.8860962522119303018e+6"
        assert to_decimal(sched.times[2]) == "1.1253536807981952944e-7"
        assert to_decimal(sched.times[9]) == "5.0944955683769074659e-1"
        assert to_decimal(sched.times[11]) == "1.5863910820803554404e-1"
        assert to_decimal(sched.beta) == "7.3873015873015873016e+0"

    def test_definitional_entries(self):
        prof = desk_profile(4)
        sched = build_schedule(prof)
        assert sched.times[1].to_fraction() == 16
        assert sched.times[prof.n_d + 2].to_fraction() == 2  # copied verbatim
        assert len(sched.times) == prof.n_d + 4  # 1..n_d+3 plus unused slot 0
        assert sched.times[0] is None

    def test_alpha_is_truncated_decay_reciprocal(self):
        prof = desk_profile(4)
        sched = build_schedule(prof)
        want = 1 / trunc_exp_fraction(Fraction(-16), 64)
        got = sched.alpha.to_fraction()
        assert abs(got - want) <= Fraction(2) ** -200 * want

    def test_toy_profile(self):
        prof = PipelineProfile(n=3, n_d=6, n_d1=48, r_1=12, r_mu=2, c=2 ** 30)
        sched = build_schedule(prof)
        r2 = sched.times[2].to_fraction()
        alpha = 1 / trunc_exp_fraction(Fraction(-12), 48)
        want = bisect_fraction(
            ruleu_fraction(alpha, 2, 6), Fraction(1, 10 ** 7), Fraction(1, 10 ** 5), 240
        )
        assert abs(r2 - want) <= Fraction(2) ** -90 * want
        assert abs(r2 - Fraction(61, 10 ** 7)) < Fraction(1, 10 ** 7)

    def test_schedule_direction_measured(self):
        # the solved times grow with the step index (each later step solves
        # alpha r^(sp-1)/(sp-1)! ~ 1 with a weaker power)
        sched = build_schedule(desk_profile(4))
        times = [t.to_fraction() for t in sched.times[2:10]]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(t < 1 for t in times)

    def test_invalid_profile_refused(self):
        with pytest.raises(ProfileError):
            build_schedule(desk_profile(4, r_1=8))  # r_1 == n_d
        # the solve itself still succeeds when roots exist
        bad = desk_profile(4, r_mu=8)  # r_mu == n_d
        with pytest.raises(ProfileError):
            build_schedule(bad)
        sched = solve_schedule(bad.p_2, bad.n_d, bad.n_d1, bad.r_1, bad.r_mu)
        assert sched.times[10].to_fraction() == 8

    def test_profiles_share_one_solve(self):
        # the times depend only on (p_2, n_d, n_d1, r_1, r_mu), not on n or c
        assert build_schedule(desk_profile(2)) is build_schedule(desk_profile(5))

    def test_fresh_solve_equals_cached(self):
        cached = build_schedule(desk_profile(4))
        solve_schedule.cache_clear()
        fresh = build_schedule(desk_profile(4))
        assert fresh is not cached
        assert [t.bits() for t in fresh.times[1:]] == [t.bits() for t in cached.times[1:]]
        assert fresh.alpha.bits() == cached.alpha.bits()
        assert fresh.beta.bits() == cached.beta.bits()

    def test_validation_runs_on_a_cache_hit(self):
        build_schedule(desk_profile(4))
        # same solve key, but c is too small: highfreq_transient_small fails
        with pytest.raises(ProfileError, match="highfreq_transient_small"):
            build_schedule(desk_profile(4, c=16))

    def test_key_fields_change_the_times(self):
        base = build_schedule(desk_profile(4))
        for override in (dict(p_2=192), dict(r_1=20)):
            other = build_schedule(desk_profile(4, **override))
            assert other.times[2] != base.times[2]


class TestValidator:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_paper_scale_profiles_pass(self, n):
        constraints = validate_profile(full_scale_profile(n))
        assert profile_ok(constraints), [c for c in constraints if not c.passed]

    def test_desk_profile_passes_with_slack(self):
        constraints = validate_profile(desk_profile(4))
        assert profile_ok(constraints)
        by_name = {c.name: c for c in constraints}
        assert by_name["transient_tail_small"].slack > 100
        assert by_name["highfreq_transient_small"].slack > 10

    def test_broken_r1(self):
        constraints = validate_profile(desk_profile(4, r_1=8))
        assert not profile_ok(constraints)
        assert any(c.name == "r_1_gt_n_d" and not c.passed for c in constraints)

    def test_broken_degree_order(self):
        constraints = validate_profile(desk_profile(4, n_d1=8))
        failed = {c.name for c in constraints if not c.passed}
        assert "n_d1_gt_n_d" in failed and "n_d1_gt_r_1" in failed

    def test_broken_scale(self):
        constraints = validate_profile(desk_profile(4, c=2))
        assert any(c.name == "highfreq_transient_small" and not c.passed for c in constraints)

    def test_broken_r_mu(self):
        constraints = validate_profile(desk_profile(4, r_mu=8))
        assert any(c.name == "r_mu_lt_n_d" and not c.passed for c in constraints)

    def test_broken_beta(self):
        constraints = validate_profile(desk_profile(4, r_mu=1))
        assert any(c.name == "beta_large" and not c.passed for c in constraints)


class TestProfileFiles:
    def test_round_trip(self):
        prof = desk_profile(4)
        assert profile_from_text(profile_to_text(prof)) == prof

    def test_n_from_graph(self):
        text = "n_d=8\nn_d1=64\nr_1=16\nr_mu=2\nc=1024\n"
        prof = profile_from_text(text, n=3)
        assert prof.n == 3 and prof.p_1 == 512  # defaults fill in

    def test_n_conflict(self):
        with pytest.raises(ProfileError):
            profile_from_text("n=4\nn_d=8\nn_d1=64\nr_1=16\nr_mu=2\nc=4\n", n=5)

    def test_unknown_key(self):
        with pytest.raises(ProfileError, match="line 1"):
            profile_from_text("bogus=1\n")

    def test_missing_keys(self):
        with pytest.raises(ProfileError, match="missing"):
            profile_from_text("n=4\nc=4\n")

    def test_log2_c_only_profile_rejects_series_work(self):
        prof = full_scale_profile(4)
        with pytest.raises(ProfileError, match="log2_c"):
            prof.require_c()

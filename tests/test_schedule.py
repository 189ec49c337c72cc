"""Step-time solvers against exact rational bisection, plus profile checks."""

import math
from fractions import Fraction

import pytest

from hamspec.numerics import (
    from_fraction,
    from_int,
    rdiv,
    taylor_table,
    to_decimal,
    to_hex,
)
from hamspec.schedule import (
    NoRootError,
    PipelineProfile,
    ProfileError,
    _alpha,
    _smallest_root,
    build_schedule,
    desk_profile,
    full_scale_profile,
    profile_from_text,
    profile_to_text,
    solve_schedule,
    solve_r_mu_plus_1,
    solve_r_sp,
    validate_profile,
)
from conftest import (
    bisect_fraction,
    pow2,
    round_nearest_even_fraction,
    rounding_midpoints,
    ruleu_lhs,
    trunc_exp_fraction,
)


def ruleu_fraction(alpha: Fraction, sp: int, n_d: int):
    fact = math.factorial(sp - 1)
    L = n_d - sp + 1

    def g(r: Fraction) -> Fraction:
        return alpha * r ** (sp - 1) / fact * trunc_exp_fraction(-r, L) - 1

    return g


def closing_fraction(beta: Fraction, n_d: int):
    def g(r: Fraction) -> Fraction:
        return beta * r - trunc_exp_fraction(r, n_d)

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

    def test_root_below_two_to_the_minus_p(self):
        # alpha = 2^300 puts the root near 2^-300, far below 2^-p
        p = 128
        got = solve_r_sp(pow2(300, p), 2, 8, p)
        g = ruleu_fraction(Fraction(2) ** 300, 2, 8)
        want = bisect_fraction(g, Fraction(2) ** -301, Fraction(2) ** -299, 200)
        assert got.bits() == round_nearest_even_fraction(want, p)
        below, above = rounding_midpoints(got.to_fraction(), p)
        assert g(below) < 0 < g(above)

    def test_no_root_when_alpha_small(self):
        with pytest.raises(NoRootError, match=r"^step 2: .*alpha = 2\.0+e\+0 "):
            solve_r_sp(from_int(2, 128), 2, 8, 128)

    def test_no_root_when_degree_outgrows_alpha(self):
        # (n_d!/alpha)^(1/n_d) > 1 pushes the root past the unit interval
        alpha = from_fraction(1 / trunc_exp_fraction(Fraction(-16), 64), 256)
        with pytest.raises(NoRootError) as info:
            solve_r_sp(alpha, 13, 12, 256)
        msg = str(info.value)
        assert msg.startswith("step 13: ")
        assert msg.endswith(" is negative on (0, 1]")
        assert f"alpha = {to_decimal(alpha)}" in msg
        assert "too small" not in msg

    def test_bad_step_index(self):
        with pytest.raises(ValueError):
            solve_r_sp(from_int(10, 128), 1, 8, 128)


def two_roundings(p: int) -> Fraction:
    """The relative error bound of 1/q rounded to p bits, q itself being a
    value rounded to p bits: (1 + 2^-p)/(1 - 2^-p) - 1."""
    u = Fraction(2) ** -p
    return 2 * u / (1 - u)


class TestAlphaRounding:
    @pytest.mark.parametrize(
        "p, n_d, n_d1, r_1",
        [(p, 8, 64, 16) for p in (16, 24, 32, 40)] + [(96, 16, 195, 39)],
        ids=["desk-16", "desk-24", "desk-32", "desk-40", "16-195-39-at-96"],
    )
    def test_solves_where_the_decay_cancels_past_p(self, p, n_d, n_d1, r_1):
        # q = tr_{n_d1}(e^-r_1) cancels ~46 bits at the desk key and ~112 at
        # (16, 195, 39), more than p holds; alpha = 1/q is rounded once from
        # the q that is rounded once too, so it is within two roundings of
        # its exact value, and every step solves
        sched = solve_schedule(p, n_d, n_d1, r_1, 2)
        exact = 1 / trunc_exp_fraction(Fraction(-r_1), n_d1)
        assert abs(sched.alpha.to_fraction() - exact) <= two_roundings(p) * exact
        assert len(sched.times) == n_d + 4

    def test_alpha_survives_cancellation(self):
        # tr_512(e^-96) cancels ~277 bits, more than p = 256 holds; rounded
        # once from the exact sum, q and then 1/q each err by at most 2^-p
        p = 256
        exact = 1 / trunc_exp_fraction(Fraction(-96), 512)
        alpha = _alpha(96, 512, p).to_fraction()
        assert abs(alpha - exact) <= two_roundings(p) * exact

    @pytest.mark.parametrize("n_d, n_d1, r_1", [(8, 64, 24), (12, 96, 24)])
    def test_refusal_blames_the_method(self, n_d, n_d1, r_1):
        # alpha is exact to 2^-150 here (21.77 and 2.6489e10), and still
        # a step-time equation has no root: the method fails, and the
        # message is the step's own
        p = 256
        alpha = _alpha(r_1, n_d1, p)
        exact = 1 / trunc_exp_fraction(Fraction(-r_1), n_d1)
        assert abs(alpha.to_fraction() - exact) < Fraction(2) ** -150 * exact
        with pytest.raises(NoRootError) as info:
            solve_schedule(p, n_d, n_d1, r_1, 2)
        msg = str(info.value)
        assert f"with alpha = {to_decimal(alpha)} is negative on (0, 2^-" in msg
        assert "rounding" not in msg

    def test_refusal_claims_only_the_ladder(self):
        # at (12, 96, 24), check-profile --n 4's key with c = 2^40, step
        # 12's P is -0.84 at 1/2 and -1 at 1 but +19.8 at 9/10: the ladder
        # 2^-k misses the root, and the refusal says only what it checked
        p, sp, n_d = 256, 12, 12
        alpha = _alpha(24, 96, p)
        with pytest.raises(NoRootError) as info:
            solve_schedule(p, n_d, 96, 24, 2)
        msg = str(info.value)
        assert msg.startswith(f"step {sp}: ") and "no sign change" not in msg
        assert msg.endswith(" is negative on (0, 2^-1] and at each 2^-k, k < 1")
        g = ruleu_fraction(alpha.to_fraction(), sp, n_d)
        assert g(Fraction(1, 2)) < 0 < g(Fraction(9, 10)) and g(Fraction(1)) < 0


class TestSolveClosing:
    def closing_fraction(self, r_mu: int, n_d: int):
        return closing_fraction(trunc_exp_fraction(Fraction(r_mu), n_d), n_d)

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
        beta = taylor_table(r_mu, n_d, p)[1].to_fraction()
        got = trunc_exp_fraction(r.to_fraction(), n_d) / r.to_fraction()
        assert abs(got - beta) <= Fraction(2) ** -128 * beta

    def test_no_root_when_beta_is_one(self):
        # r_mu = 0: beta = 1 and beta*r < tr(e^r) on all of (0, 1]
        with pytest.raises(NoRootError, match=r"^step 11 \(closing\): .*is negative on \(0, 1\]$"):
            solve_r_mu_plus_1(from_int(0, 128), 8, 128)


# (p_2, n_d, n_d1, r_1, r_mu): the desk key at four precisions, plus r_mu = 3
# and n_d = 6, where rounded-arithmetic solvers missed by up to ~1.5 ulp
ROUNDING_KEYS = [
    (128, 8, 64, 16, 2),
    (192, 8, 64, 16, 2),
    (256, 8, 64, 16, 2),
    (512, 8, 64, 16, 2),
    (256, 8, 64, 16, 3),
    (256, 6, 48, 12, 2),
]

DESK_TIMES_HEX = [
    "0x1p+4",
    "0x1.e355f21c01224a68eb5ef6b6efa015cc744feddcafb78fd19a039feddff5ed44p-24",
    "0x1.f19457b1da58b9dde6ca610b554c0ef2e5b1f3ebb6722c5d54ad160e20de7c58p-12",
    "0x1.20512eacc43e8bd55a2e03a8e1334aff57a3f50751203069dd16d65495d2b91ap-7",
    "0x1.4f83cf2f96ea37a03bbd0497c689141dafca451dc8f95f5cf8dc0b3593d9300ap-5",
    "0x1.bc8257d507d5d7aebef25cee44022d1fb3397a0d1bb5999f256b769450cc716ap-4",
    "0x1.b9767afc4dfef41759f71aa1ce198136f7b6ef8b306711ac83cca9a85bf3720ep-3",
    "0x1.77c2e3710d07af818c7a3f9f53edb9dcd8dc256f3065795375ada4f47d9b4ed6p-2",
    "0x1.04d6928328be0bce0f73528d04ece38bdb6da1457d6b5267b03e61479f6f3b4ap-1",
    "0x1p+1",
    "0x1.44e494acf60055b3fc7871d1c2afe1ba04b74d49c4150c3739f8a76d074c63dep-3",
]


class TestCorrectRounding:
    @pytest.mark.parametrize("key", ROUNDING_KEYS, ids=lambda k: "-".join(map(str, k)))
    def test_every_root_is_correctly_rounded(self, key):
        # each solved time lies within half an ulp of a sign change of the
        # exact equation built from the schedule's own p-bit alpha and beta
        p, n_d = key[0], key[1]
        sched = solve_schedule(*key)
        alpha = sched.alpha.to_fraction()
        for sp in range(2, n_d + 2):
            g = ruleu_fraction(alpha, sp, n_d)
            below, above = rounding_midpoints(sched.times[sp].to_fraction(), p)
            assert g(below) < 0 < g(above), sp
        g = closing_fraction(sched.beta.to_fraction(), n_d)
        below, above = rounding_midpoints(sched.times[n_d + 3].to_fraction(), p)
        assert g(below) < 0 < g(above)

    def test_exact_midpoint_root_ties_to_even(self):
        # roots 7/16 and 5/16 are exact midpoints between 2-bit neighbours:
        # 7/16 ties up to 1/2 (mantissa 0b10), 5/16 down to 1/4 (0b10)
        for root, want in ((Fraction(7, 16), Fraction(1, 2)), (Fraction(5, 16), Fraction(1, 4))):
            got = _smallest_root([-root, Fraction(1)], 2, "test")
            assert got.to_fraction() == want

    def test_desk_schedule_hex_golden(self):
        sched = solve_schedule(256, 8, 64, 16, 2)
        assert [to_hex(t) for t in sched.times[1:]] == DESK_TIMES_HEX
        assert to_hex(sched.alpha) == (
            "0x1.0f2ea08121ec109d59dc565e3435fc0f43ffdcc2f52cd3faedeaa95e8cfa8706p+23"
        )
        assert to_hex(sched.beta) == (
            "0x1.d8c98c98c98c98c98c98c98c98c98c98c98c98c98c98c98c98c98c98c98c98cap+2"
        )


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
        # alpha and beta are the entries steps 1 and n_d+2 read
        n_d, n_d1, p = prof.n_d, prof.n_d1, prof.p_2
        decay = taylor_table(sched.times[1], n_d1, p)[2]
        assert sched.alpha.bits() == rdiv(from_int(1, p), decay, p).bits()
        assert sched.beta.bits() == taylor_table(sched.times[n_d + 2], n_d, p)[1].bits()

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
        build_schedule.cache_clear()
        solve_schedule.cache_clear()
        fresh = build_schedule(desk_profile(4))
        assert fresh is not cached
        assert [t.bits() for t in fresh.times[1:]] == [t.bits() for t in cached.times[1:]]
        assert fresh.alpha.bits() == cached.alpha.bits()
        assert fresh.beta.bits() == cached.beta.bits()

    def test_validation_runs_on_a_cache_hit(self):
        build_schedule(desk_profile(4))
        # same solve key, but c is too small: highfreq_transient_small fails,
        # on every call (validation memoizes passes only)
        for _ in range(2):
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
        assert all(c.passed for c in constraints), [c for c in constraints if not c.passed]

    def test_desk_profile_passes_with_slack(self):
        constraints = validate_profile(desk_profile(4))
        assert all(c.passed for c in constraints)
        by_name = {c.name: c for c in constraints}
        assert by_name["transient_tail_small"].slack > 100
        assert by_name["highfreq_transient_small"].slack > 10

    def test_broken_r1(self):
        constraints = validate_profile(desk_profile(4, r_1=8))
        assert not all(c.passed for c in constraints)
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

    def test_duplicate_key(self):
        # the graph and series formats refuse a repeat too; a second c
        # line used to win silently
        with pytest.raises(ProfileError, match="^line 3: duplicate 'c' line$"):
            profile_from_text("n=4\nc=4\nc=8\n")

    def test_c_and_log2_c_refused(self):
        # log2_c next to c was dropped without a word, in either order
        for text in ("c=4\nlog2_c=2\n", "log2_c=2\nc=4\n"):
            with pytest.raises(ProfileError, match="^line 2: a profile gives c or log2_c, not both$"):
                profile_from_text(text)

    def test_missing_keys(self):
        with pytest.raises(ProfileError, match="missing"):
            profile_from_text("n=4\nc=4\n")

    def test_memo_per_text_and_n_caches_no_error(self):
        text = "n_d=8\nn_d1=64\nr_1=16\nr_mu=2\nc=1024\n"
        assert profile_from_text(text, n=3) is profile_from_text(text, n=3)
        assert profile_from_text(text, n=4).n == 4
        for _ in range(2):
            with pytest.raises(ProfileError, match="needs n"):
                profile_from_text(text)

    def test_log2_c_only_profile_rejects_series_work(self):
        prof = full_scale_profile(4)
        with pytest.raises(ProfileError, match="log2_c"):
            prof.require_c()

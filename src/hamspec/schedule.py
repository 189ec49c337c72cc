"""Filter-step schedule: solve each step's zero-output time, fix the decay
gains, and validate parameter profiles in log2 domain.

A step's output is pinned to zero at its time r_sp. For steps 2..n_d+1 the
times are the smallest positive roots of

    alpha * r^(sp-1)/(sp-1)! * sum_{i=0..n_d-sp+1} (-1)^i r^i/i!  =  1

which makes a constant input propagate with no leftover decay term, given
that step 1 turned the constant k0 into k0 - k0*alpha*e^{-t}. The last two
steps use the configured r_mu and the root of tr(e^r)/r = tr(e^{r_mu}).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .numerics import (
    PrecisionReal,
    from_int,
    pow2,
    rabs,
    radd,
    rcmp,
    rdiv,
    rdiv_int,
    rmul,
    rmul_int,
    rneg,
    rsub,
    truncated_exp,
)

LOG2_E = math.log2(math.e)
MARGIN_BITS = 8.0
BETA_THRESHOLD_LOG2 = 2.0  # beta must exceed 4


class ProfileError(ValueError):
    """Profile fails validation or cannot be used as requested."""


class NoRootError(ArithmeticError):
    """The step-time equation has no root in (0, 1]."""


@dataclass(frozen=True)
class PipelineProfile:
    """Run parameters. r_1, r_mu and c are exact integers; full-scale
    profiles that cannot materialize c carry log2_c instead (validation
    only)."""

    n: int
    n_d: int
    n_d1: int
    r_1: int
    r_mu: int
    c: int = 0
    log2_c: float = 0.0
    p_1: int = 512
    p_2: int = 256

    def log2_scale(self) -> float:
        if self.c:
            return math.log2(self.c)
        return self.log2_c

    def require_c(self) -> int:
        if not self.c:
            raise ProfileError(
                "profile carries only log2_c; an exact integer c is required "
                "to build series (validation-only profile)"
            )
        return self.c


@dataclass(frozen=True)
class Constraint:
    name: str
    passed: bool
    slack: float
    detail: str


@dataclass(frozen=True)
class StepSchedule:
    """times[sp] is the zero-output time of step sp (index 0 unused)."""

    times: tuple
    alpha: PrecisionReal
    beta: PrecisionReal

    @property
    def step_count(self) -> int:
        return len(self.times) - 1


def desk_profile(n: int, **overrides) -> PipelineProfile:
    """Default desk-scale parameters used throughout the test fixtures."""
    params = dict(n=n, n_d=8, n_d1=64, r_1=16, r_mu=2, c=2 ** 40, p_1=512, p_2=256)
    params.update(overrides)
    return PipelineProfile(**params)


def full_scale_profile(n: int) -> PipelineProfile:
    """The full-scale parameter family; c enters only through log2."""
    return PipelineProfile(
        n=n,
        n_d=n ** 10,
        n_d1=n ** 40,
        r_1=n ** 30,
        r_mu=n ** 2,
        c=0,
        log2_c=(n ** 11) * math.log2(n),
        p_1=n ** 60,
        p_2=n ** 50,
    )


# ---------------------------------------------------------------------------
# Profile file format: flat key=value lines
# ---------------------------------------------------------------------------

_PROFILE_KEYS = ("n", "n_d", "n_d1", "r_1", "r_mu", "c", "log2_c", "p_1", "p_2")


def profile_from_text(text: str, n: int | None = None) -> PipelineProfile:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProfileError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PROFILE_KEYS:
            raise ProfileError(f"line {lineno}: unknown profile key {key!r}")
        try:
            values[key] = float(val) if key == "log2_c" else int(val)
        except ValueError:
            raise ProfileError(f"line {lineno}: bad value for {key}: {val!r}")
    if n is not None:
        if "n" in values and values["n"] != n:
            raise ProfileError(
                f"profile n={values['n']} does not match requested n={n}"
            )
        values["n"] = n
    if "n" not in values:
        raise ProfileError("profile needs n (or a graph to take it from)")
    missing = [k for k in ("n_d", "n_d1", "r_1", "r_mu") if k not in values]
    if missing:
        raise ProfileError(f"profile missing keys: {', '.join(missing)}")
    if "c" not in values and "log2_c" not in values:
        raise ProfileError("profile needs c or log2_c")
    return PipelineProfile(**values)


def profile_to_text(profile: PipelineProfile) -> str:
    lines = [
        f"n={profile.n}",
        f"n_d={profile.n_d}",
        f"n_d1={profile.n_d1}",
        f"r_1={profile.r_1}",
        f"r_mu={profile.r_mu}",
    ]
    if profile.c:
        lines.append(f"c={profile.c}")
    else:
        lines.append(f"log2_c={profile.log2_c!r}")
    lines.append(f"p_1={profile.p_1}")
    lines.append(f"p_2={profile.p_2}")
    return "\n".join(lines) + "\n"


def load_profile(path, n: int | None = None) -> PipelineProfile:
    with open(path, "r", encoding="ascii") as fh:
        return profile_from_text(fh.read(), n=n)


# ---------------------------------------------------------------------------
# Validation (log2 domain, so full-scale profiles stay checkable)
# ---------------------------------------------------------------------------


def validate_profile(profile: PipelineProfile) -> list:
    """Evaluate every requirement symbolically; returns Constraint records.

    The tail estimate uses the design relation r_{n_d+1} ~ (1/alpha)^{n_d}
    with alpha ~ e^{r_1}; that is the relation the parameter choices were
    derived from, and it stays computable when n_d is astronomically large.

    The estimate implies a schedule that decreases to a tiny last root.
    The solved times increase instead (the smallest root of step sp's
    equation grows like ((sp-1)!/alpha)^(1/(sp-1))): at the desk profile
    the solved r_{n_d+1} is 0.509, about 55 decades above the estimate
    alpha^-8 ~ 2.6e-56. Whether the paper's own schedule decreases is not
    settled by its abstract, so the design relation is kept as given.
    """
    n, n_d, n_d1, r_1, r_mu = (
        profile.n,
        profile.n_d,
        profile.n_d1,
        profile.r_1,
        profile.r_mu,
    )
    out = []

    def add(name, passed, slack, detail):
        out.append(Constraint(name, bool(passed), float(slack), detail))

    if min(n, n_d, n_d1, r_1, r_mu) < 1 or (not profile.c and profile.log2_c <= 0):
        add("positive", False, 0.0, "all parameters must be positive")
        return out
    add("positive", True, 0.0, "all parameters positive")
    add("n_d1_gt_n_d", n_d1 > n_d, math.log2(n_d1) - math.log2(n_d), f"{n_d1} > {n_d}")
    add("n_d1_gt_r_1", n_d1 > r_1, math.log2(n_d1) - math.log2(r_1), f"{n_d1} > {r_1}")
    add("r_1_gt_n_d", r_1 > n_d, math.log2(r_1) - math.log2(n_d), f"{r_1} > {n_d}")

    log2_n = math.log2(n)
    log2_r_tail = -n_d * r_1 * LOG2_E  # log2 of the designed r_{n_d+1} estimate
    tail = n_d + n * log2_n + log2_r_tail
    add(
        "transient_tail_small",
        tail < -MARGIN_BITS,
        -MARGIN_BITS - tail,
        f"log2(2^n_d n^n r_tail) = {tail:.6g} < {-MARGIN_BITS:.6g}",
    )

    log2_omega = profile.log2_scale()
    lhs = r_mu * LOG2_E + n_d + n * log2_n - 2 * log2_omega
    rhs = -2 * n * log2_n - MARGIN_BITS
    add(
        "highfreq_transient_small",
        lhs < rhs,
        rhs - lhs,
        f"log2(e^r_mu 2^n_d n^n / omega^2) = {lhs:.6g} < {rhs:.6g}",
    )
    add("r_mu_lt_n_d", r_mu < n_d, math.log2(n_d) - math.log2(r_mu), f"{r_mu} < {n_d}")
    log2_beta = r_mu * LOG2_E
    add(
        "beta_large",
        log2_beta > BETA_THRESHOLD_LOG2,
        log2_beta - BETA_THRESHOLD_LOG2,
        f"log2(beta) = {log2_beta:.6g} > {BETA_THRESHOLD_LOG2:.6g}",
    )
    return out


def profile_ok(constraints) -> bool:
    return all(c.passed for c in constraints)


# ---------------------------------------------------------------------------
# Root solving
# ---------------------------------------------------------------------------


def ruleu_lhs(
    alpha: PrecisionReal, r: PrecisionReal, sp: int, n_d: int, p: int
) -> PrecisionReal:
    """alpha * r^(sp-1)/(sp-1)! * sum_{i=0..n_d-sp+1} (-1)^i r^i / i!"""
    power = from_int(1, p)
    for _ in range(sp - 1):
        power = rmul(power, r, p)
    lead = rdiv_int(rmul(alpha, power, p), math.factorial(sp - 1), p)
    return rmul(lead, truncated_exp(rneg(r), n_d - sp + 1, p), p)


def _ruleu_g(alpha, r, sp, n_d, p):
    return rsub(ruleu_lhs(alpha, r, sp, n_d, p), from_int(1, p), p)


def _ruleu_dg(alpha, r, sp, n_d, p):
    """Derivative of the step-time equation residual in r."""
    # d/dr [alpha r^{s-1}/(s-1)! * S(r)] with S(r) = sum (-1)^i r^i/i!
    L = n_d - sp + 1
    S = truncated_exp(rneg(r), L, p)
    dS = rneg(truncated_exp(rneg(r), L - 1, p)) if L >= 1 else from_int(0, p)
    power = from_int(1, p)  # r^{sp-2}
    for _ in range(sp - 2):
        power = rmul(power, r, p)
    lead = rdiv_int(rmul(alpha, power, p), math.factorial(sp - 1), p)
    term1 = rmul(rmul_int(lead, sp - 1, p), S, p)
    term2 = rmul(rmul(lead, r, p), dS, p)
    return radd(term1, term2, p)


def _bisect_newton(g, dg, lo, hi, p: int) -> PrecisionReal:
    """Bisection to ~p/2 bits on a bracketed sign change, then Newton polish."""
    half = pow2(-(p // 2) - 8, p)
    for _ in range(p // 2 + 16):
        width = rsub(hi, lo, p)
        if rcmp(width, rmul(rabs(hi), half, p)) <= 0:
            break
        mid = rdiv_int(radd(lo, hi, p), 2, p)
        if g(mid).sign < 0:
            lo = mid
        else:
            hi = mid
    x = rdiv_int(radd(lo, hi, p), 2, p)
    for _ in range(6):
        gx = g(x)
        dgx = dg(x)
        if dgx.is_zero():
            break
        x = rsub(x, rdiv(gx, dgx, p), p)
    return x


def solve_r_sp(alpha: PrecisionReal, sp: int, n_d: int, p: int) -> PrecisionReal:
    """Smallest positive root of the step-time equation for step sp.

    Brackets the first sign change on an ascending dyadic ladder (the
    residual is -1 at r=0+), bisects, then Newton-polishes.
    """
    if not 2 <= sp <= n_d + 1:
        raise ValueError(f"step index {sp} outside 2..{n_d + 1}")

    def g(r):
        return _ruleu_g(alpha, r, sp, n_d, p)

    def dg(r):
        return _ruleu_dg(alpha, r, sp, n_d, p)

    # start below the smallest root: near r0 ~ ((sp-1)!/alpha)^(1/(sp-1))
    log2_alpha = alpha.log2_magnitude()
    log2_fact = math.log2(math.factorial(sp - 1)) if sp > 1 else 0.0
    j_start = max(0, math.ceil((log2_alpha - log2_fact) / (sp - 1)) + 2)
    guard = 0
    while g(pow2(-j_start, p)).sign >= 0:
        j_start += 4
        guard += 1
        if guard > p:
            raise NoRootError(f"cannot find negative residual near 0 for step {sp}")
    prev = pow2(-j_start, p)
    bracket = None
    for j in range(j_start - 1, -1, -1):
        r = pow2(-j, p)
        if g(r).sign >= 0:
            bracket = (prev, r)
            break
        prev = r
    if bracket is None:
        raise NoRootError(
            f"step-time equation has no root in (0,1] for step {sp} "
            f"(alpha too small for truncation degree {n_d - sp + 1})"
        )
    return _bisect_newton(g, dg, bracket[0], bracket[1], p)


def solve_r_mu_plus_1(r_mu: PrecisionReal, n_d: int, p: int) -> PrecisionReal:
    """Smallest positive root of tr_{n_d}(e^r)/r = tr_{n_d}(e^{r_mu})."""
    beta = truncated_exp(r_mu, n_d, p)

    def g(r):
        # sign convention: negative left of the root
        return rsub(rmul(beta, r, p), truncated_exp(r, n_d, p), p)

    def dg(r):
        return rsub(beta, truncated_exp(r, n_d - 1, p), p)

    if g(from_int(1, p)).sign < 0:
        raise NoRootError("closing equation has no root in (0, 1] (r_mu < 1?)")
    hi = from_int(1, p)
    lo = None
    for j in range(1, p):
        r = pow2(-j, p)
        if g(r).sign >= 0:
            hi = r  # still at or above the smallest root
        else:
            lo = r
            break
    if lo is None:
        lo = pow2(-p, p)
    return _bisect_newton(g, dg, lo, hi, p)


def build_schedule(profile: PipelineProfile) -> StepSchedule:
    """Validate the profile, then return its schedule at precision p_2.

    Validation runs on every call, since it depends on n and c; the solve
    depends only on (p_2, n_d, n_d1, r_1, r_mu) and is shared through
    solve_schedule's cache.
    """
    constraints = validate_profile(profile)
    if not profile_ok(constraints):
        failed = ", ".join(c.name for c in constraints if not c.passed)
        raise ProfileError(f"profile fails validation: {failed}")
    return solve_schedule(profile.p_2, profile.n_d, profile.n_d1, profile.r_1, profile.r_mu)


@functools.lru_cache(maxsize=8)
def solve_schedule(p: int, n_d: int, n_d1: int, r_1: int, r_mu: int) -> StepSchedule:
    """Solve the full schedule at precision p, once per process per key.

    times[1] = r_1; times[2..n_d+1] from the step-time equation with
    alpha = 1/tr_{n_d1}(e^{-r_1}) (the gain step 1 actually realizes);
    times[n_d+2] = r_mu; times[n_d+3] from the closing equation.
    beta = tr_{n_d}(e^{r_mu}). A NoRootError is raised, not cached.
    """
    r_1 = from_int(r_1, p)
    alpha = rdiv(from_int(1, p), truncated_exp(rneg(r_1), n_d1, p), p)
    times = [None, r_1]
    for sp in range(2, n_d + 2):
        times.append(solve_r_sp(alpha, sp, n_d, p))
    r_mu = from_int(r_mu, p)
    times.append(r_mu)
    times.append(solve_r_mu_plus_1(r_mu, n_d, p))
    beta = truncated_exp(r_mu, n_d, p)
    return StepSchedule(times=tuple(times), alpha=alpha, beta=beta)

"""Filter-step schedule: solve each step's zero-output time, fix the decay
gains, and decide whether a parameter profile can run: log2-domain design
checks, then the exact solve.

A step's output is pinned to zero at its time r_sp. For steps 2..n_d+1 the
times are the smallest positive roots of

    alpha * r^(sp-1)/(sp-1)! * sum_{i=0..n_d-sp+1} (-1)^i r^i/i!  =  1

which makes a constant input propagate with no leftover decay term, given
that step 1 turned the constant k0 into k0 - k0*alpha*e^{-t}. The last two
steps use the configured r_mu and the root of tr(e^r)/r = tr(e^{r_mu}).
Every root is the correctly rounded root of its equation, taken with the
schedule's own p-bit alpha and beta, from one exact-integer root finder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .extraction import SingularSystemError, _system
from .filter_pipeline import DegenerateScheduleError, system_columns
from .numerics import (
    PrecisionReal,
    from_int,
    from_ratio,
    rdiv,
    taylor_table,
    to_decimal,
    too_many_digits,
)

LOG2_E = math.log2(math.e)
MARGIN_BITS = 8.0
BETA_THRESHOLD_LOG2 = 2.0  # beta must exceed 4


class ProfileError(ValueError):
    """Profile fails validation or cannot be used as requested."""


class NoRootError(ArithmeticError):
    """A schedule equation has no sign change in (0, 1]."""


@dataclass(frozen=True)
class PipelineProfile:
    """Run parameters. r_1, r_mu and c are exact integers; full-scale
    profiles that cannot materialize c carry log2_c instead (validation
    only). The precisions p_1 and p_2 are refused here, at construction,
    when below one bit; validate_profile checks the design parameters."""

    n: int
    n_d: int
    n_d1: int
    r_1: int
    r_mu: int
    c: int = 0
    log2_c: float = 0.0
    p_1: int = 512
    p_2: int = 256

    def __post_init__(self):
        for key in ("p_1", "p_2"):
            value = getattr(self, key)
            if value < 1:
                raise ProfileError(f"{key}={value}: a precision must be at least 1 bit")

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


@dataclass(frozen=True, eq=False)
class StepSchedule:
    """times[sp] is step sp's zero-output time, sp = 1..n_d+3."""

    times: tuple
    alpha: PrecisionReal
    beta: PrecisionReal

    @property
    def n_d(self) -> int:
        return len(self.times) - 4


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

_PROFILE_KEYS = tuple(f.name for f in fields(PipelineProfile))


@functools.lru_cache(maxsize=64)
def profile_from_text(text: str, n: int | None = None) -> PipelineProfile:
    """The profile a key=value text gives, for the graph's n if one is
    given. Memoized per process on (text, n): the profile is frozen, so
    a run that reads the same file per graph parses it once per n.
    Errors are not cached."""
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
        if key in values:
            raise ProfileError(f"line {lineno}: duplicate {key!r} line")
        if key in ("c", "log2_c") and ("c" in values or "log2_c" in values):
            raise ProfileError(f"line {lineno}: a profile gives c or log2_c, not both")
        try:
            values[key] = float(val) if key == "log2_c" else int(val)
        except ValueError:
            why = key != "log2_c" and too_many_digits(key, val) or f"bad value for {key}: {val!r}"
            raise ProfileError(f"line {lineno}: {why}")
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
    """One key=value line per field, in field order, with c or log2_c,
    whichever the profile carries."""
    skip = "log2_c" if profile.c else "c"
    return "".join(
        f"{key}={getattr(profile, key)!r}\n" for key in _PROFILE_KEYS if key != skip
    )


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

    scale = profile.c or profile.log2_c  # c when set; a nan log2_c fails too
    if min(n, n_d, n_d1, r_1, r_mu) < 1 or not 0 < scale < math.inf:
        add("positive", False, 0.0, "all parameters must be positive and finite")
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
        f"log2(2^n_d n^n r_tail) = {tail:.6g} < {-MARGIN_BITS:.6g}, r_tail = (1/alpha)^n_d "
        f"= 2^{log2_r_tail:.6g}, the design estimate of r_{n_d + 1}",
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


# ---------------------------------------------------------------------------
# Root solving
# ---------------------------------------------------------------------------


def _smallest_root(coeffs, p: int, what: str) -> PrecisionReal:
    """Smallest positive root of P(r) = sum_i coeffs[i] r^i in (0, 1],
    correctly rounded to p bits (nearest-even).

    coeffs are exact Fractions with P(0) < 0; they are scaled to integers,
    so every sign is exact. Below 2^-j with |c_0| > sum_{i>=1} |c_i| 2^-ij,
    P is provably negative; an ascending ladder 2^-j, 2^-(j-1), .., 1 then
    stops at the first point 2^-k with P >= 0, so a sign change lies in
    (2^-(k+1), 2^-k]. Bisection on a growing dyadic grid narrows it to one
    unit of 2^-(k+1+p), i.e. p+1 bits, before the single rounding. Raises
    NoRootError, stating `what`, when no ladder point up to 1 has P >= 0.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    c = [int(x * den) for x in coeffs]
    d = len(c) - 1

    def sign(m: int, e: int) -> int:
        """Sign of P(m / 2^e), by Horner's rule scaled by 2^(e d)."""
        acc = 0
        for i in range(d, -1, -1):
            acc = acc * m + (c[i] << (e * (d - i)))
        return (acc > 0) - (acc < 0)

    j = 0
    while abs(c[0]) << (j * d) <= sum(abs(c[i]) << (j * (d - i)) for i in range(1, d + 1)):
        j += 1
    k = next((k for k in range(j - 1, -1, -1) if sign(1, k) >= 0), None)
    if k is None:
        raise NoRootError(f"{what} has no sign change in (0, 1]")
    # the root lies in (lo, hi] / 2^e; P(lo / 2^e) < 0 <= P(hi / 2^e)
    lo, hi, e = 1, 2, k + 1
    for _ in range(p):
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        mid = lo + 1
        s = sign(mid, e)
        if s == 0:
            return from_ratio(mid, 1 << e, p)
        if s < 0:
            lo = mid
        else:
            hi = mid
    # the root is strictly inside (lo, hi), or it is the ladder point hi
    # itself, where lo = 2^(p+1) - 1 is odd; either way 2 lo + 1 at p+2
    # bits rounds to p bits as the root does
    return from_ratio(2 * lo + 1, 1 << (e + 1), p)


def solve_r_sp(alpha: PrecisionReal, sp: int, n_d: int, p: int) -> PrecisionReal:
    """Smallest positive root of the step-time equation for step sp,

        P(r) = alpha * sum_{i=0..n_d-sp+1} (-1)^i r^(sp-1+i)/((sp-1)! i!) - 1,

    with alpha taken exactly as the p-bit value given; the root is
    correctly rounded to p bits. Raises NoRootError when P has no sign
    change in (0, 1].
    """
    if not 2 <= sp <= n_d + 1:
        raise ValueError(f"step index {sp} outside 2..{n_d + 1}")
    lead = alpha.to_fraction() / math.factorial(sp - 1)
    coeffs = [Fraction(-1)] + [Fraction(0)] * (sp - 2)
    coeffs += [lead * (-1) ** i / math.factorial(i) for i in range(n_d - sp + 2)]
    what = (
        f"step {sp}: P(r) = alpha*r^{sp - 1}/{sp - 1}!*tr_{n_d - sp + 1}(e^-r) - 1 "
        f"with alpha = {to_decimal(alpha)}"
    )
    return _smallest_root(coeffs, p, what)


def solve_r_mu_plus_1(r_mu: PrecisionReal, n_d: int, p: int) -> PrecisionReal:
    """Smallest positive root of tr_{n_d}(e^r)/r = beta, i.e. of

        P(r) = beta * r - sum_{i=0..n_d} r^i/i!,

    with beta = tr_{n_d}(e^{r_mu}) rounded to p bits and then taken
    exactly; the root is correctly rounded to p bits. Raises NoRootError
    when P has no sign change in (0, 1].
    """
    beta = taylor_table(r_mu, n_d, p)[1]
    coeffs = [Fraction(-1), beta.to_fraction() - 1]
    coeffs += [Fraction(-1, math.factorial(i)) for i in range(2, n_d + 1)]
    what = (
        f"step {n_d + 3} (closing): P(r) = beta*r - tr_{n_d}(e^r) "
        f"with beta = {to_decimal(beta)}"
    )
    return _smallest_root(coeffs, p, what)


def profile_constraints(profile: PipelineProfile) -> list:
    """validate_profile's records and, once they all pass, the exact
    `schedule_solved` record: whether solve_schedule finds every step
    time, and the schedule's own system_columns pass the extraction's
    real/determinant check. All of it depends on the profile alone, so a
    missing root, a vanished decay or a singular system fails here, before
    any graph work, never per graph. This decides whether
    a profile can run; build_schedule raises on it and check-profile
    prints it. A profile without an integer c (a validation-only,
    full-scale one) is refused unsolved."""
    constraints = validate_profile(profile)
    if all(c.passed for c in constraints):
        p_2, n_d = profile.p_2, profile.n_d
        passed, detail = False, "not solved: no integer c, so run refuses it"
        if profile.c:
            try:
                sched = solve_schedule(p_2, n_d, profile.n_d1, profile.r_1, profile.r_mu)
                _system(*system_columns(sched, p_2)[1], sched, p_2)
                last = f"r_{n_d + 1} = {to_decimal(sched.times[n_d + 1], 5)}"
                passed, detail = True, f"{n_d + 3} step times at p_2={p_2}, solved {last}"
            except (NoRootError, DegenerateScheduleError, SingularSystemError) as exc:
                detail = str(exc)
        constraints.append(Constraint("schedule_solved", passed, 0.0, detail))
    return constraints


@functools.lru_cache(maxsize=64)
def build_schedule(profile: PipelineProfile) -> StepSchedule:
    """The profile's schedule at precision p_2, or a ProfileError naming
    each profile_constraints check it fails, with its detail. Memoized per
    profile, as validation reads n and c too; the solve is shared per
    (p_2, n_d, n_d1, r_1, r_mu) through solve_schedule. Errors are not cached."""
    failed = [c for c in profile_constraints(profile) if not c.passed]
    if failed:
        why = "; ".join(f"{c.name} ({c.detail})" for c in failed)
        raise ProfileError(f"profile fails validation: {why}")
    return solve_schedule(profile.p_2, profile.n_d, profile.n_d1, profile.r_1, profile.r_mu)


@functools.lru_cache(maxsize=8)
def solve_schedule(p: int, n_d: int, n_d1: int, r_1: int, r_mu: int) -> StepSchedule:
    """Solve the full schedule at precision p, once per process per key.

    times[1] = r_1; times[2..n_d+1] from the step-time equation with
    alpha = 1/tr_{n_d1}(e^{-r_1}) off the taylor_table entry step 1
    divides by (the gain step 1 realizes); times[n_d+2] = r_mu;
    times[n_d+3] from the closing equation. beta = tr_{n_d}(e^{r_mu}) is
    the entry step n_d+2 reads. A NoRootError is raised, not cached; when
    a step-time equation fails, its message says whether the p-bit alpha
    is to blame (_alpha_note). profile_constraints, not the solve, checks
    the two-channel system, so the reference paths take any p's schedule.
    """
    alpha = _alpha(r_1, n_d1, p)
    times = [None, from_int(r_1, p)]
    try:
        times += [solve_r_sp(alpha, sp, n_d, p) for sp in range(2, n_d + 2)]
    except NoRootError as exc:
        raise NoRootError(f"{exc}{_alpha_note(p, n_d, n_d1, r_1)}") from None
    r_mu = from_int(r_mu, p)
    times.append(r_mu)
    times.append(solve_r_mu_plus_1(r_mu, n_d, p))
    beta = taylor_table(r_mu, n_d, p)[1]
    return StepSchedule(times=tuple(times), alpha=alpha, beta=beta)


def _alpha(r_1: int, n_d1: int, p: int) -> PrecisionReal:
    """alpha = 1/tr_{n_d1}(e^{-r_1}) at p bits."""
    return rdiv(from_int(1, p), taylor_table(from_int(r_1, p), n_d1, p)[2], p)


def _alpha_note(p: int, n_d: int, n_d1: int, r_1: int) -> str:
    """On a failed step-time equation: alpha again at a width w that
    carries tr_{n_d1}(e^{-r_1})'s cancellation (terms up to e^{r_1}
    summing to about e^{-r_1}) and its n_d1 roundings. If every step-time
    equation has a root with that alpha, the note says the p-bit rounding
    failed; otherwise the method fails at this key, and it is empty."""
    w = p + 2 * math.ceil(r_1 * LOG2_E) + n_d1.bit_length() + 8
    alpha = _alpha(r_1, n_d1, w)
    try:
        for sp in range(2, n_d + 2):
            solve_r_sp(alpha, sp, n_d, p)
    except NoRootError:
        return ""
    return (
        f"; at {w} bits alpha = {to_decimal(alpha, 5)}, and with it steps 2..{n_d + 1} "
        f"solve: p_2={p} bits cannot hold alpha, the rounding failed"
    )

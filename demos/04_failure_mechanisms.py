"""Two measured mechanisms of desk-scale extraction: the pin that lost k0 to
rounding, and the column geometry the extraction solves against.

(1) Step 1's pin. Non-path walks sit at frequencies ~c*dW, and their
normalized coefficients grow like (c*dW)^k. The paper-literal step 1
(run_pipeline, the pinned reference) evaluates its degree-64 response at
time 16, which swings through terms of ~2^3400, and adds the pin
A*e^{-t} that cancels them. At 256 bits that cancellation leaves k0 to
rounding. The pin is exactly the decay column's input, so it moves only
z1; the production path (run_filter) leaves it out and runs step 1 as
the bare cascade of u_0..u_6. Its k0 is the exact truncated functional
(hamspec.transfer, in rationals) to within a few ulps. That exact value
is ~1e45, not the count 12: what remains is truncation error.

(2) Column geometry. With step 1 pinned, a unit constant leaves step 1 as
1 - alpha*e^{-t}, alpha ~ 8.9e6, nearly -alpha times the decay input, so
the two columns were nearly parallel (sine ~1e-11). Unpinned it leaves as
1 - e^{-t}, and the sine is ~4e-3. Either way the constant column has to
be the cascade's own response to a constant, and the exactly constant
2-path then gives k0 = 2 and z1 = 0 exactly.
"""

import math

from hamspec.extraction import extract_nh
from hamspec.filter_pipeline import run_filter, run_pipeline, run_pseudo_steps, system_columns
from hamspec.graph import Graph
from hamspec.grid import grid_series
from hamspec.numerics import to_decimal
from hamspec.schedule import build_schedule, desk_profile
from hamspec.transfer import exact_k0_z1

FOUR_CLUSTER = Graph(4, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 3)])
P2 = Graph(2, [(1, 2)])


def peak(series):
    return max(max(c.re.log2_magnitude(), c.im.log2_magnitude()) for c in series.coeffs)


def bits_off(got, want):
    """log2 |got - want| / |want| for complex pairs of Fractions."""
    d = (got[0] - want[0]) ** 2 + (got[1] - want[1]) ** 2
    if d == 0:
        return "exact"
    ratio = d / (want[0] ** 2 + want[1] ** 2)  # may exceed a float's range
    return f"2^{(math.log2(ratio.numerator) - math.log2(ratio.denominator)) / 2:.1f}"


print("mechanism 1: step 1's pin, 4-vertex cluster (12 directed paths)")
profile = desk_profile(4)
sched = build_schedule(profile)
phi01, phi11 = run_pseudo_steps(sched, profile)
f = grid_series(FOUR_CLUSTER, profile)
print(f"  encoded series peak: 2^{peak(f):.0f}")
peaks = {}
pinned = run_pipeline(f, sched, profile, dump=lambda sp, s: peaks.__setitem__(sp, peak(s)))
for sp in sorted(peaks):
    print(f"  pinned reference, after step {sp:2d}: peak ~ 2^{peaks[sp]:8.1f}")
exact, _ = exact_k0_z1(FOUR_CLUSTER, profile, sched)
head = grid_series(FOUR_CLUSTER, profile, profile.n_d - 2)
for name, o in (("pinned reference", pinned), ("production", run_filter(head, sched, profile))):
    k0 = extract_nh(o, phi01, phi11, sched, profile.p_2).k0
    print(
        f"  {name:>16} k0 = {to_decimal(k0.re, 6)} + {to_decimal(k0.im, 6)}i, "
        f"off the exact truncated k0 by {bits_off(k0.to_fractions(), exact)}"
    )
print(f"  {'exact truncated':>16} k0 = {float(exact[0]):.6g} + {float(exact[1]):.6g}i")
print("  without the pin, the 256-bit run is the exact truncated functional;")
print("  the count 12 is lost to truncation (degree n_d - 2 = 6), not to rounding")
print()


def sine(a, b):
    """Sine of the angle between two real 2-vectors of Fractions."""
    cross = abs(a[0] * b[1] - a[1] * b[0])
    return float(cross) / math.hypot(*map(float, a)) / math.hypot(*map(float, b))


print("mechanism 2: column geometry, and the exactly constant 2-path")
profile = desk_profile(2)
sched = build_schedule(profile)
alpha = sched.alpha.to_fraction()
(phi00, phi10), (phi01, phi11) = system_columns(sched, profile.p_2)
constant = (phi00.re.to_fraction(), phi10.re.to_fraction())
decay = (phi01.re.to_fraction(), phi11.re.to_fraction())
pinned_col = tuple(c + (1 - alpha) * d for c, d in zip(constant, decay))
print("  constant column (1 - e^-t):        ", *(f"{float(x):.6e}" for x in constant))
print("  decay column (e^-t):               ", *(f"{float(x):.6e}" for x in decay))
print("  pinned step 1's (1 - alpha e^-t):  ", *(f"{float(x):.6e}" for x in pinned_col))
print(f"  alpha = {float(alpha):.6e}")
print(f"  sin(constant, decay)        = {sine(constant, decay):.3e}")
print(f"  sin(pinned constant, decay) = {sine(pinned_col, decay):.3e}")
o = run_filter(grid_series(P2, profile, profile.n_d - 2), sched, profile)
res = extract_nh(o, phi01, phi11, sched, profile.p_2)
print("  2-path, production path: k0 =", to_decimal(res.k0.re, 12), " z1 =", to_decimal(res.z1.re, 12))
print("  (true count: 2; the 2-path's step-1 output is exactly 2*(1 - e^-t))")

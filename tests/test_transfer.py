"""The production path's k0 and z1 against the exact truncated functional.

hamspec.transfer replays the filter in exact rationals on the enumerated
walk spectrum and shares no code with filter_pipeline or grid, so the
difference is the package's rounding error alone.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hamspec import transfer
from hamspec.cli import run_experiment
from hamspec.extraction import extract_nh
from hamspec.filter_pipeline import run_filter, run_pseudo_steps
from hamspec.graph import load_graph
from hamspec.grid import grid_series
from hamspec.schedule import build_schedule, desk_profile, solve_schedule

GRAPHS = Path(__file__).resolve().parents[1] / "graphs"
NAMES = ("p2", "p3", "c4", "k4", "four_cluster", "c5")

# The exact truncated k0 at the desk profile, to five digits.
EXACT_K0 = {
    "p2": ("2.0000e+00", "0"),
    "p3": ("1.3901e+40", "7.5327e+41"),
    "c4": ("1.1420e+45", "0"),
    "k4": ("2.6772e+45", "0"),
    "four_cluster": ("2.0289e+45", "3.3497e+48"),
    "c5": ("1.9633e+50", "-1.2948e+55"),
}


def five_digits(x: Fraction) -> str:
    return f"{float(x):.4e}" if x else "0"


def relative_error_log2(got, want) -> float:
    """log2 |got - want| / |want| for complex pairs of Fractions."""
    d = (got[0] - want[0]) ** 2 + (got[1] - want[1]) ** 2
    return -math.inf if d == 0 else math.log2(d / (want[0] ** 2 + want[1] ** 2)) / 2


@pytest.fixture(scope="module")
def exact():
    t0 = time.perf_counter()
    out = {}
    for name in NAMES:
        g = load_graph(str(GRAPHS / f"{name}.graph"))
        prof = desk_profile(g.n)
        sched = build_schedule(prof)
        out[name] = (g, prof, sched, transfer.exact_k0_z1(g, prof, sched))
    return out, time.perf_counter() - t0


def test_replay_is_fast(exact):
    assert exact[1] < 1.0


def test_functional_shape_at_the_desk_profile(exact):
    # l_0 = 1 (a unit constant is the constant column), m_0 = 0; the
    # weights fall off as 2^-13.55 .. 2^-180.11 with signs + + - + - +
    _, _, sched, _ = exact[0]["p2"]
    l, m = transfer.transfer(sched)
    assert len(l) == len(m) == 7
    assert (l[0], m[0]) == (1, 0)
    assert [x > 0 for x in l[1:]] == [True, True, False, True, False, True]
    assert [round(math.log2(abs(x)), 2) for x in l[1:]] == [
        -13.55, -15.95, -28.11, -46.2, -81.73, -180.11,
    ]


@pytest.mark.parametrize("name", NAMES)
def test_exact_k0_table(exact, name):
    k0, _ = exact[0][name][3]
    assert (five_digits(k0[0]), five_digits(k0[1])) == EXACT_K0[name]


@pytest.mark.parametrize("name", NAMES)
def test_production_k0_and_z1_are_the_exact_functional(exact, name):
    g, prof, sched, (k0, z1) = exact[0][name]
    o = run_filter(grid_series(g, prof, prof.n_d - 2), sched, prof)
    res = extract_nh(o, *run_pseudo_steps(sched, prof), sched, prof.p_2)
    if name == "p2":
        assert (k0, z1) == ((2, 0), (0, 0))
        assert res.k0.to_fractions() == (2, 0) and res.z1.is_zero()
        return
    assert relative_error_log2(res.k0.to_fractions(), k0) < -240
    assert relative_error_log2(res.z1.to_fractions(), z1) < -240


@pytest.mark.parametrize(
    "key", [dict(r_mu=3), dict(n_d=6, n_d1=48, r_1=12)], ids=["r_mu3", "n_d6-n_d1_48-r_1_12"]
)
def test_other_schedule_keys(key):
    for name in ("p2", "four_cluster", "c5"):
        g = load_graph(str(GRAPHS / f"{name}.graph"))
        prof = desk_profile(g.n, **key)
        sched = build_schedule(prof)
        l, _ = transfer.transfer(sched)
        assert len(l) == prof.n_d - 1 and l[0] == 1
        k0, z1 = transfer.exact_k0_z1(g, prof, sched)
        o = run_filter(grid_series(g, prof, prof.n_d - 2), sched, prof)
        res = extract_nh(o, *run_pseudo_steps(sched, prof), sched, prof.p_2)
        assert relative_error_log2(res.k0.to_fractions(), k0) < -240, name
        assert name != "p2" or (k0, z1) == ((2, 0), (0, 0))


@pytest.mark.parametrize("p_2", (128, 160, 192, 256))
def test_k0_error_bar(p_2):
    # k0's error at p_1 = 2 p_2, in units of |Re k0| 2^-p_2. The
    # arithmetic's, against the exact functional on the same schedule, is
    # at most 2^7.4 on the six graphs (2^8.7 when the filter step rounded
    # each operation in turn). With the schedule's rounding too,
    # against a 512-bit schedule, it is 2^38.5, 2^43.0, 2^39.8 and 2^42.4
    # at p_2 = 128, 160, 192 and 256, the same on every graph with k0 != 2
    fine = solve_schedule(512, 8, 64, 16, 2)
    for name in NAMES:
        g = load_graph(str(GRAPHS / f"{name}.graph"))
        prof = desk_profile(g.n, p_1=2 * p_2, p_2=p_2)
        sched = build_schedule(prof)
        o = run_filter(grid_series(g, prof, prof.n_d - 2), sched, prof)
        k0 = extract_nh(o, *run_pseudo_steps(sched, prof), sched, p_2).k0.re.to_fraction()
        for schedule, bits in ((sched, 11), (fine, 45)):
            (want, _), _ = transfer.exact_k0_z1(g, prof, schedule)
            assert abs(k0 - want) <= abs(k0) * Fraction(2) ** (bits - p_2), (name, bits)
        assert name != "p2" or k0 == 2


def test_run_reports_the_production_k0(exact):
    _, prof, _, (k0, _) = exact[0]["c4"]
    report = run_experiment(str(GRAPHS / "c4.graph"), prof)
    assert report.extraction["k0_re"].startswith("1.14202")
    assert report.verdict == "INCONCLUSIVE" and report.extraction["flags"] == "round_distance"
    assert five_digits(k0[0]) == "1.1420e+45"

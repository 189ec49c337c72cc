"""run's and the files path's k0 and z1 against the exact truncated functional.

hamspec.transfer replays the filter in exact rationals on the enumerated
walk spectrum and shares no code with filter_pipeline or grid, so the
difference is the package's rounding error alone: for run's readout, the
plan's p_2-bit constants and one rounding; for encode | filter | extract,
also the p_1-bit moments, the p_2-bit c0, c1 and columns.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hamspec import transfer
from hamspec.cli import run_experiment
from hamspec.extraction import extract_nh, readout
from hamspec.filter_pipeline import run_filter, run_pseudo_steps
from hamspec.graph import load_graph
from hamspec.grid import exact_moments, grid_series
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
    # the files path's k0 (encode | filter | extract) at p_1 = 2 p_2, in
    # units of |Re k0| 2^-p_2, each filter output rounded once from the
    # exact cascade. The arithmetic's error,
    # against the exact functional on the same schedule, is at most 2^7.0,
    # 2^7.5, 2^6.8 and 2^6.3 at p_2 = 128, 160, 192 and 256; with the
    # schedule's rounding too, against a 512-bit schedule, 2^6.9, 2^7.5,
    # 2^6.7 and 2^6.2. Most of it is the p_2-bit columns and inputs seen
    # through the two-channel system, whose column sine is ~2^-7.9
    fine = solve_schedule(512, 8, 64, 16, 2)
    for name in NAMES:
        g = load_graph(str(GRAPHS / f"{name}.graph"))
        prof = desk_profile(g.n, p_1=2 * p_2, p_2=p_2)
        sched = build_schedule(prof)
        o = run_filter(grid_series(g, prof, prof.n_d - 2), sched, prof)
        k0 = extract_nh(o, *run_pseudo_steps(sched, prof), sched, p_2).k0.re.to_fraction()
        for schedule in (sched, fine):
            (want, _), _ = transfer.exact_k0_z1(g, prof, schedule)
            assert abs(k0 - want) <= abs(k0) * Fraction(2) ** (11 - p_2), (name, schedule is fine)
        assert name != "p2" or k0 == 2


def test_k0_error_bar_at_a_second_key():
    # the same 11-bit bound at (n_d, n_d1, r_1) = (12, 140, 28), p_2 = 384,
    # against the exact functional on the same schedule: the arithmetic's
    # worst error over the six graphs is 2^6.4 (C5), and |Re k0| stays
    # below the precision flag's guard
    for name in NAMES:
        g = load_graph(str(GRAPHS / f"{name}.graph"))
        prof = desk_profile(g.n, n_d=12, n_d1=140, r_1=28, p_1=768, p_2=384)
        sched = build_schedule(prof)
        o = run_filter(grid_series(g, prof, prof.n_d - 2), sched, prof)
        res = extract_nh(o, *run_pseudo_steps(sched, prof), sched, prof.p_2)
        k0 = res.k0.re.to_fraction()
        (want, _), _ = transfer.exact_k0_z1(g, prof, sched)
        assert abs(k0 - want) <= abs(k0) * Fraction(2) ** (11 - prof.p_2), name
        assert "precision" not in res.flags, name
        assert name != "p2" or k0 == 2


def run_k0(g, prof, sched):
    """run's extraction result: the readout of the exact moments."""
    return readout(exact_moments(g, prof.n_d - 2), prof.c, sched, prof.p_2)


@pytest.mark.parametrize("p_2", (128, 160, 192, 256))
def test_run_k0_error_bar(p_2):
    # run's k0 is the exact functional of the plan's p_2-bit constants,
    # rounded once. Against the exact functional on the same schedule, in
    # units of |Re k0| 2^-p_2, its worst error over the six graphs is
    # 2^2.38, 2^2.02, 2^2.40 and 2^2.43 at p_2 = 128, 160, 192 and 256
    # (the files path's, test_k0_error_bar, up to 2^7.5); with the
    # schedule's rounding too, against a 512-bit schedule, 2^4.07, 2^2.14,
    # 2^1.63 and 2^3.40
    fine = solve_schedule(512, 8, 64, 16, 2)
    for name in NAMES:
        g = load_graph(str(GRAPHS / f"{name}.graph"))
        prof = desk_profile(g.n, p_1=2 * p_2, p_2=p_2)
        sched = build_schedule(prof)
        k0 = run_k0(g, prof, sched).k0.re.to_fraction()
        for schedule, bits in ((sched, 3), (fine, 5)):
            (want, _), _ = transfer.exact_k0_z1(g, prof, schedule)
            assert abs(k0 - want) <= abs(k0) * Fraction(2) ** (bits - p_2), (name, bits)
        assert name != "p2" or k0 == 2


def test_run_k0_error_bar_at_a_second_key():
    # at (n_d, n_d1, r_1) = (12, 140, 28), p_2 = 384, on the same
    # schedule: the worst error over the six graphs is 2^2.24 (p3)
    for name in NAMES:
        g = load_graph(str(GRAPHS / f"{name}.graph"))
        prof = desk_profile(g.n, n_d=12, n_d1=140, r_1=28, p_1=768, p_2=384)
        sched = build_schedule(prof)
        res = run_k0(g, prof, sched)
        k0 = res.k0.re.to_fraction()
        (want, _), _ = transfer.exact_k0_z1(g, prof, sched)
        assert abs(k0 - want) <= abs(k0) * Fraction(2) ** (3 - prof.p_2), name
        assert "precision" not in res.flags, name
        assert name != "p2" or k0 == 2


def test_run_reports_the_production_k0(exact):
    _, prof, _, (k0, _) = exact[0]["c4"]
    report = run_experiment(str(GRAPHS / "c4.graph"), prof)
    assert report.extraction["k0_re"].startswith("1.14202")
    assert report.verdict == "INCONCLUSIVE" and report.extraction["flags"] == "round_distance"
    assert five_digits(k0[0]) == "1.1420e+45"

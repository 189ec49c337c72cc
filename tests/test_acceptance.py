"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 5b and 7 failed at first, for two different causes (see the
Known results section of the README):

* 5b asserted a strictly decreasing schedule, which no root of the
  step-time equation can give. It now checks the strictly increasing order
  that equation forces; the node ID keeps its original name.
* 7 (forced MATCH on the 2-path) is as first written. It passes since the
  two-channel solve takes its constant column from the cascade's measured
  response to a unit constant, not from a closed form the cascade does
  not realize.
"""

import json
import math
import os
import random
import time
from fractions import Fraction

from hamspec.cli import run_experiment
from hamspec.extraction import extract_nh
from hamspec.filter_pipeline import filter_step, run_pipeline, run_pseudo_steps
from hamspec.graph import hamiltonian_frequency
from hamspec.grid import grid_series
from hamspec.numerics import (
    NormalizedSeries,
    PrecisionComplex,
    cfrom_int,
    const_series,
    from_fraction,
    series_eval,
    series_to_text,
)
from hamspec.schedule import (
    build_schedule,
    desk_profile,
    full_scale_profile,
    validate_profile,
)
from hamspec.walk_oracle import (
    check_visit_pair_uniqueness,
    count_hamiltonian_paths,
    oracle_series,
    walk_spectrum,
)
from conftest import (
    FOUR_CLUSTER,
    complete_graph,
    cycle_graph,
    path_graph,
    ruleu_lhs,
    trunc_exp_fraction,
)

RESULTS_FILE = os.path.join(os.path.dirname(__file__), "..", "results", "claim_experiment.json")


def test_criterion_1_uniqueness_and_path_counts(corpus):
    t0 = time.perf_counter()
    assert len(corpus) >= 30
    for g in corpus:
        ok, witness = check_visit_pair_uniqueness(g)
        assert ok, f"visit-pair collision in {g!r}: {witness}"
        spectrum = walk_spectrum(g)
        assert spectrum.get(hamiltonian_frequency(g), 0) == count_hamiltonian_paths(g)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\ncriterion 1 (uniqueness + path counts, {len(corpus)} graphs, {elapsed:.1f}s): PASS")


def test_criterion_2_grid_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    for g in corpus:
        for c in (1, 4, 64):
            prof = desk_profile(g.n, n_d1=32, p_1=512, c=c)
            got = grid_series(g, prof)
            want = oracle_series(g, c=c, m=32, p=512)
            assert got.bits() == want.bits(), (g, c)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 2 (grid-oracle bit equality, c in 1/4/64, {elapsed:.1f}s): PASS")


def test_criterion_3_filter_ode_property():
    rng = random.Random(20260808)
    p, m = 256, 16
    tol = Fraction(2) ** -128
    for _ in range(100):
        coeffs = [
            PrecisionComplex(
                from_fraction(Fraction(rng.randrange(-(1 << 24), 1 << 24), rng.randrange(1, 1 << 24)), p),
                from_fraction(Fraction(rng.randrange(-(1 << 24), 1 << 24), rng.randrange(1, 1 << 24)), p),
            )
            for _ in range(m + 1)
        ]
        u = NormalizedSeries(coeffs, p)
        r = from_fraction(Fraction(rng.randrange(1, 1 << 20), 1 << 20), p)
        o = filter_step(u, r, m, p)
        max_coeff = max(
            max(abs(c.re.to_fraction()), abs(c.im.to_fraction()))
            for c in list(o.coeffs) + list(u.coeffs)
        )
        bound = tol * max_coeff
        for k in range(m):
            for part in ("re", "im"):
                ok = getattr(o.coeffs[k], part).to_fraction()
                ok1 = getattr(o.coeffs[k + 1], part).to_fraction()
                uk = getattr(u.coeffs[k], part).to_fraction()
                assert abs(ok1 + ok - uk) <= bound
        total = sum(abs(c.re.to_fraction()) + abs(c.im.to_fraction()) for c in o.coeffs)
        v = series_eval(o, r)
        assert abs(v.re.to_fraction()) <= tol * total
        assert abs(v.im.to_fraction()) <= tol * total
    print("criterion 3 (filter ODE property, 100 random inputs): PASS")


def test_criterion_4_constant_input_cycle():
    prof = desk_profile(4)  # n_d=8, n_d1=64, r_1=16
    sched = build_schedule(prof)
    p, n_d = prof.p_2, prof.n_d
    k0 = 5
    j = filter_step(
        const_series(cfrom_int(k0, 0, p), prof.n_d1, p), sched.times[1], prof.n_d1, p
    )
    j = j.truncate(n_d)
    for sp in range(2, n_d + 2):
        j = filter_step(j, sched.times[sp], n_d, p)
    # symbolic target at degree n_d: k0 - k0*alpha*t^n_d e^{-t}/n_d!
    # truncates to constant k0 plus top coefficient -k0*alpha; alpha exact
    alpha = 1 / trunc_exp_fraction(Fraction(-16), prof.n_d1)
    want = [Fraction(k0)] + [Fraction(0)] * (n_d - 1) + [-k0 * alpha]
    scale = k0 * alpha
    tol = Fraction(2) ** -64
    for k, c in enumerate(j.coeffs):
        bound = tol * (abs(want[k]) if want[k] else scale)
        assert abs(c.re.to_fraction() - want[k]) <= bound, k
        assert abs(c.im.to_fraction()) <= bound
    print("criterion 4 (constant-input cycle form): PASS")


def test_criterion_5_schedule_residuals():
    prof = desk_profile(4)
    sched = build_schedule(prof)
    p, n_d = prof.p_2, prof.n_d
    tol = Fraction(2) ** -128
    for sp in range(2, n_d + 2):
        lhs = ruleu_lhs(sched.alpha, sched.times[sp], sp, n_d, p).to_fraction()
        assert abs(lhs - 1) <= tol, sp
    r_last = sched.times[n_d + 3]
    got = trunc_exp_fraction(r_last.to_fraction(), n_d) / r_last.to_fraction()
    beta = sched.beta.to_fraction()
    assert abs(got - beta) <= tol * beta
    print("criterion 5a (schedule residuals): PASS")


def test_criterion_5_schedule_strictly_decreasing():
    """Criterion 5b: the step times are strictly monotone, INCREASING.

    times[2..n_d+1] are the smallest positive roots of
    alpha*r^(sp-1)/(sp-1)! * tr_{n_d-sp+1}(e^{-r}) = 1. Each residual starts
    at -1 at r=0+, and step sp+1's residual is still negative at times[sp]
    (checked here in exact rationals, without the package's arithmetic),
    so step sp+1's first root lies beyond times[sp]. The root grows like
    ((sp-1)!/alpha)^(1/(sp-1)); a decreasing order is impossible.
    """
    prof = desk_profile(4)
    sched = build_schedule(prof)
    n_d = prof.n_d
    times = [t.to_fraction() for t in sched.times[2 : n_d + 2]]
    assert all(a < b for a, b in zip(times, times[1:])), (
        f"solved step times not strictly increasing: {[float(t) for t in times]}"
    )
    alpha = 1 / trunc_exp_fraction(Fraction(-prof.r_1), prof.n_d1)
    for sp in range(2, n_d + 1):
        r = sched.times[sp].to_fraction()
        next_lhs = alpha * r ** sp / math.factorial(sp) * trunc_exp_fraction(-r, n_d - sp)
        assert next_lhs < 1, f"step {sp + 1}'s residual is not negative at times[{sp}]"
    print(
        "criterion 5b (schedule strictly increasing, the order the step-time "
        "equation forces): PASS"
    )


def test_criterion_6_profile_validator():
    for n in (4, 8, 16):
        constraints = validate_profile(full_scale_profile(n))
        assert all(c.passed for c in constraints), [c for c in constraints if not c.passed]
    broken = {
        "r_1_gt_n_d": desk_profile(4, r_1=8),
        "n_d1_gt_n_d": desk_profile(4, n_d1=8),
        "highfreq_transient_small": desk_profile(4, c=2),
        "r_mu_lt_n_d": desk_profile(4, r_mu=8),
        "beta_large": desk_profile(4, r_mu=1),
    }
    for name, prof in broken.items():
        constraints = validate_profile(prof)
        failed = {c.name for c in constraints if not c.passed}
        assert name in failed, (name, failed)
    print("criterion 6 (profile validator, full-scale and broken profiles): PASS")


def test_criterion_7_forced_end_to_end(tmp_path):
    graph_file = tmp_path / "p2.graph"
    graph_file.write_text("n 2\ne 1 2\n")
    report = run_experiment(str(graph_file), desk_profile(2))
    assert report.oracle["n_h_directed"] == 2
    assert report.extraction["n_h_rounded"] == 2 and report.verdict == "MATCH", (
        "measured desk-scale behavior: the two-channel solve assigns the "
        "constant's response to the decay channel (columns nearly parallel), "
        f"yielding n_h_rounded={report.extraction['n_h_rounded']} and verdict "
        f"{report.verdict}; the forced MATCH is unattainable with this "
        "extraction model"
    )
    print("criterion 7 (forced end-to-end on the 2-path): PASS")


def _claim_reports():
    graphs = {
        "four_cluster": FOUR_CLUSTER,
        "p3": path_graph(3),
        "c4": cycle_graph(4),
        "c5": cycle_graph(5),
        "k4": complete_graph(4),
    }
    out = {}
    for name, g in graphs.items():
        path = os.path.join(os.path.dirname(__file__), "_tmp_claim_" + name + ".graph")
        with open(path, "w") as fh:
            fh.write(f"n {g.n}\n" + "".join(f"e {a} {b}\n" for a, b in sorted(g.edges)))
        try:
            report = run_experiment(path, desk_profile(g.n))
        finally:
            os.unlink(path)
        d = report.to_json_dict(timings=False)
        d["graph"]["file"] = name
        out[name] = d
    return out


def test_criterion_8_claim_experiment():
    first = _claim_reports()
    again = _claim_reports()
    third = _claim_reports()
    assert first == again == third, "reports not bit-deterministic"
    assert first["four_cluster"]["oracle"]["n_h_directed"] == 12
    for name, report in first.items():
        assert report["verdict"] in ("MATCH", "MISMATCH", "INCONCLUSIVE")
        for key in ("graph", "profile", "schedule", "oracle", "extraction", "verdict"):
            assert report[key], (name, key)
    with open(RESULTS_FILE) as fh:
        committed = json.load(fh)
    assert committed == first, "fresh reports diverge from the committed record"
    verdicts = {name: r["verdict"] for name, r in first.items()}
    print(f"criterion 8 (claim experiment recorded, outcomes {verdicts}): PASS")


def test_criterion_9_stage_determinism(corpus):
    t0 = time.perf_counter()
    for g in corpus:
        prof = desk_profile(g.n)
        sched = build_schedule(prof)
        texts = []
        for _ in range(3):
            f = grid_series(g, prof)
            o = run_pipeline(f, sched, prof)
            phi01, phi11 = run_pseudo_steps(sched, prof)
            res = extract_nh(o, phi01, phi11, sched, prof.p_2)
            spectrum = walk_spectrum(g)
            texts.append(
                series_to_text(f)
                + series_to_text(o)
                + repr((phi01.bits(), phi11.bits()))
                + repr((res.k0.bits(), res.z1.bits(), res.n_h_rounded))
                + repr(sorted(spectrum.items()))
            )
        assert texts[0] == texts[1] == texts[2], f"nondeterminism on {g!r}"
    print(f"criterion 9 (stage determinism, {time.perf_counter() - t0:.1f}s): PASS")

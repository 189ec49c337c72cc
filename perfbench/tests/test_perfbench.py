"""Tests of the benchmark itself: inputs, checks, digests and replays.

    python3 -m pytest -q perfbench/tests
"""

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import trace_layers  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Expected, GraphInput  # noqa: E402

SEEDS = (1, 2, 3, 17)


def _connected(g: GraphInput) -> bool:
    adj = {v: set() for v in range(1, g.n + 1)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, todo = {1}, [1]
    while todo:
        for u in adj[todo.pop()] - seen:
            seen.add(u)
            todo.append(u)
    return len(seen) == g.n


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_connected(name):
    w = WORKLOADS[name]
    for seed in SEEDS:
        graphs = w.graphs(seed)
        assert graphs == w.graphs(seed)
        assert len({g.name for g in graphs}) == len(graphs)
        for g in graphs:
            assert _connected(g), g
            assert all(a != b and {a, b} <= set(range(1, g.n + 1)) for a, b in g.edges)


def test_seeds_change_inputs_not_shape():
    sweep = WORKLOADS["sweep"]
    a, b = sweep.graphs(1), sweep.graphs(2)
    assert sorted(g.n for g in a) == sorted(g.n for g in b) == sorted(workloads.SWEEP_SIZES)
    assert {g.edges for g in a} != {g.edges for g in b}
    dense = WORKLOADS["dense"].graphs(5)
    assert sorted(g.n for g in dense) == [6, 6, 7, 7, 7, 7]
    assert {"k6", "k7"} <= {g.name for g in dense}
    assert [g.name for g in WORKLOADS["claim"].graphs(4)] != [
        g.name for g in WORKLOADS["claim"].graphs(5)
    ]


@pytest.mark.parametrize(
    "name, n_p, n_h", [("p3", 6, 2), ("c4", 32, 8), ("c5", 80, 10), ("k4", 108, 24)]
)
def test_reference_counts_on_claim_graphs(name, n_p, n_h):
    n, edges = workloads.CLAIM_GRAPHS[name]
    assert workloads.walk_count(n, edges) == n_p
    assert workloads.directed_ham_paths(n, edges) == n_h


def test_reference_counts_agree_with_walk_oracle():
    from hamspec import Graph, count_hamiltonian_paths
    from hamspec.walk_oracle import total_walks

    for g in WORKLOADS["sweep"].graphs(3) + WORKLOADS["dense"].graphs(3)[:2]:
        hg = Graph(g.n, g.edges)
        assert workloads.walk_count(g.n, g.edges) == total_walks(hg)
        assert workloads.directed_ham_paths(g.n, g.edges) == count_hamiltonian_paths(hg)


@pytest.fixture(scope="module")
def claim_setup(tmp_path_factory):
    return harness.set_up(WORKLOADS["claim"], 1, tmp_path_factory.mktemp("claim"))


def _p3(setup):
    i = next(k for k, g in enumerate(setup.graphs) if g.name == "p3")
    rc, text, err = harness.call_run(setup.hamspec, setup.paths[i], setup.profile_path, False)
    assert rc == 0, err
    return i, text


def test_untampered_report_passes(claim_setup):
    i, text = _p3(claim_setup)
    checker = harness.RunChecker(claim_setup.expected)
    for _ in range(2):
        checker.count(i, checker.report_problems(i, 0, text, ""))
    assert (checker.attempted, checker.failed) == (2, 0)


def _tamper(text, edit):
    rep = json.loads(text)
    edit(rep)
    return json.dumps(rep, indent=2) + "\n"


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["oracle"].update(n_p=r["oracle"]["n_p"] + 1),
        lambda r: r["oracle"].update(n_h_directed=0),
        lambda r: r["extraction"].update(k0_re="1"),
        lambda r: r.update(verdict="MATCH"),
        lambda r: r["profile"].update(p_2=128),
        lambda r: r.update(timings_ms={}),
    ],
)
def test_tampered_report_counts_as_failed(claim_setup, edit):
    i, text = _p3(claim_setup)
    checker = harness.RunChecker(claim_setup.expected)
    checker.count(i, checker.report_problems(i, 0, _tamper(text, edit), ""))
    assert (checker.attempted, checker.failed) == (1, 1)


def test_wrong_oracle_count_fails_outside_the_claim_record():
    g = GraphInput("tri", 3, ((1, 2), (1, 3), (2, 3)))
    exp = Expected.for_graph(g, None)
    rep = {
        "graph": {"file": "tri.graph", "n": 3, "edges": 3},
        "profile": dict(workloads.DESK, n=3),
        "oracle": {"n_p": exp.n_p, "n_h_directed": exp.n_h_directed},
        "verdict": "MISMATCH",
    }
    assert workloads.check_report(exp, 0, json.dumps(rep)) == []
    rep["oracle"]["n_h_directed"] += 2
    assert workloads.check_report(exp, 0, json.dumps(rep))


def test_nonzero_exit_and_changed_repeat_fail(claim_setup):
    i, text = _p3(claim_setup)
    checker = harness.RunChecker(claim_setup.expected)
    checker.count(i, checker.report_problems(i, 1, "", "error: boom\n"))
    checker.count(i, checker.report_problems(i, 0, text, ""))
    checker.count(i, checker.report_problems(i, 0, text.replace("\n", "\n "), ""))
    assert (checker.attempted, checker.failed) == (3, 2)
    assert any("boom" in p for p in checker.problems)


def test_digest_depends_on_every_part_and_order():
    base = [("a", "b", "c"), ("d", "e", "f")]
    d = workloads.digest(base)
    assert d == workloads.digest(list(base))
    assert d != workloads.digest(base[::-1])
    assert d != workloads.digest([("a", "b", "c"), ("d", "e", "g")])
    assert workloads.digest([("ab", "", "")]) != workloads.digest([("a", "b", "")])


def test_nearest_rank():
    values = list(range(1, 41))
    assert harness.nearest_rank(values, 75) == (30, 10)
    assert harness.nearest_rank(values, 50) == (20, 20)
    assert harness.nearest_rank([5.0], 75) == (5.0, 0)


def test_host_factor_scales_by_the_mean_reference_time():
    ref = harness.REFERENCE_MS
    assert harness.host_factor(ref, ref) == 1.0
    assert harness.host_factor(1.5 * ref, 2.5 * ref) == 0.5
    assert harness.reference_ms() > 0
    assert gc.isenabled()


def test_tracer_self_time_subtracts_children():
    tr = trace_layers.Tracer()
    with tr.span("outer", "g") as outer:
        with tr.span("inner") as inner:
            pass
    assert inner.parent == 0 and inner.graph == "g"
    self_ms = tr.self_ms()
    total = (outer.end - outer.start) * 1000.0
    assert self_ms["outer"] + self_ms["inner"] == pytest.approx(total)


def test_replays_match_package_bits(claim_setup):
    pkg = claim_setup.hamspec
    g = pkg.Graph(3, [(1, 2), (2, 3)])
    prof = pkg.desk_profile(3)
    sched = pkg.build_schedule(prof)
    f = pkg.grid_series(g, prof)
    o = pkg.run_pipeline(f, sched, prof)
    tr = trace_layers.Tracer()
    assert trace_layers.replay_roots(pkg, tr, sched, prof) == []
    assert trace_layers.replay_steps(pkg, tr, f, o, sched, prof) == []
    names = {s.name for s in tr.spans}
    assert {f"schedule.root.sp{k}" for k in range(2, 10)} <= names
    assert {f"filter_pipeline.step.s{k}" for k in range(1, 12)} <= names

    times = list(sched.times)
    times[4], times[-1] = times[5], times[2]
    wrong = pkg.StepSchedule(tuple(times), sched.alpha, sched.beta)
    assert len(trace_layers.replay_roots(pkg, tr, wrong, prof)) == 2
    other = pkg.run_pipeline(f, wrong, prof)
    assert trace_layers.replay_steps(pkg, tr, f, other, sched, prof)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "claim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_benchmark_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "claim", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 5
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]
    }


def test_a_different_digest_for_the_same_key_is_a_conflict(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.record_digest("build/claim/1", "aa") is None
    assert run.record_digest("build/claim/1", "aa") is None
    assert run.record_digest("build/claim/2", "bb") is None
    assert "differs" in run.record_digest("build/claim/1", "bb")


def test_cold_set_up_runs_in_a_fresh_interpreter(tmp_path):
    seconds = harness.cold_set_up_s(WORKLOADS["dense"], 1, tmp_path)
    assert 0 < seconds < 60
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{g.name}.graph" for g in WORKLOADS["dense"].graphs(1)] + ["workload.profile"]
    )

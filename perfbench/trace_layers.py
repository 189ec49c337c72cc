"""The traced run: spans around the calls into each layer's public functions.

For each graph of a pass the benchmark calls `run` once with timings (for
cli.self_ms), then drives the layers itself under spans:

    pipeline: graph.parse, walk_oracle.oracle, grid.encode, schedule.build,
              filter_pipeline.filter, filter_pipeline.pseudo, extraction.extract
    replay:   grid.intermediate.d<k> (grid_intermediate to each depth; depth
              k costs the difference of successive calls),
              schedule.root.sp<k> / schedule.root.close (solve_r_sp,
              solve_r_mu_plus_1), filter_pipeline.step.s<k> (filter_step)

The replays must equal build_schedule's times and run_pipeline's output bit
for bit, or the run fails. Spans live in memory and are written to the run
record at the end. A layer's time is its span's self time (span minus its
children), averaged per verdict; counts are per pass and computed from the
inputs. The numerics kernels are timed last, on operands taken from the
workload's own encoded series.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from math import factorial

from harness import RunChecker, call_run, output_digest, set_up
from workloads import DESK, check_report, series_mul_calls

DEPTHS = range(1, 6)  # depths every workload reaches; deeper ones are noted
NUMERICS_REPEATS = 5
N_D = DESK["n_d"]  # every workload profile shares it


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    graph: str | None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, graph: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if graph is None and parent is not None:
            graph = self.spans[parent].graph
        rec = Span(name, time.perf_counter(), 0.0, parent, graph)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_ms(self) -> dict:
        """Summed self time in ms per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - c) * 1000.0
        return out


def replay_roots(pkg, tr: Tracer, sched, prof) -> list:
    """Re-solve every schedule root; problems where bits differ."""
    p, n_d = prof.p_2, prof.n_d
    problems = []
    for sp in range(2, n_d + 2):
        with tr.span(f"schedule.root.sp{sp}"):
            r = pkg.schedule.solve_r_sp(sched.alpha, sp, n_d, p)
        if r.bits() != sched.times[sp].bits():
            problems.append(f"solve_r_sp root sp={sp} differs from build_schedule")
    with tr.span("schedule.root.close"):
        r = pkg.schedule.solve_r_mu_plus_1(pkg.numerics.from_int(prof.r_mu, p), n_d, p)
    if r.bits() != sched.times[n_d + 3].bits():
        problems.append("solve_r_mu_plus_1 root differs from build_schedule")
    return problems


def replay_steps(pkg, tr: Tracer, f, o, sched, prof) -> list:
    """Replay the cascade with filter_step; problems where bits differ."""
    p, step = prof.p_2, pkg.filter_pipeline.filter_step
    with tr.span("filter_pipeline.step.s1"):
        j = step(f.reround(p), sched.times[1], prof.n_d1, p)
    j = j.truncate(prof.n_d)
    for sp in range(2, prof.n_d + 4):
        with tr.span(f"filter_pipeline.step.s{sp}"):
            j = step(j, sched.times[sp], prof.n_d, p)
    return [] if j.bits() == o.bits() else ["filter_step replay differs from run_pipeline"]


def traced_verdict(pkg, tr: Tracer, gid: str, path: str, profile_path: str):
    """One graph through the layers under spans; returns (values, problems)."""
    with tr.span("verdict", gid):
        with tr.span("pipeline") as pipe:
            with tr.span("graph.parse"):
                g = pkg.graph.load_graph(path)
            prof = pkg.schedule.load_profile(profile_path, n=g.n)
            with tr.span("walk_oracle.oracle"):
                n_p = pkg.walk_oracle.total_walks(g)
                n_h = pkg.walk_oracle.count_hamiltonian_paths(g)
            with tr.span("grid.encode"):
                f = pkg.grid.grid_series(g, prof)
            with tr.span("schedule.build"):
                sched = pkg.schedule.build_schedule(prof)
            with tr.span("filter_pipeline.filter"):
                o = pkg.filter_pipeline.run_pipeline(f, sched, prof)
            with tr.span("filter_pipeline.pseudo"):
                phi01, phi11 = pkg.filter_pipeline.run_pseudo_steps(sched, prof)
            with tr.span("extraction.extract"):
                try:
                    pkg.extraction.extract_nh(o, phi01, phi11, sched, prof.p_2)
                except pkg.extraction.SingularSystemError:
                    pass  # the report marks it INCONCLUSIVE; not a failure
        depth_s = []
        with tr.span("replay"):
            for d in range(1, g.n + 1):
                with tr.span(f"grid.intermediate.d{d}") as s:
                    pkg.grid.grid_intermediate(g, prof, d)
                depth_s.append(s.end - s.start)
            problems = replay_roots(pkg, tr, sched, prof)
            problems += replay_steps(pkg, tr, f, o, sched, prof)
    # depth k costs the difference between successive grid_intermediate calls
    depth_ms = {
        f"d{d}": (depth_s[d - 1] - (depth_s[d - 2] if d > 1 else 0.0)) * 1000.0
        for d in range(1, g.n + 1)
    }
    pipeline_ms = (pipe.end - pipe.start) * 1000.0
    return {"n_p": n_p, "n_h": n_h, "depth_ms": depth_ms, "pipeline_ms": pipeline_ms}, problems


def _per_call_us(fn, pairs, p) -> float:
    times = []
    for _ in range(NUMERICS_REPEATS):
        t0 = time.perf_counter()
        for a, b in pairs:
            fn(a, b, p)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(pairs) * 1e6


def numerics_kernels(pkg, encoded: list) -> dict:
    """cmul / cadd / series_mul on the workload's encoded coefficients."""
    nm = pkg.numerics
    out = {}
    for p in (512, 2048):
        series = [f.reround(p) for f in encoded]
        pairs = [(s.coeffs[k], s.coeffs[k + 1]) for s in series for k in range(len(s.coeffs) - 1)]
        out[f"numerics.cmul_us.p{p}"] = _per_call_us(nm.cmul, pairs, p)
        if p == 512:
            out["numerics.cadd_us.p512"] = _per_call_us(nm.cadd, pairs, p)
        a, b = series[0], series[-1]
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            nm.series_mul(a, b, a.degree_bound)
            times.append(time.perf_counter() - t0)
        out[f"numerics.series_mul_ms.p{p}"] = statistics.median(times) * 1000.0
    return out


def run_traced(workload, seed: int, seconds: float, work_dir) -> dict:
    """Traced passes until `seconds` have elapsed (at least one)."""
    setup = set_up(workload, seed, work_dir)
    pkg = setup.hamspec
    tr = Tracer()
    checker = RunChecker(setup.expected)
    cli_self, stages_ms, pipeline_ms = [], [], []
    reports = {}
    depth_ms = {}
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, path in enumerate(setup.paths):
            exp = setup.expected[i]
            with tr.span("cli.run", f"{passes}:{exp.graph.name}") as s:
                rc, out, err = call_run(pkg, path, setup.profile_path, True)
            try:
                rep = json.loads(out)
                stages = sum(rep.pop("timings_ms").values())
            except (ValueError, KeyError, AttributeError) as exc:
                problems = [f"report without timings: rc={rc} {exc!r} {err.strip()[-200:]}"]
            else:
                cli_self.append((s.end - s.start) * 1000.0 - stages)
                stages_ms.append(stages)
                problems = check_report(exp, rc, json.dumps(rep))
            if passes == 0:
                rc, reports[i], err = call_run(pkg, path, setup.profile_path, False)
                problems += checker.report_problems(i, rc, reports[i], err)
            try:
                vals, bad = traced_verdict(pkg, tr, s.graph, path, setup.profile_path)
            except Exception as exc:  # a layer raised: the verdict failed
                checker.count(i, problems + [f"layer call raised {exc!r}"])
                continue
            problems += bad
            pipeline_ms.append(vals["pipeline_ms"])
            if (vals["n_p"], vals["n_h"]) != (exp.n_p, exp.n_h_directed):
                problems.append(f"walk_oracle counts {vals['n_p']}, {vals['n_h']}")
            for k, ms in vals["depth_ms"].items():
                depth_ms[k] = depth_ms.get(k, 0.0) + ms
            checker.count(i, problems)
        passes += 1

    verdicts = checker.attempted
    output_bits, encoded = output_digest(pkg, setup, reports)
    totals = tr.self_ms()

    def per_verdict(name):
        return totals.get(name, 0.0) / verdicts

    graphs = setup.graphs
    metrics = {
        "grid.encode_ms": per_verdict("grid.encode"),
        **{f"grid.depth_ms.d{d}": depth_ms.get(f"d{d}", 0.0) / verdicts for d in DEPTHS},
        "grid.series_mul_calls": sum(series_mul_calls(g) for g in graphs),
        **numerics_kernels(pkg, encoded),
        "schedule.build_ms": per_verdict("schedule.build"),
        **{
            f"schedule.root_ms.sp{sp}": per_verdict(f"schedule.root.sp{sp}")
            for sp in range(2, N_D + 2)
        },
        "schedule.root_ms.close": per_verdict("schedule.root.close"),
        "schedule.builds": len(graphs),
        "schedule.useful_ratio": len({g.n for g in graphs}) / len(graphs),
        "filter_pipeline.filter_ms": per_verdict("filter_pipeline.filter"),
        **{
            f"filter_pipeline.step_ms.s{k}": per_verdict(f"filter_pipeline.step.s{k}")
            for k in range(1, N_D + 4)
        },
        "filter_pipeline.pseudo_ms": per_verdict("filter_pipeline.pseudo"),
        "filter_pipeline.cascade_steps": len(graphs) * (N_D + 3),
        "filter_pipeline.pseudo_steps": len(graphs) * (N_D + 2),
        "walk_oracle.oracle_ms": per_verdict("walk_oracle.oracle"),
        "walk_oracle.walks": sum(e.n_p for e in setup.expected),
        "walk_oracle.perms": sum(factorial(g.n) for g in graphs),
        "extraction.extract_ms": per_verdict("extraction.extract"),
        "graph.parse_ms": per_verdict("graph.parse"),
        "cli.self_ms": statistics.mean(cli_self) if cli_self else 0.0,
    }
    notes = [
        f"grid.depth_ms.{k} = {v / verdicts:.6g} ms (only n>{DEPTHS[-1]} graphs reach it)"
        for k, v in sorted(depth_ms.items())
        if int(k[1:]) not in DEPTHS
    ]
    traced = statistics.mean(pipeline_ms) if pipeline_ms else float("nan")
    untraced = statistics.mean(stages_ms) if stages_ms else float("nan")
    notes.append(
        f"tracing overhead = {traced - untraced:.6g} ms/verdict: traced layer calls "
        f"{traced:.6g} ms against the untraced run's own stages {untraced:.6g} ms"
    )
    notes.append(f"{verdicts} traced verdicts in {passes} passes; counts are per pass, computed from the inputs")
    return {
        "metrics": metrics,
        "units": {k: unit_of(k) for k in metrics},
        "notes": notes,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "digest": output_bits,
        "spans": [asdict(s) for s in tr.spans],
    }


def unit_of(name: str) -> str:
    if "_us." in name:
        return "us"
    if "_ms" in name:
        return "ms"
    if name.endswith("useful_ratio"):
        return "ratio"
    return "count"

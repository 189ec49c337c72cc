"""Set-up, the `run` call, output checks and the untraced closed loop.

    python3 perfbench/harness.py WORKLOAD SEED WORK_DIR

runs one set-up in a fresh interpreter and prints its time in seconds.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Expected, check_report, digest, profile_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11

# The host factor. On a shared host the same work takes up to twice as long
# in some phases as in others, phases that last from tens of milliseconds to
# a minute, and CPU time grows with wall time, so nothing inside the process
# tells them apart. A fixed reference kernel timed just before and just after
# each timed step does: the step's time is scaled by REFERENCE_MS over the
# mean of the two reference times, and reads as its time on the host in its
# fast phase. The kernel shares no code with hamspec, so a change to the
# program moves the scaled times in full.
REFERENCE_ITERS = 1500
REFERENCE_MS = 8.0  # reference_ms() in the fast phase of a 2-vCPU x86 host

E2E_UNITS = {
    "graphs_per_s": "1/s",
    "run_ms.p50": "ms",
    "run_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class _Real:
    """A binary floating-point number as hamspec's numerics build one: an
    int mantissa of fixed width and an exponent, in a small Python object."""

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int):
        self.m, self.e = m, e

    def mul(self, o):
        m, e = self.m * o.m, self.e + o.e
        s = m.bit_length() - 256
        return _Real(m >> s, e + s) if s > 0 else _Real(m, e)

    def add(self, o):
        if self.e >= o.e:
            return _Real(self.m + (o.m >> min(300, self.e - o.e)), self.e)
        return _Real(o.m + (self.m >> min(300, o.e - self.e)), o.e)


@dataclass
class Setup:
    hamspec: object  # the package, with its layer modules imported
    graphs: list
    paths: list
    profile_path: str
    expected: list


def set_up(workload, seed: int, work_dir: Path) -> Setup:
    """Everything before the first timed run."""
    pkg = importlib.import_module("hamspec")
    importlib.import_module("hamspec.cli")
    graphs = workload.graphs(seed)
    claim = None
    if workload.name == "claim":
        with open(ROOT / "results" / "claim_experiment.json") as fh:
            claim = json.load(fh)
    work_dir.mkdir(parents=True, exist_ok=True)
    profile_path = work_dir / "workload.profile"
    profile_path.write_text(profile_text())
    paths = []
    for g in graphs:
        path = work_dir / f"{g.name}.graph"
        path.write_text(g.text())
        paths.append(str(path))
    expected = [Expected.for_graph(g, claim) for g in graphs]
    return Setup(pkg, graphs, paths, str(profile_path), expected)


def reference_ms() -> float:
    """Wall time in ms of the reference kernel: the two kinds of work a
    hamspec run is made of, small number objects with methods (256-bit
    _Real) and fixed-point complex products on bare 512-bit ints. Objects it
    makes die at once and the collector is off inside it, so its cost does
    not depend on what the program keeps alive."""
    a, b = _Real((1 << 255) + 12345, -255), _Real((1 << 255) + 999, -256)
    ar, ai = (1 << 511) + 0x1234567, (1 << 510) + 0x7654321
    br, bi = (1 << 511) + 0x2468ACE, (1 << 509) + 0x13579BD
    gc.disable()
    t0 = time.perf_counter()
    try:
        for _ in range(REFERENCE_ITERS):
            c = a.mul(b).add(a)
            a = _Real(c.m | 1, a.e)
            b = _Real(b.mul(c).m | 1, b.e)
            re = (ar * br + ai * bi) >> 512
            im = (ar * bi + ai * br) >> 512
            s = re.bit_length() - 512
            if s >= 0:
                ar, ai = re >> s | 1, im >> s | 1
            else:
                ar, ai = re << -s | 1, im << -s | 1
        return (time.perf_counter() - t0) * 1000.0
    finally:
        gc.enable()


def host_factor(before_ms: float, after_ms: float) -> float:
    """The scale for a step timed between two reference_ms() readings."""
    return 2.0 * REFERENCE_MS / (before_ms + after_ms)


def timed_set_up(workload, seed: int, work_dir: Path):
    """set_up and its wall time in seconds."""
    t0 = time.perf_counter()
    setup = set_up(workload, seed, work_dir)
    return setup, time.perf_counter() - t0


def cold_set_up_s(workload, seed: int, work_dir: Path) -> float:
    """The time of one set-up in a fresh interpreter, where hamspec is not
    imported yet, as before the first timed run of a workload process."""
    proc = subprocess.run(
        [sys.executable, __file__, workload.name, str(seed), str(work_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def call_run(pkg, path: str, profile_path: str, timings: bool):
    """One `run` call through the public entry point: (rc, stdout, stderr).
    rc is None when the call raised; stderr then holds the traceback."""
    argv = ["run", path, "--json", "--profile", profile_path]
    if not timings:
        argv.append("--no-timings")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pkg.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        return None, out.getvalue(), traceback.format_exc()
    return rc, out.getvalue(), err.getvalue()


class RunChecker:
    """Counts attempted and failed runs. A `--no-timings` report must pass
    check_report and equal, byte for byte, the graph's first report."""

    def __init__(self, expected):
        self.expected = expected
        self.first_text = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def report_problems(self, i: int, rc, text: str, err: str) -> list:
        problems = check_report(self.expected[i], rc, text)
        if rc != 0:
            problems.append(err.strip().splitlines()[-1] if err.strip() else "no stderr")
        elif self.first_text.setdefault(i, text) != text:
            problems.append("report differs from this graph's first run")
        return problems

    def count(self, i: int, problems: list):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{self.expected[i].graph.name}: {p}" for p in problems)


def nearest_rank(sorted_values, q: float):
    """Nearest-rank percentile q of sorted values, and the count beyond it."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def output_digest(pkg, setup: Setup, reports: dict):
    """The sha256 of the output bits, over each graph's encoded-series text,
    filtered-series text and `--no-timings` report (reports[i]), and the
    encoded series themselves."""
    parts, encoded, scheds = [], [], {}
    for i, path in enumerate(setup.paths):
        g = pkg.graph.load_graph(path)
        prof = pkg.schedule.load_profile(setup.profile_path, n=g.n)
        if prof not in scheds:
            scheds[prof] = pkg.schedule.build_schedule(prof)
        f = pkg.grid.grid_series(g, prof)
        o = pkg.filter_pipeline.run_pipeline(f, scheds[prof], prof)
        encoded.append(f)
        text = pkg.numerics.series_to_text
        parts.append((text(f), text(o), reports[i]))
    return digest(parts), encoded


def build_id() -> str:
    """Hash of the hamspec and benchmark sources: runs with equal ids ran
    one build on the same inputs."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "hamspec").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def measure(setup: Setup, seconds: float, seed: int, between=()):
    """The untraced closed loop: passes over the graphs, each pass in a
    seeded order, until `seconds` have elapsed and every graph has run once.
    Each run is timed between two reference_ms() readings. Checks run
    between runs, outside the timing, and so do the `between` tasks, one at
    a time at even intervals over the loop. Returns each graph's
    (run ms, host factor) pairs, the first reports and the checker."""
    rng = random.Random(f"order/{seed}")
    checker = RunChecker(setup.expected)
    order = list(range(len(setup.paths)))
    runs = [[] for _ in order]
    reports = {}
    pending = list(between)
    start = time.perf_counter()
    ref = reference_ms()
    while True:
        for i in order:
            elapsed = time.perf_counter() - start
            if len(reports) == len(order) and elapsed >= seconds:
                for task in pending:
                    task()
                return runs, reports, checker
            if pending and elapsed >= seconds * (1 - len(pending) / len(between)):
                pending.pop(0)()
                ref = reference_ms()
            t0 = time.perf_counter()
            rc, out, err = call_run(setup.hamspec, setup.paths[i], setup.profile_path, False)
            ms = (time.perf_counter() - t0) * 1000.0
            after = reference_ms()
            runs[i].append((ms, host_factor(ref, after)))
            ref = after
            checker.count(i, checker.report_problems(i, rc, out, err))
            reports.setdefault(i, out)
        rng.shuffle(order)


def run_untraced(workload, seed: int, seconds: float, work_dir: Path) -> dict:
    before = reference_ms()
    setup, first_s = timed_set_up(workload, seed, work_dir)
    setup_times = [first_s * host_factor(before, reference_ms())]

    def cold_set_up(k: int):
        before = reference_ms()
        seconds = cold_set_up_s(workload, seed, work_dir / f"setup{k}")
        setup_times.append(seconds * host_factor(before, reference_ms()))

    # More cold set-ups, spread over the loop so that their median sees the
    # same host as the run times do.
    cold = [lambda k=k: cold_set_up(k) for k in range(1, SETUP_REPEATS)]
    runs, reports, checker = measure(setup, seconds, seed, cold)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = [[ms * f for ms, f in r] for r in runs]
    raw = [[ms for ms, _ in r] for r in runs]
    factors = sorted(f for r in runs for _, f in r)
    # A pass costs the sum of each graph's median run time, so a host stall
    # during one run does not move the throughput.
    pass_ms = sum(statistics.median(t) for t in scaled)
    ordered = sorted(ms for t in scaled for ms in t)
    tail, beyond = nearest_rank(ordered, workload.tail_percentile)
    raw_ordered = sorted(ms for t in raw for ms in t)
    return {
        "metrics": {
            "graphs_per_s": len(scaled) * 1000.0 / pass_ms,
            "run_ms.p50": statistics.median(ordered),
            "run_ms.tail": tail,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        },
        "units": E2E_UNITS,
        "notes": [
            f"run_ms.tail is p{workload.tail_percentile} of {len(ordered)} runs, "
            f"{beyond} beyond it",
            f"setup_s is the median of {len(setup_times)} cold set-ups, each in a fresh "
            f"interpreter: {min(setup_times):.4g}..{max(setup_times):.4g} s",
            f"host factor {factors[0]:.3g}..{statistics.median(factors):.3g}.."
            f"{factors[-1]:.3g} (min..median..max); unscaled: graphs_per_s "
            f"{len(raw) * 1000.0 / sum(statistics.median(t) for t in raw):.6g} 1/s, "
            f"run_ms.p50 {statistics.median(raw_ordered):.6g} ms, run_ms.tail "
            f"{nearest_rank(raw_ordered, workload.tail_percentile)[0]:.6g} ms",
        ],
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "digest": output_digest(setup.hamspec, setup, reports)[0],
        "run_ms": {g.name: t for g, t in zip(setup.graphs, raw)},
        "host_factor": {g.name: [f for _, f in r] for g, r in zip(setup.graphs, runs)},
        "setup_s": setup_times,
    }


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    name, seed, work_dir = sys.argv[1:]
    print(timed_set_up(WORKLOADS[name], int(seed), Path(work_dir))[1])

"""hamspec benchmark driver.

    python3 perfbench/run.py --workload claim --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                # every workload, in turn

Run from the repository root. Each workload is one single-threaded process
running a closed loop with one client: one graph at a time through
`hamspec.cli.main(["run", <graph>, "--json", "--no-timings", "--profile", ...])`,
in passes over the workload's graphs until --seconds have elapsed.
Every report is checked (claim record, independent walk and path counts,
repeat-run byte equality); a run that exits nonzero, raises or fails a
check counts in `failed`, and failed/attempted is the failed_frac.

--trace 0 prints the end-to-end metrics: graphs_per_s (verdicts per second
of a pass costed at each graph's median run time), run_ms.p50, run_ms.tail
(the workload's fixed percentile, printed with the count of runs beyond
it), setup_s (median of several cold set-ups, each in a fresh interpreter:
import hamspec, generate the seeded graphs, write the graph and profile
files, load the claim record) and peak_rss_mb. Every time in them is scaled
by the host factor measured around it (harness.reference_ms), so that they
read as times on the host in its fast phase; the unscaled figures are
printed beside them and kept in the run record.
--trace 1 runs the traced passes instead (trace_layers.py) and prints the
per-layer metrics. Both record a sha256 digest of the output bits under
.bench_out/, and a run fails if an earlier run of the same build, workload
and seed recorded another. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from harness import ROOT, build_id, run_untraced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".bench_out"


def record_digest(key: str, value: str) -> str | None:
    """Remember the digest under key; return a conflict with an earlier one."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    prev = known.setdefault(key, value)
    if prev != value:
        return f"digest {value} differs from {prev} recorded for {key}"
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "hamspec" / "__init__.py").is_file():
        print(f"error: no hamspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[name]
    work_dir = OUT / f"{name}-{seed}-{os.getpid()}"
    try:
        if trace:
            from trace_layers import run_traced

            res = run_traced(workload, seed, seconds, work_dir)
        else:
            res = run_untraced(workload, seed, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    build = build_id()
    conflict = record_digest(f"{build}/{name}/{seed}", res["digest"])
    if conflict:
        res["problems"].append(conflict)
    record = dict(res, workload=name, seed=seed, seconds=seconds, trace=int(trace), build=build)
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    path = OUT / "records" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for p in res["problems"][:20]:
        print(f"FAIL {p}")
    for key, value in res["metrics"].items():
        print(f"{name} {key} = {value:.6g} {res['units'][key]}")
    for line in res["notes"]:
        print(f"{name} {line}")
    print(f"{name} digest = {res['digest']} (build {build}, seed {seed})")
    attempted, failed = res["attempted"], res["failed"]
    print(f"{name} failed_frac = {failed / attempted:.6g} ({failed}/{attempted} runs)")
    result = {
        "correct": not res["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name} exited {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        status |= not json.loads(lines[-1])["correct"]
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hamspec benchmark driver")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())

"""Experiment harness and command-line interface.

Subcommands: encode, filter, extract, oracle, check-profile, run.
The `run` verdict is data, not a test result: MATCH / MISMATCH /
INCONCLUSIVE all exit 0; only operational failures exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from . import extraction, filter_pipeline, grid, schedule, walk_oracle
from .graph import Graph, load_graph
from .numerics import series_from_text, series_to_text, to_decimal
from .schedule import PipelineProfile, ProfileError, desk_profile

VERDICT_MATCH = "MATCH"
VERDICT_MISMATCH = "MISMATCH"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"
VERDICT_UNVERIFIED = "UNVERIFIED"

PROFILE_HELP = "profile file (key=value lines)"


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunReport:
    graph_file: str
    n: int
    edge_count: int
    profile: PipelineProfile
    schedule_digest: dict
    oracle: dict | None
    extraction: dict
    verdict: str
    timings_ms: dict = field(default_factory=dict)

    def to_json_dict(self, timings: bool = True) -> dict:
        profile = asdict(self.profile)
        del profile["log2_c"]
        d = {
            "graph": {"file": self.graph_file, "n": self.n, "edges": self.edge_count},
            "profile": profile,
            "schedule": self.schedule_digest,
            "oracle": self.oracle,
            "extraction": self.extraction,
            "verdict": self.verdict,
        }
        if timings:
            d["timings_ms"] = self.timings_ms
        return d

    def to_text(self, timings: bool = True) -> str:
        """One `[block] key=value ...` line per block of to_json_dict."""
        d = self.to_json_dict(timings=False)
        lines = []
        for name in ("graph", "profile", "schedule", "oracle", "extraction"):
            if d[name] is None:
                lines.append(f"[{name}] omitted (n above oracle limit)")
            else:
                lines.append(f"[{name}] " + " ".join(f"{k}={v}" for k, v in d[name].items()))
        lines.append(f"[verdict] {self.verdict}")
        if timings:
            lines.append(
                "[timings] " + " ".join(f"{k}={v:.1f}" for k, v in self.timings_ms.items())
            )
        return "\n".join(lines) + "\n"


def _oracle_block(g: Graph, limit: int) -> dict:
    """Exact walk and Hamiltonian path counts, without enumerating either:
    n_p from an adjacency power, the directed count from the bitmask DP."""
    directed = walk_oracle.count_hamiltonian_paths_dp(g, limit)  # refuses n > limit
    return {
        "n_p": walk_oracle.matrix_walk_count(g),
        "n_h_directed": directed,
        "n_h_undirected": directed // 2 if g.n > 1 else 1,
    }


def _extraction_block(result: extraction.ExtractionResult) -> dict:
    return {
        "k0_re": to_decimal(result.k0.re, 25),
        "k0_im": to_decimal(result.k0.im, 25),
        "z1_re": to_decimal(result.z1.re, 25),
        "z1_im": to_decimal(result.z1.im, 25),
        "n_h_rounded": result.n_h_rounded,
        "round_distance": to_decimal(result.round_distance),
        "imag_magnitude": to_decimal(result.imag_magnitude),
        "residual0": to_decimal(result.residual0),
        "residual1": to_decimal(result.residual1),
        "flags": ",".join(result.flags) or "none",
    }


@functools.lru_cache(maxsize=8)
def _schedule_digest(sched: schedule.StepSchedule) -> tuple:
    """The schedule's (name, decimal string) pairs, rendered once per process
    per schedule; each report makes its own dict of them."""
    d = {"alpha": to_decimal(sched.alpha), "beta": to_decimal(sched.beta)}
    for sp in range(1, len(sched.times)):
        d[f"r{sp}"] = to_decimal(sched.times[sp])
    return tuple(d.items())


def _resolve_profile(args, n: int | None) -> PipelineProfile:
    if getattr(args, "profile", None):
        return schedule.load_profile(args.profile, n=n)
    if n is None:
        raise ProfileError("no profile file and no graph to take n from")
    return desk_profile(n)


def _step_dumper(dump_dir: str | None):
    """A run_pipeline dump callback writing step_<sp>.series files into
    dump_dir (created if missing), or None without a directory."""
    if not dump_dir:
        return None
    os.makedirs(dump_dir, exist_ok=True)

    def dump(sp, series):
        with open(os.path.join(dump_dir, f"step_{sp:03d}.series"), "w") as fh:
            fh.write(series_to_text(series))

    return dump


def _write_out(args, text: str) -> None:
    """Write text to the --out file if one was given, else to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_experiment(
    graph_path: str,
    profile: PipelineProfile | Callable[[int], PipelineProfile],
    oracle_limit: int = walk_oracle.DEFAULT_ORACLE_LIMIT,
    dump_dir: str | None = None,
) -> RunReport:
    """validate -> oracle -> encode -> schedule -> filter -> pseudo-steps
    -> extract -> verdict.

    The encoder stops at degree n_d - 2 and the filter is run_filter,
    whose step 1 is unpinned: that is all k0 and z1 read.

    The profile is validated before any series work, so a profile that
    fails a constraint costs neither the oracle nor the encode; the
    schedule stage then only solves.

    `profile` is a profile, or a function from the parsed graph's vertex
    count to one, so that a caller who needs n to choose the profile does
    not parse the file a second time.
    """
    timings = {}

    def staged(stage, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            raise StageError(stage, exc) from exc
        timings[f"{stage}_ms"] = (time.perf_counter() - t0) * 1000.0
        return out

    g = staged("parse", lambda: load_graph(graph_path))
    if callable(profile):
        profile = profile(g.n)
    staged("validate", lambda: schedule.require_valid(profile))

    oracle_block = None
    if g.n <= oracle_limit:
        oracle_block = staged("oracle", lambda: _oracle_block(g, oracle_limit))

    f_series = staged("encode", lambda: grid.grid_series(g, profile, profile.n_d - 2))
    sched = staged(
        "schedule",
        lambda: schedule.solve_schedule(
            profile.p_2, profile.n_d, profile.n_d1, profile.r_1, profile.r_mu
        ),
    )

    dump = _step_dumper(dump_dir)
    o_series = staged(
        "filter", lambda: filter_pipeline.run_filter(f_series, sched, profile, dump=dump)
    )
    phi01, phi11 = staged(
        "pseudo", lambda: filter_pipeline.run_pseudo_steps(sched, profile)
    )

    try:
        result = staged(
            "extract",
            lambda: extraction.extract_nh(o_series, phi01, phi11, sched, profile.p_2),
        )
    except StageError as exc:
        if not isinstance(exc.cause, extraction.SingularSystemError):
            raise
        result = None

    if oracle_block is None:
        verdict = VERDICT_UNVERIFIED
    elif result is None or result.flags:
        verdict = VERDICT_INCONCLUSIVE
    elif result.n_h_rounded == oracle_block["n_h_directed"]:
        verdict = VERDICT_MATCH
    else:
        verdict = VERDICT_MISMATCH

    return RunReport(
        graph_file=os.path.basename(graph_path),
        n=g.n,
        edge_count=g.edge_count(),
        profile=profile,
        schedule_digest=dict(_schedule_digest(sched)),
        oracle=oracle_block,
        extraction={"error": "singular-system"} if result is None else _extraction_block(result),
        verdict=verdict,
        timings_ms=timings,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_encode(args) -> int:
    g = load_graph(args.graph)
    profile = _resolve_profile(args, g.n)
    series = grid.grid_series(g, profile)
    _write_out(args, series_to_text(series))
    return 0


def _cmd_filter(args) -> int:
    with open(args.series) as fh:
        f_series = series_from_text(fh.read())
    profile = _resolve_profile(args, args.n)
    if f_series.degree_bound != profile.n_d1:
        raise StageError(
            "filter",
            ValueError(
                f"input series degree {f_series.degree_bound} != n_d1 {profile.n_d1}: "
                "filter takes an encoded series"
            ),
        )
    sched = schedule.build_schedule(profile)
    out = filter_pipeline.run_filter(f_series, sched, profile, dump=_step_dumper(args.dump_steps))
    _write_out(args, series_to_text(out))
    return 0


def _cmd_extract(args) -> int:
    with open(args.series) as fh:
        o_series = series_from_text(fh.read())
    profile = _resolve_profile(args, args.n)
    expected = (profile.n_d, profile.p_2)
    if (o_series.degree_bound, o_series.precision) != expected:
        raise ValueError(
            f"series has (m, p) = ({o_series.degree_bound}, {o_series.precision}); "
            f"a filtered series has (n_d, p_2) = {expected}"
        )
    sched = schedule.build_schedule(profile)
    phi01, phi11 = filter_pipeline.run_pseudo_steps(sched, profile)
    result = extraction.extract_nh(o_series, phi01, phi11, sched, profile.p_2)
    for k, v in _extraction_block(result).items():
        print(f"{k}={v}")
    return 0


def _cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    for k, v in _oracle_block(g, args.oracle_limit).items():
        print(f"{k}={v}")
    if args.spectrum:
        spectrum = walk_oracle.walk_spectrum(g, args.oracle_limit)
        for wn in sorted(spectrum):
            print(f"{wn} {spectrum[wn]}")
    return 0


def _cmd_check_profile(args) -> int:
    profile = schedule.load_profile(args.profile, n=args.n)
    constraints = schedule.validate_profile(profile)
    ok = schedule.profile_ok(constraints)
    if ok:
        constraints.append(_schedule_constraint(profile))
        ok = constraints[-1].passed
    for c in constraints:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name} slack={c.slack:.6g} ({c.detail})")
    print("profile", "OK" if ok else "INVALID")
    return 0


def _schedule_constraint(profile: PipelineProfile) -> schedule.Constraint:
    """Whether `run` gets past its schedule stage, decided as run decides
    it. A profile without an integer c (a validation-only, full-scale one)
    is refused unsolved, as run's encoder refuses it before the solve."""
    if not profile.c:
        return schedule.Constraint(
            "schedule_solved", False, 0.0, "not solved: no integer c, so run refuses it"
        )
    try:
        schedule.solve_schedule(
            profile.p_2, profile.n_d, profile.n_d1, profile.r_1, profile.r_mu
        )
    except schedule.NoRootError as exc:
        return schedule.Constraint("schedule_solved", False, 0.0, str(exc))
    return schedule.Constraint(
        "schedule_solved", True, 0.0, f"{profile.n_d + 3} step times at p_2={profile.p_2}"
    )


def _cmd_run(args) -> int:
    report = run_experiment(
        args.graph,
        lambda n: _resolve_profile(args, n),
        oracle_limit=args.oracle_limit,
        dump_dir=args.dump_steps,
    )
    timings = not args.no_timings
    if args.json:
        text = json.dumps(report.to_json_dict(timings=timings), indent=2) + "\n"
    else:
        text = report.to_text(timings=timings)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def _add_common(sub):
    sub.add_argument("--profile", help=PROFILE_HELP)
    sub.add_argument("--out", help="write output to this file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="hamspec",
        description="Count Hamiltonian paths by frequency encoding plus filter cascade, "
        "with brute-force oracles for verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="graph file -> encoded series file")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("filter", help="series file -> filtered series file")
    p.add_argument("series")
    p.add_argument("--n", type=int, help="vertex count for the default profile")
    p.add_argument("--dump-steps", help="directory for per-step series dumps")
    _add_common(p)
    p.set_defaults(fn=_cmd_filter)

    p = sub.add_parser("extract", help="filtered series file -> two-channel solve")
    p.add_argument("series", help="filtered output series file")
    p.add_argument("--n", type=int, help="vertex count for the default profile")
    p.add_argument("--profile", help=PROFILE_HELP)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("oracle", help="exact walk and Hamiltonian path counts")
    p.add_argument("graph")
    p.add_argument("--spectrum", action="store_true", help="print the full spectrum")
    p.add_argument("--oracle-limit", type=int, default=walk_oracle.DEFAULT_ORACLE_LIMIT)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("check-profile", help="validate a profile in log2 domain")
    p.add_argument("profile")
    p.add_argument("--n", type=int, help="vertex count override")
    p.set_defaults(fn=_cmd_check_profile)

    p = sub.add_parser("run", help="full experiment with verdict report")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--no-timings", action="store_true", help="omit the timings block")
    p.add_argument("--dump-steps", help="directory for per-step series dumps")
    p.add_argument("--oracle-limit", type=int, default=walk_oracle.DEFAULT_ORACLE_LIMIT)
    _add_common(p)
    p.set_defaults(fn=_cmd_run)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        StageError,
        ValueError,  # GraphParseError and ProfileError among them
        OSError,
        walk_oracle.OracleLimitError,
        filter_pipeline.DegenerateScheduleError,
        schedule.NoRootError,
        extraction.SingularSystemError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

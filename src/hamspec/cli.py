"""Experiment harness and command-line interface.

Subcommands: encode, filter, extract, oracle, check-profile, run.
The `run` verdict is data, not a test result: MATCH / MISMATCH /
INCONCLUSIVE all exit 0, as check-profile's OK / INVALID does; only
operational failures exit nonzero, each raised by a stage as StageError
and printed as `error: [stage] message`. encode, filter, extract and run
refuse at [validate] every profile check-profile calls INVALID.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii

from . import extraction, filter_pipeline, grid, schedule, walk_oracle
from .graph import Graph, load_graph
from .numerics import read_series, series_from_text, series_to_text, to_decimal
from .schedule import PipelineProfile, desk_profile

VERDICT_MATCH = "MATCH"
VERDICT_MISMATCH = "MISMATCH"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"
VERDICT_UNVERIFIED = "UNVERIFIED"

PROFILE_HELP = "profile file (key=value lines)"

# The report's profile block: every field but log2_c, which only
# validation-only profiles carry.
PROFILE_KEYS = tuple(f.name for f in fields(PipelineProfile) if f.name != "log2_c")


class StageError(RuntimeError):
    """`[stage] cause`, the cause's type name standing in for an empty
    text (a bare MemoryError has none)."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {str(cause) or type(cause).__name__}")
        self.stage = stage


@dataclass
class RunReport:
    """A `run` verdict as the blocks it prints, in print order, built once
    by run_experiment; oracle is None above the oracle limit."""

    graph: dict
    profile: dict
    schedule: dict
    oracle: dict | None
    extraction: dict
    verdict: str
    timings_ms: dict

    def to_json_dict(self, timings: bool = True) -> dict:
        d = dict(vars(self))
        if not timings:
            del d["timings_ms"]
        return d

    def to_json(self, timings: bool = True) -> str:
        """json.dumps(self.to_json_dict(timings), indent=2) plus a newline,
        written for the report's shape (blocks that are flat dicts, a
        string or None) without json's pure-Python indent encoder."""
        blocks = []
        for name, block in self.to_json_dict(timings).items():
            if isinstance(block, dict) and block:
                kv = (f"{encode_basestring_ascii(k)}: {_json_scalar(v)}" for k, v in block.items())
                value = "{\n    " + ",\n    ".join(kv) + "\n  }"
            else:
                value = _json_scalar(block)
            blocks.append(f"  {encode_basestring_ascii(name)}: {value}")
        return "{\n" + ",\n".join(blocks) + "\n}\n"

    def to_text(self, timings: bool = True) -> str:
        """One `[block] key=value ...` line per block of to_json_dict."""
        d = vars(self)
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


def _json_scalar(value) -> str:
    """A str, int, float or None (the report holds no bool) as json.dumps
    writes it: strings by json's C encoder, numbers (and an empty
    block's {}) by repr."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return "null" if value is None else repr(value)


def _oracle_block(g: Graph, limit: int) -> dict:
    """Exact walk and Hamiltonian path counts from one inclusion-exclusion
    pass, enumerating neither; refuses n > limit."""
    n_p, directed = walk_oracle.walk_and_path_counts(g, limit)
    return {
        "n_p": n_p,
        "n_h_directed": directed,
        "n_h_undirected": directed // 2 if g.n > 1 else 1,
    }


def _extraction_block(result: extraction.ExtractionResult) -> dict:
    """The report's decimals; the residuals only where the solve formed them."""
    block = {
        "k0_re": to_decimal(result.k0.re, 25),
        "k0_im": to_decimal(result.k0.im, 25),
        "z1_re": to_decimal(result.z1.re, 25),
        "z1_im": to_decimal(result.z1.im, 25),
        "n_h_rounded": result.n_h_rounded,
        "round_distance": to_decimal(result.round_distance),
        "imag_magnitude": to_decimal(result.imag_magnitude),
    }
    if result.residual0 is not None:
        block["residual0"] = to_decimal(result.residual0)
        block["residual1"] = to_decimal(result.residual1)
    block["flags"] = ",".join(result.flags) or "none"
    return block


@functools.lru_cache(maxsize=8)
def _schedule_digest(sched: schedule.StepSchedule) -> tuple:
    """The schedule's (name, decimal string) pairs, rendered once per process
    per schedule; each report makes its own dict of them."""
    d = {"alpha": to_decimal(sched.alpha), "beta": to_decimal(sched.beta)}
    for sp in range(1, len(sched.times)):
        d[f"r{sp}"] = to_decimal(sched.times[sp])
    return tuple(d.items())


def _staged(timings: dict, stage: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), its wall time recorded as timings[f"{stage}_ms"];
    whatever it raises comes out as StageError(stage), the one error main
    reports."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(stage, exc) from exc
    timings[f"{stage}_ms"] = (time.perf_counter() - t0) * 1000.0
    return out


def _validated(profile: PipelineProfile | str | None, n: int) -> tuple:
    """The profile for vertex count n and its schedule. `profile` is a
    PipelineProfile for n, a profile file's path (whose n, if it has one,
    must be n) or None for desk_profile(n). build_schedule refuses every
    profile that check-profile calls INVALID, naming the failed check."""
    if profile is None:
        profile = desk_profile(n)
    elif not isinstance(profile, PipelineProfile):
        profile = schedule.load_profile(profile, n=n)
    elif profile.n != n:
        raise schedule.ProfileError(f"profile n={profile.n} does not match graph n={n}")
    return profile, schedule.build_schedule(profile)


def _printable(result: extraction.ExtractionResult) -> extraction.ExtractionResult:
    """The result, refused when its n_h_rounded is longer than Python
    converts to decimal (sys.get_int_max_str_digits), which both reports
    print."""
    try:
        str(result.n_h_rounded)
    except ValueError:
        raise ValueError(
            f"n_h_rounded, k0_re = {to_decimal(result.k0.re, 5)} rounded, has more than "
            f"{sys.get_int_max_str_digits()} decimal digits, too many to print"
        ) from None
    return result


def _extract(o_series, sched: schedule.StepSchedule, profile: PipelineProfile):
    """The pseudo-steps' columns, off the memoized exact rows, then the solve."""
    phi01, phi11 = filter_pipeline.run_pseudo_steps(sched, profile)
    return _printable(extraction.extract_nh(o_series, phi01, phi11, sched, profile.p_2))


def _encode_key(profile: PipelineProfile) -> dict:
    """The header fields `encode` writes on its output and `filter`
    expects beyond (m, p) = (n_d1, p_1): the vertex count and the scale."""
    return {"n": profile.n, "c": profile.c}


def _schedule_key(profile: PipelineProfile) -> dict:
    """The header fields `filter` writes on its output and `extract`
    expects beyond (m, p) = (n_d, p_2): the vertex count and schedule key."""
    return {"n": profile.n, "n_d1": profile.n_d1, "r_1": profile.r_1, "r_mu": profile.r_mu}


def _write_out(args, text: str) -> None:
    """Write text to the --out file if one was given, else to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_experiment(
    graph_path: str,
    profile: PipelineProfile | str | None,
    oracle_limit: int = walk_oracle.DEFAULT_ORACLE_LIMIT,
) -> RunReport:
    """parse -> validate -> oracle -> encode -> extract -> verdict, each
    stage timed, and its failure raised as StageError.

    validate refuses every profile that check-profile calls INVALID, the
    schedule solve and its system check included, before any series
    work, and returns the schedule. encode computes the exact moments
    S_0..S_{n_d-2}, all that k0 and z1 read, and rounds nothing. extract
    reads k0 and z1 off them as one exact functional of the schedule,
    the filter and the solve composed once per (schedule, p_2, c), each
    part rounded once (extraction.readout); it forms no c0 and c1, so
    the report has no residuals. encode | filter | extract rounds the
    moments, c0 and c1 and the columns on the way to the same k0.

    `profile` is a profile, a profile file's path, or None for the desk
    profile; validate reads or makes the last two for the graph's n.
    """
    timings = {}
    g = _staged(timings, "parse", load_graph, graph_path)
    profile, sched = _staged(timings, "validate", _validated, profile, g.n)

    oracle_block = None
    if g.n <= oracle_limit:
        oracle_block = _staged(timings, "oracle", _oracle_block, g, oracle_limit)

    moments = _staged(timings, "encode", grid.exact_moments, g, profile.n_d - 2)
    result = _staged(
        timings, "extract",
        lambda: _printable(extraction.readout(moments, profile.c, sched, profile.p_2)),
    )

    if oracle_block is None:
        verdict = VERDICT_UNVERIFIED
    elif result.flags:
        verdict = VERDICT_INCONCLUSIVE
    elif result.n_h_rounded == oracle_block["n_h_directed"]:
        verdict = VERDICT_MATCH
    else:
        verdict = VERDICT_MISMATCH

    return RunReport(
        graph={"file": os.path.basename(graph_path), "n": g.n, "edges": g.edge_count()},
        profile={k: getattr(profile, k) for k in PROFILE_KEYS},
        schedule=dict(_schedule_digest(sched)),
        oracle=oracle_block,
        extraction=_extraction_block(result),
        verdict=verdict,
        timings_ms=timings,
    )


# ---------------------------------------------------------------------------
# Subcommands: all work runs in stages, so every failure is a StageError
# ---------------------------------------------------------------------------


def _cmd_encode(args) -> int:
    g = _staged({}, "parse", load_graph, args.graph)
    profile, _ = _staged({}, "validate", _validated, args.profile, g.n)
    text = _staged(
        {}, "encode", lambda: series_to_text(grid.grid_series(g, profile), **_encode_key(profile))
    )
    _staged({}, "write", _write_out, args, text)
    return 0


def _cmd_filter(args) -> int:
    text, head = _staged({}, "parse", read_series, args.series, "n")
    profile, sched = _staged({}, "validate", _validated, args.profile, head["n"])
    key = _encode_key(profile)
    f_series = _staged({}, "parse", series_from_text, text, m=profile.n_d1, p=profile.p_1, **key)

    def dump(sp, series):  # a directory that cannot be made fails the filter stage
        os.makedirs(args.dump_steps, exist_ok=True)
        with open(os.path.join(args.dump_steps, f"step_{sp:03d}.series"), "w") as fh:
            fh.write(series_to_text(series))

    dump = dump if args.dump_steps else None
    out = _staged({}, "filter", filter_pipeline.run_filter, f_series, sched, profile, dump)
    text = series_to_text(out, **_schedule_key(profile))
    _staged({}, "write", _write_out, args, text)
    return 0


def _cmd_extract(args) -> int:
    text, head = _staged({}, "parse", read_series, args.series, "n")
    profile, sched = _staged({}, "validate", _validated, args.profile, head["n"])
    key = _schedule_key(profile)
    o_series = _staged({}, "parse", series_from_text, text, m=profile.n_d, p=profile.p_2, **key)
    result = _staged({}, "extract", _extract, o_series, sched, profile)
    for k, v in _extraction_block(result).items():
        print(f"{k}={v}")
    return 0


def _cmd_oracle(args) -> int:
    g = _staged({}, "parse", load_graph, args.graph)
    for k, v in _staged({}, "oracle", _oracle_block, g, args.oracle_limit).items():
        print(f"{k}={v}")
    if args.spectrum:
        spectrum = _staged({}, "oracle", walk_oracle.walk_spectrum, g, args.oracle_limit)
        for wn in sorted(spectrum):
            print(f"{wn} {spectrum[wn]}")
    return 0


def _cmd_check_profile(args) -> int:
    profile = _staged({}, "validate", schedule.load_profile, args.profile, args.n)
    constraints = _staged({}, "validate", schedule.profile_constraints, profile)
    for c in constraints:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name} slack={c.slack:.6g} ({c.detail})")
    print("profile", "OK" if all(c.passed for c in constraints) else "INVALID")
    return 0


def _cmd_run(args) -> int:
    report = run_experiment(args.graph, args.profile, oracle_limit=args.oracle_limit)
    timings = not args.no_timings
    if args.json:
        text = report.to_json(timings=timings)
    else:
        text = report.to_text(timings=timings)
    if args.out:  # before stdout, so that a failed write prints no report
        _staged({}, "write", _write_out, args, text)
    sys.stdout.write(text)
    return 0


def _add_common(sub):
    sub.add_argument("--profile", help=PROFILE_HELP)
    sub.add_argument("--out", help="write output to this file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; its `subcommands`
    maps each command to the command's own parser."""
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

    p = sub.add_parser("filter", help="encoded series file -> cascade output series file")
    p.add_argument("series")
    p.add_argument("--dump-steps", help="directory for per-step series dumps")
    _add_common(p)
    p.set_defaults(fn=_cmd_filter)

    p = sub.add_parser("extract", help="cascade output series file -> two-channel solve")
    p.add_argument("series", help="the series file filter wrote")
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
    p.add_argument("--oracle-limit", type=int, default=walk_oracle.DEFAULT_ORACLE_LIMIT)
    _add_common(p)
    p.set_defaults(fn=_cmd_run)
    ap.subcommands = sub.choices
    return ap


def parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv) in about half the time for a known
    command. The full parser hands all after the command to the command's
    own parser (its help and errors included), then refuses leftovers; so
    a known command goes to its parser directly, and only leftovers, an
    unknown command, a leading `-h` and an empty argv take the full one,
    whose usage and error texts stay `hamspec`'s."""
    ap = build_parser()
    sub = ap.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

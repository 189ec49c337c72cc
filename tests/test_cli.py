"""Command surface: every subcommand, file flows, exit codes, determinism."""

import hashlib
import json
import re
import shlex
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from hamspec import cli, grid, schedule, walk_oracle
from hamspec.cli import build_parser, main, run_experiment
from hamspec.graph import load_graph
from hamspec.numerics import load_series, series_to_text
from hamspec.schedule import desk_profile, full_scale_profile, profile_to_text
from conftest import complete_graph, integrator_cascade

P2 = "n 2\ne 1 2\n"
FOUR_CLUSTER = "n 4\ne 1 2\ne 1 3\ne 2 3\ne 1 4\ne 4 3\n"
README = Path(__file__).resolve().parents[1] / "README.md"
GRAPHS = Path(__file__).resolve().parents[1] / "graphs"
DESK = Path(__file__).resolve().parents[1] / "profiles" / "desk.profile"


@pytest.fixture
def files(tmp_path):
    g2 = tmp_path / "p2.graph"
    g2.write_text(P2)
    g4 = tmp_path / "four.graph"
    g4.write_text(FOUR_CLUSTER)
    prof = tmp_path / "desk.profile"
    prof.write_text(profile_to_text(desk_profile(4)).replace("n=4\n", ""))
    return tmp_path, g2, g4, prof


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEncode:
    def test_writes_series_file(self, files, capsys):
        tmp, g2, _, prof = files
        out = tmp / "p2.series"
        code, _, _ = run_cli(capsys, "encode", str(g2), "--profile", str(prof), "--out", str(out))
        assert code == 0
        # the header records the graph's n and the profile's c after (m, p)
        assert out.read_text().startswith("series m=64 p=512 n=2 c=1099511627776\n")
        series = load_series(out, m=64, p=512, n=2, c=2 ** 40)
        assert series.degree_bound == 64
        assert series.coeffs[0].re.to_fraction() == 2

    def test_stdout_default(self, files, capsys):
        _, g2, _, prof = files
        code, stdout, _ = run_cli(capsys, "encode", str(g2), "--profile", str(prof))
        assert code == 0
        assert stdout.startswith("series m=64 p=512")


class TestFilterPseudoExtract:
    def test_pipeline_through_files(self, files, capsys):
        tmp, g2, _, prof = files
        enc = tmp / "f.series"
        flt = tmp / "o.series"
        assert run_cli(capsys, "encode", str(g2), "--profile", str(prof), "--out", str(enc))[0] == 0
        assert run_cli(capsys, "filter", str(enc), "--profile", str(prof), "--out", str(flt))[0] == 0
        code, stdout, _ = run_cli(capsys, "extract", str(flt), "--profile", str(prof))
        assert code == 0
        fields = dict(line.split("=", 1) for line in stdout.strip().splitlines())
        assert fields["n_h_rounded"] == "2"
        assert fields["flags"] == "none"

    @pytest.mark.parametrize("name", sorted(p.stem for p in GRAPHS.glob("*.graph")))
    def test_extract_prints_the_run_extraction_block(self, tmp_path, capsys, name):
        # encode -> filter -> extract through files is run's own path: the
        # filter reads the head of the degree-n_d1 encoded series that run
        # encodes at degree n_d - 2. Graphs with non-path walks have z1 != 0,
        # so a wrong decay column shows; on the 2-path z1 = 0
        graph = GRAPHS / f"{name}.graph"
        enc, flt = tmp_path / "f.series", tmp_path / "o.series"
        assert run_cli(capsys, "encode", str(graph), "--out", str(enc))[0] == 0
        assert run_cli(capsys, "filter", str(enc), "--out", str(flt))[0] == 0
        code, stdout, _ = run_cli(capsys, "extract", str(flt))
        assert code == 0
        report = json.loads(run_cli(capsys, "run", str(graph), "--json", "--no-timings")[1])
        assert stdout.splitlines() == [f"{k}={v}" for k, v in report["extraction"].items()]

    def test_dump_steps(self, files, capsys):
        tmp, g2, _, prof = files
        enc = tmp / "f.series"
        run_cli(capsys, "encode", str(g2), "--profile", str(prof), "--out", str(enc))
        dump = tmp / "steps"
        code, _, _ = run_cli(
            capsys, "filter", str(enc), "--profile", str(prof),
            "--out", str(tmp / "o.series"), "--dump-steps", str(dump),
        )
        assert code == 0
        names = sorted(f.name for f in dump.iterdir())
        assert names[0] == "step_001.series" and len(names) == 11

    def test_dump_steps_writes_step_one_in_full(self, tmp_path, capsys):
        # step 1 is the bare cascade of u_0..u_{n_d-2}: its full output is
        # the n_d coefficients 0..n_d-1 that step 2 reads, with no pin
        enc, flt, dump = tmp_path / "f.series", tmp_path / "o.series", tmp_path / "steps"
        assert run_cli(capsys, "encode", str(GRAPHS / "c5.graph"), "--out", str(enc))[0] == 0
        code, _, _ = run_cli(capsys, "filter", str(enc), "--out", str(flt), "--dump-steps", str(dump))
        assert code == 0
        text = (dump / "step_001.series").read_text()
        prof = desk_profile(5)
        assert len(text.splitlines()) == 1 + prof.n_d
        f = load_series(enc).reround(prof.p_2)
        assert text == series_to_text(integrator_cascade(f, prof.n_d - 1))
        # the filtered file adds n and the schedule key to the last step's header
        last = load_series(dump / "step_011.series")
        assert flt.read_text() == series_to_text(last, n=5, n_d1=64, r_1=16, r_mu=2)

    @pytest.mark.parametrize("command", ["filter", "extract"])
    def test_the_input_header_gives_n(self, tmp_path, capsys, command):
        # filter and extract take n from their input's header: one without
        # n is refused at [parse], naming it, and one whose n is not the
        # profile file's at [validate]; C5's series is no n = 4 input
        enc, flt = tmp_path / "f.series", tmp_path / "o.series"
        assert run_cli(capsys, "encode", str(GRAPHS / "c5.graph"), "--out", str(enc))[0] == 0
        assert run_cli(capsys, "filter", str(enc), "--out", str(flt))[0] == 0
        assert flt.read_text().startswith("series m=8 p=256 n=5 n_d1=64 r_1=16 r_mu=2\n")
        series = {"filter": enc, "extract": flt}[command]
        n4 = tmp_path / "n4.profile"
        n4.write_text(profile_to_text(desk_profile(4)))
        code, stdout, err = run_cli(capsys, command, str(series), "--profile", str(n4))
        assert code == 1 and stdout == ""
        assert err == "error: [validate] profile n=4 does not match requested n=5\n"
        head, body = series.read_text().split("\n", 1)
        series.write_text(head.replace(" n=5", "") + "\n" + body)
        code, stdout, err = run_cli(capsys, command, str(series))
        assert code == 1 and stdout == ""
        assert err == "error: [parse] series header has no n\n"

    def test_filter_refuses_a_series_below_the_encoded_degree(self, tmp_path, capsys):
        # the file contract is the encoder's degree n_d1; run's own shorter
        # encode (degree n_d - 2) is not a filter input
        enc = tmp_path / "f.series"
        assert run_cli(capsys, "encode", str(GRAPHS / "c4.graph"), "--out", str(enc))[0] == 0
        head = grid.grid_series(load_graph(str(GRAPHS / "c4.graph")), desk_profile(4), 6)
        enc.write_text(series_to_text(head, n=4))
        code, stdout, err = run_cli(capsys, "filter", str(enc))
        assert code == 1 and stdout == ""
        assert err == "error: [parse] series header has m=6, expected m=64\n"

    def test_filter_refuses_a_series_encoded_under_another_c_or_p(self, tmp_path, capsys):
        # C4 encoded with c = 2^30 is not the desk profile's input (c = 2^40):
        # filtered and extracted anyway, it printed k0_re=1.0387e33, exit 0
        enc, c30 = tmp_path / "f.series", tmp_path / "c30.profile"
        c30.write_text(profile_to_text(desk_profile(4, c=2 ** 30)))
        c4 = str(GRAPHS / "c4.graph")
        assert run_cli(capsys, "encode", c4, "--profile", str(c30), "--out", str(enc))[0] == 0
        assert enc.read_text().startswith("series m=64 p=512 n=4 c=1073741824\n")
        code, stdout, err = run_cli(capsys, "filter", str(enc))
        assert code == 1 and stdout == ""
        assert err == "error: [parse] series header has c=1073741824, expected c=1099511627776\n"
        # a series whose header records no c is refused too
        text = enc.read_text()
        enc.write_text(series_to_text(load_series(enc), n=4))
        code, stdout, err = run_cli(capsys, "filter", str(enc), "--profile", str(c30))
        assert code == 1 and stdout == ""
        assert err == "error: [parse] series header has no c, expected c=1073741824\n"
        # and one whose header records a key filter does not expect
        enc.write_text(series_to_text(load_series(enc), n=4, c=2 ** 30, r_mu=2))
        code, stdout, err = run_cli(capsys, "filter", str(enc), "--profile", str(c30))
        assert code == 1 and stdout == ""
        assert err == "error: [parse] series header has r_mu=2, expected no r_mu\n"
        # and one at another p_1
        p1 = tmp_path / "p1.profile"
        p1.write_text(profile_to_text(desk_profile(4, c=2 ** 30, p_1=384)))
        enc.write_text(text)
        code, stdout, err = run_cli(capsys, "filter", str(enc), "--profile", str(p1))
        assert code == 1 and stdout == ""
        assert err == "error: [parse] series header has p=512, expected p=384\n"
        assert run_cli(capsys, "filter", str(enc), "--profile", str(c30))[0] == 0

    def test_extract_rejects_unfiltered_series(self, files, capsys):
        tmp, g2, _, prof = files
        enc = tmp / "f.series"
        run_cli(capsys, "encode", str(g2), "--profile", str(prof), "--out", str(enc))
        code, stdout, err = run_cli(capsys, "extract", str(enc), "--profile", str(prof))
        assert code == 1 and stdout == ""
        assert err == "error: [parse] series header has m=64, expected m=8\n"

    def test_extract_refuses_a_series_filtered_under_another_profile(self, tmp_path, capsys):
        # (m, p) = (n_d, p_2) agree; only the header's schedule key tells
        # that this series was filtered with r_mu = 3
        enc, flt = tmp_path / "f.series", tmp_path / "o.series"
        r_mu3 = tmp_path / "r_mu3.profile"
        r_mu3.write_text(profile_to_text(desk_profile(4, r_mu=3)))
        assert run_cli(capsys, "encode", str(GRAPHS / "c4.graph"), "--out", str(enc))[0] == 0
        assert run_cli(capsys, "filter", str(enc), "--profile", str(r_mu3), "--out", str(flt))[0] == 0
        code, stdout, err = run_cli(capsys, "extract", str(flt))
        assert code == 1 and stdout == ""
        assert err == "error: [parse] series header has r_mu=3, expected r_mu=2\n"
        # a series whose header records no key is refused too
        flt.write_text(series_to_text(load_series(flt), n=4))
        code, stdout, err = run_cli(capsys, "extract", str(flt))
        assert code == 1 and stdout == ""
        assert err == "error: [parse] series header has no n_d1, expected n_d1=64\n"

    def test_filter_reads_a_series_after_a_leading_blank_line(self, tmp_path, capsys):
        # blank lines carry nothing: the header is the first line with text
        enc, flt, blank = tmp_path / "f.series", tmp_path / "o.series", tmp_path / "b.series"
        assert run_cli(capsys, "encode", str(GRAPHS / "c4.graph"), "--out", str(enc))[0] == 0
        blank.write_text("\n" + enc.read_text())
        assert run_cli(capsys, "filter", str(enc), "--out", str(flt))[0] == 0
        code, stdout, err = run_cli(capsys, "filter", str(blank))
        assert (code, err) == (0, "") and stdout == flt.read_text()

    def test_filter_rejects_truncated_series(self, files, capsys):
        tmp, g2, _, prof = files
        enc = tmp / "f.series"
        run_cli(capsys, "encode", str(g2), "--profile", str(prof), "--out", str(enc))
        enc.write_text("".join(enc.read_text().splitlines(keepends=True)[:20]))
        code, stdout, err = run_cli(capsys, "filter", str(enc), "--profile", str(prof))
        assert code == 1 and stdout == ""
        assert "index 19 missing" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda words: ["x", *words[1:]], "line 3: field k: invalid literal for int()"),
            (lambda words: [words[0], "0xq", words[2]], "line 3: field re: bad hex float literal"),
        ],
        ids=["index", "hex"],
    )
    def test_filter_names_the_bad_line_and_field(self, files, capsys, edit, message):
        tmp, g2, _, prof = files
        enc = tmp / "f.series"
        run_cli(capsys, "encode", str(g2), "--profile", str(prof), "--out", str(enc))
        lines = enc.read_text().splitlines()
        lines[2] = " ".join(edit(lines[2].split()))
        enc.write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(capsys, "filter", str(enc), "--profile", str(prof))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: [parse] {message}")

    @pytest.mark.parametrize("log2_c, ok", [(2400, True), (3000, False)])
    def test_a_k0_too_long_to_print_fails_in_extract(self, tmp_path, capsys, log2_c, ok):
        # at c = 2^3000 the 3-path's k0 is ~1e5372: its nearest integer has
        # more digits than Python converts, so run and extract refuse it at
        # [extract]; at c = 2^2400 it prints
        graph = GRAPHS / "p3.graph"
        prof = tmp_path / "big.profile"
        prof.write_text(profile_to_text(desk_profile(3, c=2 ** log2_c)))
        enc, flt = tmp_path / "f.series", tmp_path / "o.series"
        assert run_cli(capsys, "encode", str(graph), "--profile", str(prof), "--out", str(enc))[0] == 0
        argv = ("filter", str(enc), "--profile", str(prof), "--out", str(flt))
        assert run_cli(capsys, *argv)[0] == 0
        for argv in (
            ("run", str(graph), "--profile", str(prof)),
            ("run", str(graph), "--profile", str(prof), "--json"),
            ("extract", str(flt), "--profile", str(prof)),
        ):
            code, stdout, err = run_cli(capsys, *argv)
            if ok:
                assert code == 0 and err == "" and "n_h_rounded" in stdout, argv
            else:
                assert code == 1 and stdout == "", argv
                assert err.startswith("error: [extract] n_h_rounded, k0_re = -8.7329e+5372 "), argv


    def test_a_huge_c0_is_refused_in_time(self, tmp_path, capsys):
        # c0 = 2^100000000 makes k0 ~ -4e30103009: the refusal renders it
        # from the digits it prints, not from a power of ten of its size
        enc, flt = tmp_path / "f.series", tmp_path / "o.series"
        assert run_cli(capsys, "encode", str(GRAPHS / "p2.graph"), "--out", str(enc))[0] == 0
        assert run_cli(capsys, "filter", str(enc), "--out", str(flt))[0] == 0
        flt.write_text(re.sub(r"(?m)^0 \S+ ", "0 0x1p+100000000 ", flt.read_text()))
        t0 = time.perf_counter()
        outcome = run_cli(capsys, "extract", str(flt))
        assert time.perf_counter() - t0 < 2
        assert outcome == (
            1,
            "",
            "error: [extract] n_h_rounded, k0_re = -4.1358e+30103009 rounded, has more than "
            "4300 decimal digits, too many to print\n",
        )


class TestProfileRefusals:
    def test_run_names_the_step_without_a_root(self, files, capsys):
        # r_1 = 24 passes every log2-domain constraint, but step 5's
        # equation has no root: check-profile prints the schedule_solved
        # record that run's validate stage refuses on
        tmp, g2, _, prof = files
        bad = tmp / "r24.profile"
        bad.write_text(prof.read_text().replace("r_1=16", "r_1=24"))
        lines = run_cli(capsys, "check-profile", str(bad), "--n", "2")[1].splitlines()
        assert lines[-1] == "profile INVALID"
        assert lines[-2].startswith("FAIL schedule_solved") and "step 5" in lines[-2]
        assert all(line.startswith("PASS") for line in lines[:-2])
        code, stdout, err = run_cli(capsys, "run", str(g2), "--profile", str(bad))
        assert code == 1 and stdout == ""
        assert err.startswith("error: [validate] profile fails validation: schedule_solved (step 5: ")
        # alpha = 21.77 is exact here: the method fails, not the rounding
        assert "rounding" not in lines[-2] and "rounding" not in err

    def test_check_profile_says_when_p_2_cannot_hold_alpha(self, files, capsys):
        # the desk key's alpha is 8.886e6; at p_2 = 16 it rounds to -0.191,
        # and step 2 has no root; the PASS lines are those at p_2 = 256
        tmp, g2, _, prof = files
        bad = tmp / "narrow.profile"
        bad.write_text(prof.read_text().replace("p_2=256", "p_2=16"))
        lines = run_cli(capsys, "check-profile", str(bad), "--n", "2")[1].splitlines()
        good = run_cli(capsys, "check-profile", str(prof), "--n", "2")[1].splitlines()
        assert lines[:-2] == good[:-2] and lines[-1] == "profile INVALID"
        assert lines[-2] == (
            "FAIL schedule_solved slack=0 (step 2: P(r) = alpha*r^1/1!*tr_7(e^-r) - 1 "
            "with alpha = -1.9132614135742187500e-1 has no sign change in (0, 1]; "
            "at 79 bits alpha = 8.8861e+6, and with it steps 2..9 solve: "
            "p_2=16 bits cannot hold alpha, the rounding failed)"
        )

    def test_check_profile_refuses_a_full_scale_profile_unsolved(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("schedule solve started")

        monkeypatch.setattr(schedule, "solve_schedule", refuse)
        full = tmp_path / "full.profile"
        full.write_text(profile_to_text(full_scale_profile(4)))
        code, stdout, _ = run_cli(capsys, "check-profile", str(full))
        lines = stdout.splitlines()
        assert code == 0 and lines[-1] == "profile INVALID"
        assert lines[-2].startswith("FAIL schedule_solved") and "no integer c" in lines[-2]

    @pytest.mark.parametrize("key", ["p_1", "p_2"])
    @pytest.mark.parametrize("command", ["encode", "run"])
    def test_zero_precision_refused_before_series_work(self, files, capsys, monkeypatch, command, key):
        def refuse(*args, **kwargs):
            raise AssertionError("series work started")

        monkeypatch.setattr(grid, "grid_series", refuse)
        tmp, g2, _, prof = files
        bad = tmp / "zero.profile"
        bad.write_text(re.sub(rf"^{key}=\d+$", f"{key}=0", prof.read_text(), flags=re.M))
        code, stdout, err = run_cli(capsys, command, str(g2), "--profile", str(bad))
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: [validate] {key}=0: ")

    def test_invalid_profile_refused_before_series_work(self, files, capsys, monkeypatch):
        # desk_profile(8) fails highfreq_transient_small; the run must say
        # so before the oracle or the encoder starts
        def refuse(*args, **kwargs):
            raise AssertionError("series work started")

        monkeypatch.setattr(grid, "grid_series", refuse)
        monkeypatch.setattr(cli, "_oracle_block", refuse)
        tmp = files[0]
        k8 = tmp / "k8.graph"
        k8.write_text(
            "n 8\n" + "".join(f"e {a} {b}\n" for a, b in sorted(complete_graph(8).edges))
        )
        code, stdout, err = run_cli(capsys, "run", str(k8), "--oracle-limit", "8")
        assert code == 1 and stdout == ""
        assert err.startswith("error: [validate] profile fails validation: ")
        assert "highfreq_transient_small" in err

    def test_log2_c_only_profile_fails_in_validate_without_solving(self, files, monkeypatch):
        # full_scale_profile passes the log2-domain checks but has no
        # integer c: validate refuses it before any schedule solve
        def refuse(*args, **kwargs):
            raise AssertionError("schedule solve started")

        monkeypatch.setattr(schedule, "solve_schedule", refuse)
        _, _, g4, _ = files
        with pytest.raises(cli.StageError, match="no integer c") as info:
            run_experiment(str(g4), full_scale_profile(4))
        assert info.value.stage == "validate"


class TestStagedErrors:
    @pytest.mark.parametrize(
        "command, bad, stage",
        [
            ("encode", "malformed graph", "parse"),
            ("filter", "malformed series", "parse"),
            ("extract", "p_1=0", "validate"),
            ("oracle", "n above the oracle limit", "oracle"),
            ("check-profile", "p_1=0", "validate"),
            ("run", "unsolvable profile", "validate"),
        ],
    )
    def test_every_command_fails_the_same_way(self, files, capsys, command, bad, stage):
        tmp, g2, g4, prof = files
        bad_graph, bad_series = tmp / "bad.graph", tmp / "bad.series"
        bad_graph.write_text("n 2\ne 1 1\n")
        bad_series.write_text("series m=x p=512\n")
        zero, r24 = tmp / "zero.profile", tmp / "r24.profile"
        zero.write_text(prof.read_text().replace("p_1=512", "p_1=0"))
        r24.write_text(prof.read_text().replace("r_1=16", "r_1=24"))
        # extract reads n off a well-formed header before it validates
        enc, flt = tmp / "f.series", tmp / "o.series"
        if command == "extract":
            assert run_cli(capsys, "encode", str(g2), "--profile", str(prof), "--out", str(enc))[0] == 0
            assert run_cli(capsys, "filter", str(enc), "--profile", str(prof), "--out", str(flt))[0] == 0
        argv = {
            "malformed graph": [str(bad_graph)],
            "malformed series": [str(bad_series)],
            "p_1=0": [str(flt), "--profile", str(zero)],
            "n above the oracle limit": [str(g4), "--oracle-limit", "3"],
            "unsolvable profile": [str(g2), "--profile", str(r24)],
        }[bad]
        if command == "check-profile":
            argv = [str(zero), "--n", "2"]
        code, stdout, err = run_cli(capsys, command, *argv)
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: [{stage}] ")

    def test_an_error_without_text_is_named_by_its_type(self, files, capsys, monkeypatch):
        # a MemoryError carries no text; the stage names its type instead
        tmp, g2, _, _ = files
        enc, flt = tmp / "f.series", tmp / "o.series"
        assert run_cli(capsys, "encode", str(g2), "--out", str(enc))[0] == 0
        assert run_cli(capsys, "filter", str(enc), "--out", str(flt))[0] == 0

        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_extract", out_of_memory)
        assert run_cli(capsys, "extract", str(flt)) == (1, "", "error: [extract] MemoryError\n")


class TestOneGate:
    @pytest.mark.parametrize("which", ["desk", "r_1=24", "full_scale"])
    def test_check_profile_invalid_exactly_when_commands_refuse(
        self, tmp_path, capsys, monkeypatch, which
    ):
        # check-profile says INVALID exactly when encode, filter, extract
        # and run refuse at [validate], and they refuse before series work
        enc, flt = tmp_path / "f.series", tmp_path / "o.series"
        assert run_cli(capsys, "encode", str(GRAPHS / "c4.graph"), "--out", str(enc))[0] == 0
        assert run_cli(capsys, "filter", str(enc), "--out", str(flt))[0] == 0
        prof = tmp_path / "p.profile"
        prof.write_text(
            {
                "desk": profile_to_text(desk_profile(4)),
                "r_1=24": profile_to_text(desk_profile(4, r_1=24)),
                "full_scale": profile_to_text(full_scale_profile(4)),
            }[which]
        )

        def refuse(*args, **kwargs):
            raise AssertionError("work started past validate")

        if which != "desk":
            monkeypatch.setattr(grid, "grid_series", refuse)
            monkeypatch.setattr(cli, "_oracle_block", refuse)
        if which == "full_scale":
            monkeypatch.setattr(schedule, "solve_schedule", refuse)
        verdict = run_cli(capsys, "check-profile", str(prof))[1].splitlines()[-1]
        assert verdict == ("profile OK" if which == "desk" else "profile INVALID")
        out = tmp_path / "out"
        commands = [
            ["encode", str(GRAPHS / "c4.graph"), "--out", str(out)],
            ["filter", str(enc), "--out", str(out)],
            ["extract", str(flt)],
            ["run", str(GRAPHS / "c4.graph"), "--no-timings"],
        ]
        for argv in commands:
            code, stdout, err = run_cli(capsys, *argv, "--profile", str(prof))
            if which == "desk":
                assert code == 0 and err == "", argv
            else:
                assert code == 1 and stdout == "", argv
                assert err.startswith("error: [validate] profile fails validation: "), argv
                assert "schedule_solved" in err, argv

    @pytest.mark.parametrize(
        "key",
        [dict(p_2=p_2, p_1=2 * p_2) for p_2 in (37, 38, 40, 41, 48, 67, 68, 256)]
        + [dict(n_d=8, n_d1=64, r_1=24), dict(n_d=12, n_d1=96, r_1=24)],
        ids=lambda key: ",".join(f"{k}={v}" for k, v in key.items()),
    )
    def test_the_gate_holds_by_construction(self, tmp_path, capsys, key):
        # a profile check-profile calls OK runs every command on p3; one it
        # calls INVALID, a singular two-channel system included, is refused
        # by each at [validate], naming the same FAIL checks
        graph = str(GRAPHS / "p3.graph")
        enc, flt = tmp_path / "f.series", tmp_path / "o.series"
        assert run_cli(capsys, "encode", graph, "--out", str(enc))[0] == 0
        assert run_cli(capsys, "filter", str(enc), "--out", str(flt))[0] == 0
        prof = tmp_path / "p.profile"
        prof.write_text(profile_to_text(desk_profile(3, **key)))
        lines = run_cli(capsys, "check-profile", str(prof))[1].splitlines()
        fails = [re.fullmatch(r"FAIL (\S+) slack=\S+ \((.*)\)", line) for line in lines]
        why = "; ".join(f"{m[1]} ({m[2]})" for m in fails if m)
        if key.get("p_2") == 48:
            assert lines[-2] == (
                "FAIL schedule_solved slack=0 "
                "(two-channel system determinant below 2^-24 of coefficient scale)"
            )
        valid = lines[-1] == "profile OK"
        assert valid == (not why) and lines[-1] in ("profile OK", "profile INVALID")
        commands = [
            ["encode", graph, "--out", str(enc)],
            ["filter", str(enc), "--out", str(flt)],
            ["extract", str(flt)],
            ["run", graph, "--json", "--no-timings"],
        ]
        for argv in commands:
            code, stdout, err = run_cli(capsys, *argv, "--profile", str(prof))
            if valid:
                assert (code, err) == (0, ""), argv
            else:
                assert (code, stdout) == (1, ""), argv
                assert err == f"error: [validate] profile fails validation: {why}\n", argv
        if valid:
            assert "n_h_rounded" in json.loads(stdout)["extraction"]


class TestOracle:
    def test_counts(self, files, capsys):
        _, _, g4, _ = files
        code, stdout, _ = run_cli(capsys, "oracle", str(g4))
        assert code == 0
        assert "n_p=66" in stdout
        assert "n_h_directed=12" in stdout
        assert "n_h_undirected=6" in stdout

    def test_spectrum_lines(self, files, capsys):
        _, g2, _, _ = files
        code, stdout, _ = run_cli(capsys, "oracle", str(g2), "--spectrum")
        assert code == 0
        assert "6 2" in stdout.splitlines()

    def test_consecutive_calls_keep_no_state(self, files, capsys):
        _, g2, _, _ = files
        run_cli(capsys, "oracle", str(g2), "--spectrum")
        code, stdout, _ = run_cli(capsys, "oracle", str(g2))
        assert code == 0
        assert stdout.splitlines() == ["n_p=2", "n_h_directed=2", "n_h_undirected=1"]

    def test_limit(self, files, capsys):
        _, _, g4, _ = files
        code, _, err = run_cli(capsys, "oracle", str(g4), "--oracle-limit", "3")
        assert code == 1 and "oracle limit" in err

    def test_report_counts_enumerate_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the report's oracle block enumerated")

        monkeypatch.setattr(walk_oracle, "enumerate_n_walks", refuse)
        monkeypatch.setattr(walk_oracle, "count_hamiltonian_paths", refuse)
        assert cli._oracle_block(complete_graph(7), 7) == {
            "n_p": 326592,
            "n_h_directed": 5040,
            "n_h_undirected": 2520,
        }


class TestCheckProfile:
    def test_valid(self, files, capsys):
        _, _, _, prof = files
        code, stdout, _ = run_cli(capsys, "check-profile", str(prof), "--n", "4")
        assert code == 0
        assert "profile OK" in stdout
        assert stdout.count("PASS") >= 7
        # the tail check names its figure, the design estimate, and the
        # solve prints the root that estimate stands for, 55 decades above
        lines = stdout.splitlines()
        assert lines[4] == (
            "PASS transient_tail_small slack=160.665 (log2(2^n_d n^n r_tail) = -168.665 < -8, "
            "r_tail = (1/alpha)^n_d = 2^-184.665, the design estimate of r_9)"
        )
        assert lines[-2] == "PASS schedule_solved slack=0 (11 step times at p_2=256, solved r_9 = 5.0945e-1)"

    def test_broken_names_constraint(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.profile"
        bad.write_text(profile_to_text(desk_profile(4, r_1=8)))
        code, stdout, _ = run_cli(capsys, "check-profile", str(bad))
        assert code == 0
        assert "FAIL r_1_gt_n_d" in stdout
        assert "profile INVALID" in stdout

    def test_ambiguous_profile_refused(self, files, capsys):
        # a scale given as both c and log2_c was read as c, log2_c dropped
        tmp, _, _, prof = files
        both = tmp / "both.profile"
        both.write_text(prof.read_text() + "log2_c=40\n")
        code, stdout, err = run_cli(capsys, "check-profile", str(both), "--n", "4")
        assert code == 1 and stdout == ""
        assert err == "error: [validate] line 8: a profile gives c or log2_c, not both\n"

    @pytest.mark.parametrize("scale", ["c=-1099511627776", "log2_c=nan", "log2_c=inf"])
    def test_scale_must_be_positive_and_finite(self, files, capsys, scale):
        # profile files come from outside the program: the scale is a
        # positive c, or when c is unset a positive finite log2_c
        tmp, g2, _, prof = files
        bad = tmp / "scale.profile"
        bad.write_text(re.sub(r"^c=\d+$", scale, prof.read_text(), flags=re.M))
        code, stdout, _ = run_cli(capsys, "check-profile", str(bad), "--n", "2")
        assert code == 0
        assert stdout.splitlines() == [
            "FAIL positive slack=0 (all parameters must be positive and finite)",
            "profile INVALID",
        ]
        for command in ("run", "encode"):
            code, stdout, err = run_cli(capsys, command, str(g2), "--profile", str(bad))
            assert code == 1 and stdout == ""
            assert err.startswith("error: [validate] profile fails validation: positive ("), err

    def test_c_beyond_the_int_string_limit_is_named_not_echoed(self, files, capsys):
        tmp, _, _, prof = files
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            c = str(2 ** 15000)
        finally:
            sys.set_int_max_str_digits(limit)
        big = tmp / "big.profile"
        big.write_text(re.sub(r"^c=\d+$", f"c={c}", prof.read_text(), flags=re.M))
        code, stdout, err = run_cli(capsys, "check-profile", str(big), "--n", "4")
        assert code == 1 and stdout == ""
        assert err == (
            f"error: [validate] line 5: c has 4516 digits, more than the {limit} that "
            "Python reads from a string (sys.get_int_max_str_digits)\n"
        )


class TestRun:
    def test_p2_report(self, files, capsys):
        _, g2, _, prof = files
        code, stdout, _ = run_cli(capsys, "run", str(g2), "--profile", str(prof), "--no-timings")
        assert code == 0
        assert "[oracle] n_p=2 n_h_directed=2 n_h_undirected=1" in stdout
        assert "[verdict] MATCH" in stdout

    def test_four_cluster_json(self, files, capsys):
        _, _, g4, prof = files
        code, stdout, _ = run_cli(
            capsys, "run", str(g4), "--profile", str(prof), "--json", "--no-timings"
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["oracle"] == {"n_p": 66, "n_h_directed": 12, "n_h_undirected": 6}
        assert report["verdict"] == "INCONCLUSIVE"
        assert report["extraction"]["flags"] == "imaginary"
        assert "timings_ms" not in report

    @pytest.mark.parametrize("limit", [[], ["--oracle-limit", "3"]])
    def test_text_blocks_match_json(self, files, capsys, limit):
        _, _, g4, prof = files
        argv = ["run", str(g4), "--profile", str(prof), "--no-timings", *limit]
        text = run_cli(capsys, *argv)[1]
        report = json.loads(run_cli(capsys, *argv, "--json")[1])
        lines = text.splitlines()
        assert [line[1:].split("]")[0] for line in lines] == list(report)
        for line, (name, block) in zip(lines, report.items()):
            if name == "verdict":
                body = block
            elif block is None:
                body = "omitted (n above oracle limit)"
            else:
                body = " ".join(f"{k}={v}" for k, v in block.items())
            assert line == f"[{name}] {body}"

    def test_malformed_graph_nonzero_exit(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("n 2\ne 1 1\n")
        _, _, _, prof = files
        code, _, err = run_cli(capsys, "run", str(bad), "--profile", str(prof))
        assert code != 0
        assert "[parse]" in err and "self-loop" in err

    def test_unverified_above_oracle_limit(self, files, capsys):
        _, _, g4, prof = files
        code, stdout, _ = run_cli(
            capsys, "run", str(g4), "--profile", str(prof), "--oracle-limit", "3", "--no-timings"
        )
        assert code == 0
        assert "[verdict] UNVERIFIED" in stdout
        assert "[oracle] omitted" in stdout

    def test_deterministic_report(self, files, capsys):
        _, _, g4, prof = files
        a = run_cli(capsys, "run", str(g4), "--profile", str(prof), "--no-timings")[1]
        b = run_cli(capsys, "run", str(g4), "--profile", str(prof), "--no-timings")[1]
        assert a == b

    def test_profile_n_mismatch_rejected(self, files, capsys, tmp_path):
        _, g2, _, _ = files
        wrong = tmp_path / "n4.profile"
        wrong.write_text(profile_to_text(desk_profile(4)))
        code, _, err = run_cli(capsys, "run", str(g2), "--profile", str(wrong))
        assert code == 1 and "does not match" in err

    def test_a_profile_for_another_n_is_refused_before_the_oracle(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_oracle_block", lambda *args: calls.append(args))
        with pytest.raises(cli.StageError) as info:
            run_experiment(str(GRAPHS / "c5.graph"), desk_profile(4))
        assert info.value.stage == "validate" and calls == []
        assert "profile n=4 does not match graph n=5" in str(info.value)

    def test_run_experiment_takes_a_profile_a_path_or_none(self, files):
        # None is the desk profile, and a path is read for the graph's n
        _, _, g4, prof = files
        reports = [run_experiment(str(g4), p) for p in (desk_profile(4), str(prof), None)]
        texts = {report.to_json(timings=False) for report in reports}
        assert len(texts) == 1

    def test_run_parses_graph_once(self, files, capsys, monkeypatch):
        _, _, g4, _ = files
        calls = []

        def counting_load(path):
            calls.append(path)
            return load_graph(path)

        monkeypatch.setattr(cli, "load_graph", counting_load)
        code, _, _ = run_cli(capsys, "run", str(g4), "--no-timings")
        assert code == 0 and calls == [str(g4)]

    def test_run_experiment_stage_timings(self, files):
        _, _, g4, _ = files
        report = run_experiment(str(g4), desk_profile(4))
        stages = ("parse", "validate", "oracle", "encode", "filter", "extract")
        assert list(report.timings_ms) == [f"{stage}_ms" for stage in stages]

    def test_profile_file_is_read_on_every_call(self, files, capsys):
        # the parsed profile is memoized on the file's text, not its path
        _, _, g4, prof = files
        argv = ("run", str(g4), "--profile", str(prof), "--json", "--no-timings")
        first = json.loads(run_cli(capsys, *argv)[1])
        prof.write_text(prof.read_text().replace("p_2=256", "p_2=320"))
        second = json.loads(run_cli(capsys, *argv)[1])
        assert (first["profile"]["p_2"], second["profile"]["p_2"]) == (256, 320)
        assert first["extraction"] != second["extraction"]

    def test_out_writes_the_report_it_prints(self, files, capsys):
        # run writes the file first, then prints the same report
        tmp, _, g4, prof = files
        for flags in ([], ["--json"]):
            out = tmp / "report.out"
            argv = ("run", str(g4), "--profile", str(prof), "--no-timings", *flags)
            code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
            assert (code, err) == (0, "")
            assert out.read_text() == stdout == run_cli(capsys, *argv)[1]

    def test_out_to_an_unwritable_path_prints_no_report(self, files, capsys):
        tmp, _, g4, prof = files
        out = tmp / "no such dir" / "report.out"
        argv = ("run", str(g4), "--profile", str(prof), "--out", str(out))
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err.startswith("error: [write] ") and "no such dir" in err
        assert not out.parent.exists()


    @pytest.mark.parametrize(
        "name, k0_re",
        [("c4", "1.142028264795554397329676e+45"), ("k4", "2.677165873336061070568995e+45")],
    )
    def test_mismatch_verdict(self, tmp_path, capsys, name, k0_re):
        # at the desk key with p_2 = 128, p_1 = 256, C4's and K4's p_2-bit
        # k0 (~1e45) is an integer: round_distance is exactly 0 and k0 is
        # real, so no flag fires, and its rounding is not the oracle's count
        prof = tmp_path / "p128.profile"
        prof.write_text(DESK.read_text().replace("p_1=512", "p_1=256").replace("p_2=256", "p_2=128"))
        assert run_cli(capsys, "check-profile", str(prof), "--n", "4")[1].endswith("\nprofile OK\n")
        argv = ("run", str(GRAPHS / f"{name}.graph"), "--profile", str(prof), "--no-timings")
        code, text, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        lines = text.splitlines()
        assert lines[-1] == "[verdict] MISMATCH"
        assert f" k0_re={k0_re} k0_im=0 " in lines[-2] and lines[-2].endswith(" flags=none")
        code, stdout, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        report = json.loads(stdout)
        ext = report["extraction"]
        assert report["verdict"] == "MISMATCH"
        assert (ext["k0_re"], ext["k0_im"], ext["round_distance"], ext["flags"]) == (
            k0_re, "0", "0", "none"
        )
        assert ext["n_h_rounded"] != report["oracle"]["n_h_directed"]


class TestFileRefusals:
    """Malformed graph and profile files exit 1 with an empty stdout and
    one `error: [stage] line k: ...` line naming what is wrong."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 3\nn 3\n", "line 2: duplicate 'n' line"),
            ("n\n", "line 1: expected 'n <count>'"),
            ("n x\n", "line 1: bad vertex count 'x'"),
            ("n 0\n", "line 1: vertex count must be >= 1"),
            ("n 2\ne 1\n", "line 2: expected 'e <i> <j>'"),
            ("n 2\ne 1 x\n", "line 2: bad vertex index"),
        ],
    )
    def test_graph_file(self, tmp_path, capsys, text, message):
        graph = tmp_path / "bad.graph"
        graph.write_text(text)
        assert run_cli(capsys, "run", str(graph)) == (1, "", f"error: [parse] {message}\n")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.replace("n_d1=64", "oops"), "line 2: expected key=value, got 'oops'"),
            (lambda t: t.replace("n_d1=64", "n_d1=6x"), "line 2: bad value for n_d1: '6x'"),
            (lambda t: re.sub(r"^c=\d+\n", "", t, flags=re.M), "profile needs c or log2_c"),
        ],
    )
    def test_profile_file(self, tmp_path, capsys, edit, message):
        prof = tmp_path / "bad.profile"
        # the desk profile without its comment line: n_d1 is on line 2
        prof.write_text(edit(DESK.read_text().split("\n", 1)[1]))
        outcome = run_cli(capsys, "check-profile", str(prof), "--n", "4")
        assert outcome == (1, "", f"error: [validate] {message}\n")

    @pytest.mark.parametrize("command", ["run", "encode", "oracle"])
    def test_a_vertex_count_too_long_to_read_is_named_not_echoed(self, tmp_path, capsys, command):
        graph = tmp_path / "big.graph"
        graph.write_text(f"n {'9' * 5000}\ne 1 2\n")
        code, stdout, err = run_cli(capsys, command, str(graph))
        assert (code, stdout) == (1, "") and len(err.encode()) < 200
        assert err.startswith("error: [parse] line 1: vertex count has 5000 digits, more than the ")

    def test_a_series_header_field_too_long_to_read_is_named_not_echoed(self, files, capsys):
        tmp, g2, _, _ = files
        enc, flt = tmp / "f.series", tmp / "o.series"
        assert run_cli(capsys, "encode", str(g2), "--out", str(enc))[0] == 0
        assert run_cli(capsys, "filter", str(enc), "--out", str(flt))[0] == 0
        flt.write_text(flt.read_text().replace("series m=8 ", f"series m={'9' * 5000} ", 1))
        code, stdout, err = run_cli(capsys, "extract", str(flt))
        assert (code, stdout) == (1, "") and len(err.encode()) < 200
        assert err.startswith("error: [parse] bad series header: m has 5000 digits, more than the ")


def family_graphs() -> dict:
    """P_n, C_n, K_n and the star S_n for n = 2..7, as graph file texts."""
    out = {}
    for n in range(2, 8):
        path = [(i, i + 1) for i in range(1, n)]
        families = {
            "P": path,
            "C": path + [(n, 1)],
            "K": [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)],
            "S": [(1, j) for j in range(2, n + 1)],
        }
        for name, edges in families.items():
            out[f"{name}{n}.graph"] = f"n {n}\n" + "".join(f"e {a} {b}\n" for a, b in edges)
    return out


class TestSameBytes:
    """The sha256 of `run --json --no-timings` over the six graphs/ files
    and family_graphs(), in that order. A change that alters a report's
    bytes (say, by making them more exact) updates the digest and says so
    in CHANGES.md."""

    DIGEST = "eb34f33d5011f96f1c92d6f9a62ce3f7b631f0e7fc235cbaebce3e6dbbf8fb84"

    def test_run_reports_keep_their_bytes(self, tmp_path, capsys):
        texts = {p.name: p.read_text() for p in sorted(GRAPHS.glob("*.graph"))}
        texts.update(family_graphs())
        h = hashlib.sha256()
        for name, text in texts.items():
            graph = tmp_path / name
            graph.write_text(text)
            code, out, err = run_cli(capsys, "run", str(graph), "--json", "--no-timings")
            assert (code, err) == (0, "")
            h.update(out.encode())
        assert h.hexdigest() == self.DIGEST


class TestCommandBytes:
    """One sha256 per command over the six graphs/ files at the desk
    profile: run's text report, the file encode writes, filter's output
    then its --dump-steps files in name order, extract's and oracle
    --spectrum's stdout, and check-profile on profiles/desk.profile at
    n = 2..5. Each output is hashed with its command's exit code and
    stderr, so a refusal cannot pass as empty output. As for
    TestSameBytes, a change to these bytes updates a digest and says so
    in CHANGES.md."""

    DIGESTS = {
        "run": "ea0386a02ea97953442f9a7f219c5bc7322ec84a96fb836f11ac93255af8f4f3",
        "encode": "4f2c5a58b1e23b0fc659ad7abe8972fe2be5aedcebe4100736ebf6a0f3a3677a",
        "filter": "4817c6e6cc9703a385768f5cf3bdfaf5eda60f787dba17271edaf11bd1c24490",
        "extract": "76dd5dfb898cdaaada84589593c9c489b94055a7e717084944444ee01ef75ceb",
        "oracle": "0e113b672c35228a9a635db8e0e44c575b0e751d457c2474293bd999d3d0e6e1",
        "check-profile": "cf80c4dfebe2540756c91ce5e7939de3e6d9cdb3bc1bdab17c034727b330c093",
    }

    def test_every_command_keeps_its_bytes(self, tmp_path, capsys):
        desk = ("--profile", str(DESK))
        hashes = {}

        def record(command, outcome, *files):
            texts = [(f.name, f.read_text()) for f in files if f.exists()]
            hashes.setdefault(command, hashlib.sha256()).update(repr((outcome, texts)).encode())

        for graph in sorted(GRAPHS.glob("*.graph")):
            enc, flt, steps = (tmp_path / f"{graph.stem}.{ext}" for ext in ("f", "o", "steps"))
            record("run", run_cli(capsys, "run", str(graph), "--no-timings", *desk))
            record("encode", run_cli(capsys, "encode", str(graph), *desk, "--out", str(enc)), enc)
            argv = ("filter", str(enc), *desk, "--out", str(flt), "--dump-steps", str(steps))
            record("filter", run_cli(capsys, *argv), flt, *sorted(steps.glob("*")))
            record("extract", run_cli(capsys, "extract", str(flt), *desk))
            record("oracle", run_cli(capsys, "oracle", str(graph), "--spectrum"))
        for k in range(2, 6):
            record("check-profile", run_cli(capsys, "check-profile", str(DESK), "--n", str(k)))
        assert {command: h.hexdigest() for command, h in hashes.items()} == self.DIGESTS


class TestHugeGraphs:
    """A graph file whose n line is huge is refused before any work that
    grows with n: by the profile checks at [validate], or at [oracle]."""

    @pytest.mark.parametrize("n", [10**7, 10**20])
    @pytest.mark.parametrize(
        "command, stage", [("run", "validate"), ("encode", "validate"), ("oracle", "oracle")]
    )
    def test_refused_fast_and_small(self, tmp_path, capsys, n, command, stage):
        graph = tmp_path / "huge.graph"
        graph.write_text(f"n {n}\ne 1 2\n")
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, command, str(graph))
        seconds = time.perf_counter() - t0
        tracemalloc.start()
        try:
            assert run_cli(capsys, command, str(graph))[:2] == (code, "")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and err.startswith(f"error: [{stage}] ")
        assert seconds < 0.1 and peak < 50 * 2**20


class TestJsonReport:
    """RunReport.to_json writes json.dumps(to_json_dict(), indent=2) with
    the C string encoder; `run --json` prints it."""

    def run_json(self, capsys, graph, prof, *flags):
        argv = ("run", str(graph), "--profile", str(prof), "--json", *flags)
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        return stdout

    @pytest.mark.parametrize(
        "timings, limit", [(False, 7), (True, 7), (False, 3)],
        ids=["plain", "timings", "oracle-omitted"],
    )
    def test_bytes_equal_json_dumps(self, files, capsys, timings, limit):
        _, _, g4, prof = files
        report = run_experiment(str(g4), desk_profile(4), oracle_limit=limit)
        assert report.to_json(timings) == json.dumps(report.to_json_dict(timings), indent=2) + "\n"
        flags = ["--oracle-limit", str(limit)] + ([] if timings else ["--no-timings"])
        stdout = self.run_json(capsys, g4, prof, *flags)
        d = json.loads(stdout)
        assert ("timings_ms" in d, d["oracle"] is None) == (timings, limit < 4)
        assert stdout == json.dumps(d, indent=2) + "\n"

    def test_file_name_escapes(self, files, capsys):
        tmp, _, g4, prof = files
        odd = tmp / 'quote"back\\slash \u00e9.graph'
        shutil.copy(g4, odd)
        stdout = self.run_json(capsys, odd, prof, "--no-timings")
        d = json.loads(stdout)
        assert d["graph"]["file"] == odd.name
        assert stdout == json.dumps(d, indent=2) + "\n"
        assert '"quote\\"back\\\\slash \\u00e9.graph"' in stdout



def readme_commands() -> list:
    """The argv of each line of the README's command-line block."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines() if line.strip()]
    assert lines and all(line.startswith("hamspec ") for line in lines)
    return [shlex.split(line, comments=True)[1:] for line in lines]


class TestReadme:
    def test_command_lines_parse(self):
        for argv in readme_commands():
            build_parser().parse_args(argv)

    def test_command_lines_run_in_order(self, tmp_path, capsys, monkeypatch):
        # run from a directory holding copies of graphs/ and profiles/, as
        # a reader at the repository root would: encode -> filter ->
        # extract chain through the files the lines name
        root = README.parent
        for name in ("graphs", "profiles"):
            shutil.copytree(root / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        for argv in readme_commands():
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)

    def test_library_example_counts_the_paths(self, capsys):
        # the python block under "## Library", run as a reader would paste it
        block = README.read_text().split("## Library", 1)[1].split("```python\n", 1)[1]
        namespace = {}
        exec(block.split("```", 1)[0], namespace)
        printed = capsys.readouterr().out.split()
        assert len(printed) == 2
        assert int(printed[1]) == walk_oracle.count_hamiltonian_paths(namespace["g"])


ARGV_CASES = [
    ["run", "g", "--bogus"],
    ["run"],
    ["run", "g", "--oracle-limit", "x"],
    ["run", "g", "--js"],
    ["run", "g", "--dump-steps", "d"],
    ["run", "g", "--json", "--no-timings", "--profile", "p"],
    ["oracle", "g", "--spectrum", "extra"],
    ["bogus", "g"],
    [],
    ["-h"],
    ["run", "-h"],
]


def parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr, Namespace) of one argv parse; the exit
    code is None when the parse returned."""
    try:
        args, code = parse(list(argv)), None
    except SystemExit as exc:
        args, code = None, exc.code
    out = capsys.readouterr()
    return code, out.out, out.err, args


class TestArgv:
    @pytest.mark.parametrize(
        "argv", readme_commands() + ARGV_CASES, ids=lambda argv: " ".join(argv) or "empty"
    )
    def test_parse_matches_the_full_parser(self, capsys, argv):
        # main parses with cli.parse_args: a known command's own parser,
        # with every error, help text and leftover through the full one
        want = parse_outcome(capsys, build_parser().parse_args, argv)
        assert parse_outcome(capsys, cli.parse_args, argv) == want
        if want[0] is not None:
            assert parse_outcome(capsys, main, argv)[:3] == want[:3]
        else:
            assert want[3].command == argv[0]

    def test_a_known_command_skips_the_full_parser(self, monkeypatch):
        monkeypatch.setattr(build_parser(), "parse_args", None)
        args = cli.parse_args(["run", "g", "--json", "--profile", "p"])
        assert (args.command, args.graph, args.json, args.profile) == ("run", "g", True, "p")

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import takegrant.cli as cli
import takegrant.oracle as oracle
from takegrant import (
    BridgePath,
    Direction,
    ParseError,
    RandomGraphSpec,
    Right,
    SearchReport,
    parse_graph,
    random_graph,
    serialize_graph,
)

from helpers import LENGTH2_BRIDGE_TGG, tgg_documents

SRC = str(Path(cli.__file__).resolve().parents[1])


def cli_env(unbuffered=False, **extra):
    """Environment for a CLI child process: this checkout on PYTHONPATH
    and, unless *unbuffered*, Python's default buffering whatever the
    calling environment sets.  Buffered output is what a user's shell
    gets, and it fails later (at a flush) than unbuffered output does."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=SRC, **extra)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


def run_cli(args, stdin=b"", env=None):
    """Run ``python -m takegrant.cli`` on this checkout; bytes in and out."""
    return subprocess.run(
        [sys.executable, "-m", "takegrant.cli", *args],
        env=cli_env() if env is None else env,
        input=stdin, capture_output=True, timeout=60,
    )


def errno_line(code):
    return f"error: [Errno {code}] {os.strerror(code)}\n"


@pytest.fixture
def figure_file(tmp_path):
    path = tmp_path / "figure.tgg"
    path.write_text(LENGTH2_BRIDGE_TGG, encoding="utf-8")
    return str(path)


class TestIslandsCommand:
    def test_lists_islands(self, figure_file, capsys):
        assert cli.main(["islands", figure_file]) == 0
        assert capsys.readouterr().out == "island 0: s\nisland 1: f\n"

    def test_empty_graph_prints_nothing(self, tmp_path, capsys):
        path = tmp_path / "empty.tgg"
        path.write_text("tgg 1\n", encoding="utf-8")
        assert cli.main(["islands", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_malformed_file_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.tgg"
        path.write_text("tgg 1\nedge a b t\n", encoding="utf-8")
        assert cli.main(["islands", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["islands", str(tmp_path / "nope.tgg")]) == 2
        assert "error" in capsys.readouterr().err

    def test_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.sys, "stdin", io.StringIO(LENGTH2_BRIDGE_TGG))
        assert cli.main(["islands", "-"]) == 0
        assert "island 0: s" in capsys.readouterr().out


class TestBridgeCommand:
    def test_found_line_and_exit_code(self, figure_file, capsys):
        assert cli.main(["bridge", figure_file, "s", "f"]) == 0
        assert capsys.readouterr().out == "bridge t->* s ~> f: FOUND (length 2, passes 2)\n"

    def test_not_found_backward(self, figure_file, capsys):
        assert cli.main(["bridge", figure_file, "s", "f", "--backward"]) == 1
        assert capsys.readouterr().out == "bridge t<-* s ~> f: NOT FOUND (passes 1)\n"

    def test_path_flag(self, figure_file, capsys):
        assert cli.main(["bridge", figure_file, "s", "f", "--path"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "path: s x f"

    def test_json_shape(self, figure_file, capsys):
        assert cli.main(["bridge", figure_file, "s", "f", "--json"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        report = json.loads(out)
        assert list(report.keys()) == ["exists", "direction", "passes", "path", "frontier_trace"]
        assert report == {
            "exists": True,
            "direction": "forward",
            "passes": 2,
            "path": ["s", "x", "f"],
            "frontier_trace": [[1, ["x"]], [2, ["f"]]],
        }

    def test_json_not_found_has_null_path(self, figure_file, capsys):
        assert cli.main(["bridge", figure_file, "s", "f", "--backward", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["exists"] is False
        assert report["path"] is None

    def test_unknown_name(self, figure_file, capsys):
        assert cli.main(["bridge", figure_file, "s", "zzz"]) == 2
        assert "zzz" in capsys.readouterr().err

    def test_equal_endpoints(self, figure_file, capsys):
        assert cli.main(["bridge", figure_file, "s", "s"]) == 2

    def test_direct_subject_arc_warns(self, tmp_path, capsys):
        path = tmp_path / "direct.tgg"
        path.write_text("tgg 1\nsubject a\nsubject b\nedge a b t\n", encoding="utf-8")
        assert cli.main(["bridge", str(path), "a", "b"]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "same island" in err

    def test_length_one_through_object_endpoint_does_not_warn(self, tmp_path, capsys):
        path = tmp_path / "obj.tgg"
        path.write_text("tgg 1\nsubject a\nobject b\nedge a b t\n", encoding="utf-8")
        assert cli.main(["bridge", str(path), "a", "b"]) == 0
        assert capsys.readouterr().err == ""


class TestBridgesCommand:
    def test_one_bridge_between_figure_islands(self, figure_file, capsys):
        assert cli.main(["bridges", figure_file, "0", "1"]) == 0
        assert capsys.readouterr().out == "s ~> f: s x f\n"

    def test_no_bridges_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "two.tgg"
        path.write_text("tgg 1\nsubject a\nsubject b\n", encoding="utf-8")
        assert cli.main(["bridges", str(path), "0", "1"]) == 1
        assert capsys.readouterr().out == ""

    def test_equal_indices(self, figure_file, capsys):
        assert cli.main(["bridges", figure_file, "0", "0"]) == 2

    def test_out_of_range_index(self, figure_file, capsys):
        assert cli.main(["bridges", figure_file, "0", "9"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestExitCodeContract:
    """A crash must never exit 1, which means "no bridge"."""

    @pytest.fixture
    def latin1_file(self, tmp_path):
        path = tmp_path / "latin1.tgg"
        path.write_bytes(b"tgg 1\nsubject s\nobject x\nsubject \xff\n")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [["bridge", "{}", "s", "x"], ["islands", "{}"], ["bridges", "{}", "0", "1"]],
        ids=["bridge", "islands", "bridges"],
    )
    def test_non_utf8_input_is_usage_error(self, latin1_file, argv):
        args = [a.format(latin1_file) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "takegrant.cli", *args],
            env=cli_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: input is not valid UTF-8")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["bridge", "{}", "s", "f"], ["islands", "{}"], ["bridges", "{}", "0", "1"]],
        ids=["bridge", "islands", "bridges"],
    )
    def test_byte_order_mark_is_usage_error(self, tmp_path, argv):
        path = tmp_path / "bom.tgg"
        path.write_bytes(b"\xef\xbb\xbf" + LENGTH2_BRIDGE_TGG.encode())
        args = [a.format(path) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "takegrant.cli", *args],
            env=cli_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "expected header 'tgg 1'" in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["bridge", "-", "a", "b"], ["islands", "-"], ["bridges", "-", "0", "1"]],
        ids=["bridge", "islands", "bridges"],
    )
    def test_non_utf8_stdin_is_usage_error(self, argv):
        # Under the C locale, sys.stdin decodes with surrogateescape and
        # would accept the bad byte.
        env = {k: v for k, v in cli_env(LC_ALL="C").items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
        proc = run_cli(argv, stdin=b"tgg 1\n# caf\xe9\nsubject a\nsubject b\n", env=env)
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "Traceback" not in err
        assert err.startswith("error: input is not valid UTF-8")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["bridge", "-", "a", "b"], ["islands", "-"], ["bridges", "-", "0", "1"]],
        ids=["bridge", "islands", "bridges"],
    )
    def test_closed_stdin_is_usage_error(self, argv, monkeypatch, capsys):
        # Python sets sys.stdin to None when it starts with fd 0 closed.
        monkeypatch.setattr(cli.sys, "stdin", None)
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cannot read the graph from stdin: standard input is closed\n"

    def test_closed_stdin_subprocess_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "takegrant.cli", "islands", "-"],
            env=cli_env(),
            preexec_fn=lambda: os.close(0),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: cannot read the graph from stdin: standard input is closed\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["islands", "{}"],
            ["bridge", "{}", "s", "f"],
            ["bridges", "{}", "0", "1"],
            ["check", "--trials", "2"],
            ["gen"],
        ],
        ids=["islands", "bridge", "bridges", "check", "gen"],
    )
    def test_closed_stdout_is_usage_error(self, figure_file, argv):
        # Python sets sys.stdout to None when it starts with fd 1 closed.
        proc = subprocess.run(
            [sys.executable, "-m", "takegrant.cli", *(a.format(figure_file) for a in argv)],
            env=cli_env(),
            preexec_fn=lambda: os.close(1),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: cannot write the output to stdout: standard output is closed\n"

    def test_gen_to_a_file_needs_no_stdout(self, tmp_path):
        closed, open_ = tmp_path / "closed.tgg", tmp_path / "open.tgg"
        proc = subprocess.run(
            [sys.executable, "-m", "takegrant.cli", "gen", "-o", str(closed)],
            env=cli_env(),
            preexec_fn=lambda: os.close(1),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert cli.main(["gen", "-o", str(open_)]) == 0
        assert closed.read_bytes() == open_.read_bytes()

    @BUFFERING
    @pytest.mark.parametrize("stderr", ["read_only", "closed"])
    def test_unwritable_stderr_keeps_the_exit_code(self, tmp_path, stderr, unbuffered):
        # Two subjects joined by a direct t arc: the bridge query prints a
        # warning on stderr, and an unknown vertex prints an error line.
        path = tmp_path / "direct.tgg"
        path.write_text("tgg 1\nsubject a\nsubject b\nedge a b t\n", encoding="utf-8")
        env = cli_env(unbuffered)
        read_only = tmp_path / "read_only"
        read_only.write_bytes(b"")

        def run(*args):
            with read_only.open("rb") as err:
                return subprocess.run(
                    [sys.executable, "-m", "takegrant.cli", "bridge", str(path), *args],
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=err if stderr == "read_only" else subprocess.DEVNULL,
                    preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
                    text=True, timeout=60,
                )

        found = run("a", "b")
        assert found.returncode == 0
        assert found.stdout == "bridge t->* a ~> b: FOUND (length 1, passes 1)\n"
        unknown = run("a", "nobody")
        assert unknown.returncode == 2
        assert unknown.stdout == ""
        assert read_only.read_bytes() == b""

    @BUFFERING
    @pytest.mark.parametrize("stdout", ["full", "broken_pipe"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["islands", "{}"],
            ["bridge", "{}", "s", "f", "--json", "--path"],
            ["bridges", "{}", "0", "1"],
            ["check", "--trials", "2"],
            ["gen"],
            ["gen", "--subjects", "20", "--objects", "400", "--p", "0.05", "--rights", "tgrw"],
        ],
        ids=["islands", "bridge", "bridges", "check", "gen", "gen_large"],
    )
    def test_failed_stdout_write_is_usage_error(self, figure_file, argv, stdout, unbuffered):
        # Buffered, a small output fails only at the flush after main has
        # returned; a large one, or any unbuffered one, fails inside main.
        # Either way: exit 2 and one error line, never Python's exit 120.
        if stdout == "full":
            sink, code = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
        else:
            read_end, sink = os.pipe()
            os.close(read_end)
            code = errno.EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "takegrant.cli", *(a.format(figure_file) for a in argv)],
                env=cli_env(unbuffered), stdout=sink, stderr=subprocess.PIPE,
                text=True, timeout=60,
            )
        finally:
            os.close(sink)
        assert proc.returncode == 2
        assert proc.stderr == errno_line(code)

    @BUFFERING
    @pytest.mark.parametrize("stderr", ["pipe", "full"])
    @pytest.mark.parametrize("argv", [["bogus"], ["bridge"]], ids=["unknown_command", "missing_arguments"])
    def test_argparse_usage_error_exits_2(self, argv, stderr, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "takegrant.cli", *argv],
                env=cli_env(unbuffered), stdout=subprocess.PIPE,
                stderr=full if stderr == "full" else subprocess.PIPE, timeout=60,
            )
        assert proc.returncode == 2
        assert proc.stdout == b""
        if stderr == "pipe":
            assert proc.stderr.startswith(b"usage: takegrant ")
            assert proc.stderr.count(b"\n") == 2 and b": error: " in proc.stderr

    @BUFFERING
    @pytest.mark.parametrize("streams", ["pipes", "stdout_full", "both_full", "stdout_closed"])
    def test_help_never_exits_120(self, streams, unbuffered, monkeypatch):
        # The help text goes out like any other output: buffered, it fails
        # at the flush in entry; unbuffered, at the write inside main.
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "takegrant.cli", "--help"],
                env=cli_env(unbuffered, COLUMNS="80"),
                stdout=full if "full" in streams else subprocess.PIPE,
                stderr=full if streams == "both_full" else subprocess.PIPE,
                preexec_fn=(lambda: os.close(1)) if streams == "stdout_closed" else None,
                timeout=60,
            )
        if streams == "pipes":
            assert proc.returncode == 0
            monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to $COLUMNS
            assert proc.stdout == cli.build_parser().format_help().encode()
            assert proc.stderr == b""
        else:
            assert proc.returncode == 2
            if streams == "stdout_full":
                assert proc.stderr.decode() == errno_line(errno.ENOSPC)
            elif streams == "stdout_closed":
                assert proc.stderr == b"error: cannot write the output to stdout: standard output is closed\n"

    @pytest.mark.parametrize(
        "data",
        [
            b"tgg 1\nsubject s\nobject x\nsubject \xff\n",
            LENGTH2_BRIDGE_TGG.replace("\n", "\r\n").encode(),
            LENGTH2_BRIDGE_TGG.replace("\n", "\r").encode(),
        ],
        ids=["non_utf8", "crlf", "lone_cr"],
    )
    def test_stdin_reads_like_a_file(self, tmp_path, data):
        path = tmp_path / "in.tgg"
        path.write_bytes(data)
        for argv in (["bridge", "{}", "s", "f"], ["islands", "{}"], ["bridges", "{}", "0", "1"]):
            by_path = run_cli([a.format(path) for a in argv])
            by_stdin = run_cli([a.format("-") for a in argv], stdin=data)
            assert by_stdin.returncode == by_path.returncode
            assert by_stdin.stdout == by_path.stdout
            assert by_stdin.stderr == by_path.stderr

    def test_unexpected_exception_is_internal_error(self, figure_file, capsys, monkeypatch):
        def broken(g):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "compute_islands", broken)
        assert cli.main(["islands", figure_file]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def _mutated(data: bytes, edits) -> bytes:
    """Apply (kind, position, byte) edits: replace, insert or delete one byte."""
    buf = bytearray(data)
    for kind, pos, byte in edits:
        i = pos % (len(buf) + 1)
        if kind == "insert":
            buf[i:i] = bytes([byte])
        elif buf and kind == "replace":
            buf[min(i, len(buf) - 1)] = byte
        elif buf:
            del buf[min(i, len(buf) - 1)]
    return bytes(buf)


_EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 10**6),
              st.integers(0, 255)),
    min_size=1, max_size=4,
)
_NAMES = st.sampled_from(["a", "b", "c", "d", "e"])
_FUZZ_INPUTS = st.one_of(
    st.binary(max_size=120),
    st.builds(lambda doc, edits: _mutated(doc[0].encode(), edits), tgg_documents(names=_NAMES), _EDITS),
    st.builds(lambda doc: doc[0].encode(), tgg_documents(names=_NAMES)),
)


class TestByteFuzz:
    """Any bytes keep the exit-code contract: 0 and 1 only for text that
    parses, 2 for everything else, never a crash."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=_FUZZ_INPUTS,
        argv=st.sampled_from([["islands"], ["bridge", "a", "b"], ["bridge", "a", "b", "--backward"],
                              ["bridges", "0", "1"]]),
    )
    def test_exit_code_contract(self, tmp_path, data, argv):
        path = tmp_path / "fuzz.tgg"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()
        try:
            parse_graph(path.read_text(encoding="utf-8"))
            parsed = True
        except (UnicodeDecodeError, ParseError):
            parsed = False
        if code in (0, 1):
            assert parsed
        else:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestCheckCommand:
    def test_small_audit_agrees(self, capsys):
        assert cli.main(["check", "--trials", "60", "--seed", "7"]) == 0
        assert capsys.readouterr().out == "60/60 agree\n"

    def test_zero_trials_vacuous_pass(self, capsys):
        assert cli.main(["check", "--trials", "0"]) == 0
        assert capsys.readouterr().out == "0/0 agree\n"

    def test_bad_probability(self, capsys):
        assert cli.main(["check", "--p", "1.5", "--trials", "1"]) == 2

    def test_needs_two_subjects(self, capsys):
        assert cli.main(["check", "--subjects", "1", "--trials", "1"]) == 2

    def test_broken_engine_is_caught(self, capsys, monkeypatch):
        # Negative control: wire in an engine that inverts every verdict
        # and make sure the audit actually fails.
        real = cli.bridge_exists

        def inverted(g, s, f, direction):
            report = real(g, s, f, direction)
            return SearchReport(
                not report.exists, report.direction, report.path, report.passes, report.frontier_trace
            )

        monkeypatch.setattr(cli, "bridge_exists", inverted)
        assert cli.main(["check", "--trials", "5", "--seed", "3"]) == 3
        out = capsys.readouterr().out
        assert out == "0/5 agree\n"


    def test_agreeing_audit_prints_nothing_on_stderr(self, capsys):
        assert cli.main(["check", "--trials", "20", "--seed", "11"]) == 0
        assert capsys.readouterr().err == ""

    def test_first_disagreement_is_named_and_replayable(self, capsys, monkeypatch):
        # An oracle that errs on its 6th and 8th calls: trial 2 backward,
        # then trial 3 backward.  Only the first is named.  `check`
        # imports the oracle when it runs, so the oracle module is patched.
        real = oracle.brute_force_bridge
        calls = []

        def flaky(g, s, f, direction):
            calls.append(g)
            witness = real(g, s, f, direction)
            if len(calls) in (6, 8):
                return None if witness is not None else BridgePath((s, f), direction)
            return witness

        monkeypatch.setattr(oracle, "brute_force_bridge", flaky)
        argv = ["check", "--trials", "5", "--seed", "40", "--subjects", "3", "--objects", "2", "--p", "0.25"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "3/5 agree\n"
        lines = captured.err.splitlines()
        assert lines == [
            "first disagreement: seed 42, backward, frontier vs brute force; replay: "
            "takegrant gen --subjects 3 --objects 2 --p 0.25 --rights tgrw --seed 42"
        ]
        replay = lines[0].split("replay: takegrant ", 1)[1].split()
        assert cli.main(replay) == 0
        replayed = parse_graph(capsys.readouterr().out)
        assert replayed == calls[5]
        assert replayed == random_graph(RandomGraphSpec(3, 2, 0.25, frozenset(Right), 42))

    def test_wrong_length_witness_is_caught(self, capsys, monkeypatch):
        # An oracle whose witnesses exist exactly when they should, each
        # one arc too long: only comparing lengths can catch it.
        real = oracle.brute_force_bridge
        missing = []  # per call, whether the oracle found no witness

        def one_arc_long(g, s, f, direction):
            witness = real(g, s, f, direction)
            missing.append(witness is None)
            return witness and BridgePath((s, *witness.vertices), direction)

        monkeypatch.setattr(oracle, "brute_force_bridge", one_arc_long)
        assert cli.main(["check", "--trials", "6", "--seed", "3"]) == 3
        captured = capsys.readouterr()
        agree = sum(missing[i] and missing[i + 1] for i in range(0, len(missing), 2))
        assert 0 < agree < 6  # the seed gives trials with and without bridges
        assert captured.out == f"{agree}/6 agree\n"
        assert ", frontier vs brute force; replay: " in captured.err

    def test_wrong_shortest_witness_is_caught(self, capsys, monkeypatch):
        # An oracle whose witnesses have the right length but are the
        # largest id sequence of it, not the smallest: only comparing the
        # vertices can catch it.
        real = oracle.brute_force_bridge

        def largest_shortest(g, s, f, direction):
            witness = real(g, s, f, direction)
            if witness is None:
                return None
            step = g.t_successors if direction is Direction.FORWARD else g.t_predecessors
            objects = set(g.objects())
            heads = [(s,)]  # simple walks from s through objects, one arc short of f
            for _ in range(witness.length - 1):
                heads = [(*h, w) for h in heads for w in step(h[-1]) if w in objects and w not in h]
            return BridgePath(max((*h, f) for h in heads if f in step(h[-1])), direction)

        argv = ["check", "--trials", "20", "--seed", "1", "--objects", "6"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(oracle, "brute_force_bridge", largest_shortest)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "15/20 agree\n"
        assert captured.err.startswith("first disagreement: seed 1, forward, frontier vs brute force; ")

    def test_faithful_disagreement_names_that_pair(self, capsys, monkeypatch):
        real = oracle.bridge_exists_faithful

        def off_by_one(g, s, f, direction):
            report = real(g, s, f, direction)
            if direction is Direction.FORWARD:
                return report
            return SearchReport(
                report.exists, report.direction, report.path, report.passes + 1, report.frontier_trace
            )

        monkeypatch.setattr(oracle, "bridge_exists_faithful", off_by_one)
        assert cli.main(["check", "--trials", "4", "--seed", "9"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "0/4 agree\n"
        assert captured.err.startswith("first disagreement: seed 9, backward, frontier vs faithful; ")


class TestGenCommand:
    def test_fixed_seed_is_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.tgg", tmp_path / "b.tgg"
        assert cli.main(["gen", "--seed", "5", "-o", str(a)]) == 0
        assert cli.main(["gen", "--seed", "5", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_probability_vertices_only(self, tmp_path):
        out = tmp_path / "v.tgg"
        assert cli.main(["gen", "--p", "0", "--subjects", "2", "--objects", "1", "-o", str(out)]) == 0
        g = parse_graph(out.read_text(encoding="utf-8"))
        assert g.vertex_count == 3 and g.edge_count == 0

    def test_generated_file_round_trips(self, tmp_path):
        out = tmp_path / "g.tgg"
        assert cli.main(["gen", "--seed", "11", "--p", "0.4", "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        from takegrant import serialize_graph

        assert serialize_graph(parse_graph(text)) == text

    def test_stdout_output(self, capsys):
        assert cli.main(["gen", "--p", "0", "--subjects", "1", "--objects", "0"]) == 0
        assert capsys.readouterr().out == "tgg 1\nsubject s0\n"

    def test_unwritable_path(self, capsys):
        assert cli.main(["gen", "-o", "/nonexistent-dir/out.tgg"]) == 2

    def test_bad_rights_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--rights", "tz"])
        assert exc.value.code == 2

    def test_empty_spec(self, capsys):
        assert cli.main(["gen", "--subjects", "0", "--objects", "0"]) == 2

    def test_cli_large_graph_bytes_are_pinned(self, capsys):
        # sha256 of this stdout, recorded from the one-draw-at-a-time generator.
        argv = ["gen", "--subjects", "40", "--objects", "420", "--p", "0.03", "--rights", "tgrw", "--seed", "7"]
        assert cli.main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "cda1d63172402143a76063595abe75a681d4e56353573041c49c853c41662860"


class TestBufferedOutputIsWhole:
    """With Python's default buffering, the flush in entry and its
    os._exit neither lose nor change what main printed."""

    def test_large_gen_output_through_a_pipe(self):
        proc = run_cli(["gen", "--subjects", "20", "--objects", "400", "--p", "0.05", "--rights", "tgrw"])
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert len(proc.stdout) == 537_308
        spec = RandomGraphSpec(20, 400, 0.05, frozenset(Right(ch) for ch in "tgrw"), 1)
        assert proc.stdout == serialize_graph(random_graph(spec)).encode()

    @pytest.mark.parametrize(
        "argv",
        [
            ["islands", "{}"],
            ["bridges", "{}", "0", "1"],
            ["bridge", "{}", "s44", "s35", "--path"],
            ["bridge", "{}", "s0", "s1", "--json", "--path"],
        ],
        ids=["islands", "bridges", "bridge_found", "bridge_json_not_found"],
    )
    def test_subprocess_prints_what_main_prints(self, tmp_path, capsys, argv):
        path = str(tmp_path / "g.tgg")
        assert cli.main(["gen", "--subjects", "200", "--objects", "200", "--p", "0.004", "--seed", "3", "-o", path]) == 0
        args = [a.format(path) for a in argv]
        code = cli.main(args)
        out = capsys.readouterr().out
        proc = run_cli(args)
        assert (proc.returncode, proc.stdout) == (code, out.encode())
        assert out


class TestParserPlumbing:
    def test_import_pulls_in_no_dataclasses_inspect_or_json(self):
        # -S keeps site-packages .pth imports out of sys.modules.  The
        # oracle serves only `check` and `gen`, which import it themselves.
        code = (
            "import sys, takegrant.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'json', 'takegrant.oracle') "
            "if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\n"

    def test_queries_never_load_the_oracle(self, figure_file):
        # Both reference engines live in the oracle module, so a query
        # that runs to its end must not have loaded it.
        code = (
            "import sys, takegrant.cli as cli; f = sys.argv[1]; "
            "codes = [cli.main(argv) for argv in (['bridge', f, 's', 'f'], ['bridge', f, 's', 'f', '--json'], "
            "['bridges', f, '0', '1'], ['islands', f])]; "
            "print(codes, 'takegrant.oracle' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, figure_file],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"

    def test_star_import_and_dir_list_the_lazy_oracle_names(self):
        import takegrant

        assert set(takegrant.__all__) <= set(dir(takegrant))
        namespace: dict[str, object] = {}
        exec("from takegrant import *", namespace)
        assert set(takegrant.__all__) <= set(namespace)
        assert namespace["random_graph"] is oracle.random_graph
        assert namespace["bridge_exists_faithful"] is oracle.bridge_exists_faithful
        with pytest.raises(AttributeError, match="no attribute 'oracle_name'"):
            takegrant.oracle_name

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_retired_bench_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--sizes", "10"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{islands,bridge,bridges,check,gen}" in out
        assert "bench" not in out

    def test_entry_point_exists(self, figure_file):
        # The console script is declared in pyproject.toml; check the
        # declaration itself, so the test holds in a plain checkout
        # (PYTHONPATH=src) as well as after an install.
        import importlib
        import importlib.metadata as md

        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            declared = tomllib.load(fh)["project"]["scripts"]["takegrant"]
        assert declared == "takegrant.cli:entry"

        module_name, _, attr = declared.partition(":")
        target = getattr(importlib.import_module(module_name), attr)
        assert target is cli.entry and callable(target)

        # entry ends its process itself, so it runs in a child given a
        # sys.argv; the print after entry() shows it never returns.
        def run_entry(*args):
            code = (
                f"import sys, {module_name} as m; sys.argv = {['takegrant', *args]!r}; "
                f"m.{attr}(); print('entry returned')"
            )
            return subprocess.run(
                [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True, timeout=60,
            )

        proc = run_entry("islands", figure_file)
        assert proc.returncode == 0
        assert proc.stdout == "island 0: s\nisland 1: f\n"
        assert "entry returned" not in proc.stdout and proc.stderr == ""

        # A negative answer must reach the shell as main's 1, not as 0.
        proc = run_entry("bridge", figure_file, "s", "f", "--backward")
        assert proc.returncode == 1
        assert proc.stdout == "bridge t<-* s ~> f: NOT FOUND (passes 1)\n"

        # Where the package is installed, the generated script must point
        # at the same target as the declaration.
        try:
            dist = md.distribution("takegrant")
        except md.PackageNotFoundError:
            return
        installed = [
            ep.value for ep in dist.entry_points if ep.group == "console_scripts" and ep.name == "takegrant"
        ]
        assert installed == [declared]

"""The command line that ``frametc.cli`` reads, checked against an argparse
parser of the documented interface built here: same attribute values, or
exit 2 on both sides.  ``cli._plain`` reads the plain command lines without
importing argparse, and must never read one otherwise than argparse does."""

import argparse
import contextlib
import io
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frametc import cli
from frametc.algebra import DEFAULT_CAPACITY
from frametc.cuplength import DEFAULT_BUDGET


COMMON = ["--json", "--budget", "--capacity", "--threads", "--no-timing"]
# Each subcommand of the documented interface: its positional and options.
DOCUMENTED = {
    "ring": ("ring", ["--field", "--compute", *COMMON]),
    "frame-bundle": ("manifold", COMMON),
    "examples": ("keys", COMMON),
}


def reference_parser() -> argparse.ArgumentParser:
    """The documented interface, built with argparse."""
    parser = argparse.ArgumentParser(prog="frametc")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (positional, options) in DOCUMENTED.items():
        p = sub.add_parser(command)
        p.add_argument(positional, nargs="*" if positional == "keys" else None)
        for flag in options:
            if flag in ("--json", "--no-timing"):
                p.add_argument(flag, action="store_true")
            elif flag in ("--field", "--compute"):
                p.add_argument(flag, default="cl" if flag == "--compute" else None)
            else:
                default = {"--budget": DEFAULT_BUDGET, "--capacity": DEFAULT_CAPACITY}
                p.add_argument(flag, type=int, default=default.get(flag, 1))
    return parser


VALID = [
    ["ring", "rp:3", "--compute", "cl,basis"],
    ["ring", "rp:3", "--compute=cl,basis"],
    ["ring", "rp:3", "--compute=a=b"],
    ["ring", "--comp", "zcl-full", "rp:3"],
    ["ring", "--cap=7", "--no-t", "--j", "rp:3"],
    ["ring", "--field", "char=0", "rp:3", "--budget", "9", "--threads", "4"],
    ["ring", "rp:3", "--field="],
    ["ring", "rp:3", "--budget", "1", "--budget", "2"],
    ["ring", "rp:3", "--json", "--json"],
    ["ring", "rp:3", "--budget", "-5"],
    ["ring", "rp:3", "--budget", " 7 "],
    ["ring", "rp:3", "--field", "-5"],
    ["ring", "--", "-x"],
    ["frame-bundle", "--json", "s2", "--c", "3"],
    ["frame-bundle", "s2", "--no-timing"],
    ["examples"],
    ["examples", "--json"],
    ["examples", "rp1", "t2", "--json"],
    ["examples", "--budget", "5", "rp1", "t2", "s2"],
    ["examples", "rp1", "--", "t2"],
    ["examples", "rp1", "--", "--json"],
    ["examples", "--", "--", "rp1"],
    ["examples", "-5"],
]
INVALID = [
    [],
    ["bogus"],
    ["--json", "ring", "rp:3"],
    ["--", "ring", "rp:3"],
    ["ring", "rp:3", "--bogus"],
    ["ring", "rp:3", "-x"],
    ["ring", "rp:3", "--c", "5"],
    ["ring", "rp:3", "--budget"],
    ["ring", "rp:3", "--field", "--json"],
    ["ring", "rp:3", "--field", "--"],
    ["ring", "rp:3", "--budget", "x"],
    ["ring", "rp:3", "--capacity", "1.5"],
    ["ring", "rp:3", "--json=1"],
    ["ring"],
    ["frame-bundle", "--json"],
    ["ring", "rp:3", "extra"],
    ["ring", "rp:3", "--", "--json"],
    ["examples", "rp1", "--json", "t2"],
]


def parse(parse_args, argv):
    """The attributes ``parse_args(argv)`` sets, or the exit code it raises."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse_args(argv))
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_valid_argv_parses_as_argparse_does(argv):
    expected = parse(reference_parser().parse_args, argv)
    assert isinstance(expected, dict)
    assert parse(cli._parse_args, argv) == expected


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_invalid_argv_exits_2_as_argparse_does(argv):
    assert parse(reference_parser().parse_args, argv) == 2
    assert parse(cli._parse_args, argv) == 2


def test_usage_error_prints_usage_and_error_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ring", "rp:3", "--budget", "-5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: frametc ring ")
    assert err.endswith("\nframetc: error: --budget must be >= 0\n")


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["frametc", "ring", "rp:3", "--no-timing"])
    assert cli.main() == 0
    assert "cl: 3 (exact; method closed-form)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["ring", "--help"], ["ring", "rp:3", "-h"]])
def test_help_names_every_option_and_compute_item(argv, capsys, monkeypatch):
    # Help is 78 columns wide whatever COLUMNS says, so no word is split.
    outs = set()
    for columns in ("60", "77", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: frametc "), columns
        commands = DOCUMENTED if argv == ["--help"] else ["ring"]
        for command in commands:
            positional, options = DOCUMENTED[command]
            assert f"usage: frametc {command} " in out
            for word in ["-h, --help", positional, *options]:
                assert word in out, (columns, command, word)
        for item in cli._COMPUTE_CHOICES:
            assert item in out, (columns, item)
        outs.add(out)
    assert len(outs) == 1


# Every command; every flag in full, shortened and with "="; the other
# option-like tokens; and values: negative, padded, non-int and plain.
FLAGS = sorted({flag for _, options in DOCUMENTED.values() for flag in options})
TOKENS = (
    list(DOCUMENTED)
    + FLAGS
    + [flag[:4] for flag in FLAGS]
    + [f"{flag}=3" for flag in FLAGS]
    + ["--", "-", "-h", "-x", "-5", " 7 ", "1.5", "rp:3", "s2", "rp1", "t2", "9"]
)


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(
    head=st.lists(st.sampled_from(list(DOCUMENTED)), max_size=1),
    tail=st.lists(st.sampled_from(TOKENS), max_size=7),
)
def test_plain_reader_never_disagrees_with_argparse(head, tail):
    argv = head + tail
    plain = cli._plain(argv)
    if plain is not None:
        assert vars(plain) == parse(reference_parser().parse_args, argv)


def test_every_benchmark_call_is_plain(monkeypatch, tmp_path):
    # No benchmark child imports argparse: each argv the workloads run is
    # one that ``_plain`` reads.
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "bench"))
    import workloads

    try:
        for workload in workloads.WORKLOADS:
            for seed in (1, 2, 3):
                for inv in workloads.invocations(workload, seed, str(tmp_path)):
                    assert cli._plain(inv["argv"]) is not None, inv["argv"]
    finally:
        for name in ("workloads", "reencode"):
            sys.modules.pop(name, None)

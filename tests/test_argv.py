"""The command line (``cli.read_argv``: a one-pass reader for plain lines,
argparse built from the option table for the rest) against the argparse
parser that came before the table (``tests/reference_cli.py``).

For every command line, either both accept it and give the same command,
handler, inputs and option values, or both exit 2 (or, for help, both
exit 0).  The one announced difference: ``prove``'s inputs may follow its
options, where the old parser leaves them over as unrecognized arguments,
unless the line holds "--" and is not plain.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import reference_cli
from tabseq import cli

ORACLE = reference_cli.build_parser()


def outcome(read, argv: list[str]):
    """``("args", handler, attributes)`` for a command line ``read``
    accepts, else ``("exit", status)``; its printing is swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            result = read(list(argv))
        except SystemExit as e:
            return "exit", e.code
    return ("args",) + result


def table(argv):
    run, args = cli.read_argv(argv)
    return run, vars(args)


def oracle(argv):
    args = vars(ORACLE.parse_args(argv))
    return args.pop("run"), args


def interleaved(argv):
    """What the table should read from a ``prove`` command line that
    argparse refuses only because inputs follow options: the inputs
    argparse read, then those it left over, in order, without the first
    ``--`` (which ends the options), or None if argparse refuses it for
    another reason."""
    if argv[:1] != ["prove"]:
        return None
    result = outcome(ORACLE.parse_known_args, argv)
    if result[0] == "exit" or not result[2]:
        return None
    namespace, extras = result[1], list(result[2])
    if "--" in extras:
        extras.remove("--")
    args = vars(namespace)
    run = args.pop("run")
    return "args", run, {**args, "inputs": args["inputs"] + [Path(e) for e in extras]}


def assert_agree(argv):
    ours, theirs = outcome(table, argv), outcome(oracle, argv)
    if ours != theirs and ours[0] == "args":
        theirs = interleaved(argv) or theirs
    assert ours == theirs, argv


FLAGS = ("--negate", "--pretty")
# Each option that takes a value, with a value it accepts.
VALUED = {"--gamma-limit": "3", "--depth-limit": "9", "--emit": "gs3", "--out": "dir",
          "--goal": "g.p"}
VALUES = ("0", "-1", "-2.5", " 4", "x", "1e3", "tableau", "both", "bad", "")
INPUTS = ("a.p", "b.tab", "c.gs3", "-")
STRAYS = ("--", "--bogus", "-x", "--=1", "---", "-7")
COMMANDS = ("prove",) * 5 + ("translate",) * 3 + ("check",) * 3 + ("frobnicate",)


def spelled(rng: random.Random, name: str) -> str:
    """``name`` whole, or one of its prefixes of three or more characters."""
    if rng.random() < 0.5:
        return name
    return name[:rng.randint(3, len(name) - 1)]


def chunk(rng: random.Random) -> list[str]:
    """An option with or without its value, an input or a stray token."""
    kind = rng.randrange(10)
    if kind < 2:
        flag = spelled(rng, rng.choice(FLAGS))
        return [flag] if rng.random() < 0.9 else [f"{flag}={rng.choice(VALUES)}"]
    if kind < 5:
        name = rng.choice(list(VALUED))
        value = VALUED[name] if rng.random() < 0.5 else rng.choice(VALUES)
        name = spelled(rng, name)
        form = rng.random()
        return [name, value] if form < 0.6 else [f"{name}={value}"] if form < 0.85 else [name]
    if kind < 9:
        return [rng.choice(INPUTS)]
    return [rng.choice(STRAYS)]


def draw(rng: random.Random) -> list[str]:
    """A command line from the fixed vocabulary: sometimes empty, sometimes
    with a token before the command, which is one of the three or unknown."""
    if rng.random() < 0.02:
        return []
    argv = chunk(rng) if rng.random() < 0.1 else []
    if "--" in argv:  # argparse's reading of "--" before the command differs across versions
        argv = []
    argv.append(rng.choice(COMMANDS))
    for _ in range(rng.randrange(5)):
        argv += chunk(rng)
    return argv


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_table_reads_like_argparse(seed):
    rng = random.Random(seed)
    for _ in range(2000):
        assert_agree(draw(rng))


@pytest.mark.parametrize("argv", [
    # The command lines the cached argparse parser was checked on.
    ["prove", "a.p"],
    ["prove", "a.p", "b.p", "--negate", "--gamma-limit", "3", "--emit", "gs3"],
    ["prove", "a.p", "--depth-limit", "9", "--out", "dir", "--pretty"],
    ["translate", "a.tab"],
    ["translate", "a.tab", "--out", "a.gs3", "--pretty"],
    ["check", "a.gs3"],
    # The perfbench corpus command lines.
    ["prove", "--negate", "--emit", "both", "--out", "out", "in/g.p"],
    ["check", "out/g.gs3"],
    # Help wins over an unknown option before it, not over a bad value.
    ["prove", "--bogus", "-h"],
    ["--negate", "prove", "--help"],
    ["prove", "-h", "--emit", "bad"],
    ["prove", "a.p", "--emit", "bad", "-h"],
    ["-h"],
    ["--he"],
    ["prove", "--he"],
    # "--" ends the options; a later "--" is an input.
    ["prove", "--negate", "--", "a.p", "--", "--out"],
    ["prove", "--out", "--", "a.p"],
    ["translate", "a.tab", "--", "--"],
    ["translate", "a.tab", "--"],
    ["translate", "a.tab", "--out", "x", "--"],
    ["check", "--", "a.gs3", "--"],
    # Values: "=" takes any text, a negative number or a text with a space
    # is a value, and the empty text is a path.
    ["prove", "a.p", "--out=-x", "--gamma-limit", "-1", "--depth-limit= 5"],
    ["prove", "a.p", "--out", "- x", "--o y"],
    ["prove", "a.p", "--out="],
    ["prove", "-1", "-2.5", ""],
    ["prove", "a.p", "--out", "-x"],
    ["prove", "a.p", "--neg=1"],
    ["prove", "a.p", "--gamma-limit=x"],
    ["check", "a.gs3", "--go", "g.p", "--neg"],
    ["check", "a.gs3", "b.gs3"],
    [],
    ["frobnicate"],
    ["prove"],
    # Interleaved inputs with "--" and an abbreviated option, an "=" option
    # or "-" as an input: argparse refuses them, as the reader now does.
    ["prove", "c.gs3", "--pretty", "--prett", "--"],
    ["prove", "c.gs3", "--o=-1", "c.gs3", "--"],
    ["prove", "-", "--negate", "--gamma=3", "--"],
    # Interleaved inputs without "--", read by argparse's intermixed parse.
    ["prove", "a.p", "--neg", "b.p"],
])
def test_command_line_reads_like_argparse(argv):
    assert_agree(argv)


# One command line per reason for which the plain reader leaves a line to
# argparse.
DECLINED = [
    ["--negate", "prove", "a.p"],  # no command first
    ["translate", "a.tab", "b.tab"],  # a second input to a one-input command
    ["check", "--", "a.gs3"],  # "--" outside prove
    ["prove", "a.p", "--neg"],  # an option not written in full
    ["prove", "a.p", "--emit=gs3"],  # a value after "="
    ["prove", "a.p", "--gamma-limit", "-1"],  # a value that starts with "-"
    ["prove", "a.p", "--out"],  # no value
    ["prove", "a.p", "--depth-limit", "x"],  # a value that does not convert
    ["prove", "a.p", "--emit", "bad"],  # a value outside the choices
    ["prove", "-1"],  # an input that starts with "-"
    ["check", "a.gs3", "-h"],  # help
    ["prove", "--negate"],  # no input
]


@pytest.mark.parametrize("argv", DECLINED)
def test_lines_the_plain_reader_declines_read_like_argparse(argv):
    assert cli._plain(argv) is None
    assert_agree(argv)


# The benchmark corpus's two command lines and the check with a goal that
# CI runs: all plain.
PLAIN = [
    ["prove", "--negate", "--emit", "both", "--out", "out", "in/g.p"],
    ["check", "out/g.gs3"],
    ["check", "rerun/drinker.gs3", "--goal", "drinker.p", "--negate"],
]


def test_plain_lines_do_not_load_argparse():
    """In a fresh interpreter, importing the command line and reading the
    plain lines above leaves ``argparse`` unloaded."""
    code = ("import sys; loaded = 'argparse' in sys.modules; from tabseq import cli; "
            f"plain = [cli._plain(argv) is not None for argv in {PLAIN!r}]; "
            f"[cli.read_argv(argv) for argv in {PLAIN!r}]; "
            "print(loaded, all(plain), 'argparse' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True", "False"]


def test_prove_inputs_may_follow_options():
    """The one announced widening over argparse."""
    argv = ["prove", "a.p", "--negate", "b.p", "--", "--out"]
    assert outcome(oracle, argv) == ("exit", 2)
    run, args = cli.read_argv(argv)
    assert run is cli._run_prove and args.negate
    assert args.inputs == [Path("a.p"), Path("b.p"), Path("--out")]


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_exits_zero_and_names_every_option(command, capsys):
    argv = ["-h"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    commands = cli.COMMANDS.values() if command is None else [cli.COMMANDS[command]]
    for known in commands:
        assert known.name in out
        for name in ("-h", "--help", *(option.name for option in known.options)):
            assert name in out


def test_a_usage_error_names_the_command_and_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["prove", "a.p", "--emit", "bad"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: tabseq prove ")
    assert err[1].startswith("tabseq prove: error: argument --emit: invalid choice: 'bad'")

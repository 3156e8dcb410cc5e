"""Command-line front end: prove, translate, check.

``COMMANDS`` is the one table of commands and their options; the help is
built from it, and ``read_argv`` reads a command line with it in one pass.
It reads what argparse read for this table: ``--opt value``,
``--opt=value``, a unique prefix of an option's name, ``--`` to end the
options, and a value that starts with "-" only if it looks like a negative
number.  ``prove``'s inputs may also follow its options.  A usage error
prints the usage and the error on stderr and exits 2; ``-h`` prints the
help on stdout and exits 0.

Exit status: 0 on success (proof found / Accepted), 1 when the search is
exhausted or a proof is rejected, 2 on I/O, parse, or malformed-file
errors.
"""

from __future__ import annotations

import os
import re
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from . import gs3, tableau
from .formula import DepthError, Not, ParseError, parse, print_formula, print_term
from .tableau import Exhausted, render_tableau
from .translate import TranslateError, translate
from .tree import FormatError, indented

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INPUT = 2


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path}: not UTF-8 text: {e}")


def _write(path: Path, text: str) -> None:
    """Write ``text`` over ``path`` in place, making its directory only if
    the first open finds it missing.

    An existing file is not truncated on open but cut after the write, and
    only if it was longer: on ext4, truncating a file whose data is already
    on disk makes its close wait for writeback, which made rewriting a
    proof file several times dearer than writing over it.  A device or a
    pipe, such as ``/dev/null``, has size 0 and so is never cut, which it
    would refuse.  As before, the write is neither atomic nor synced.
    """
    data = text.encode("utf-8")
    try:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as out:
            size = os.fstat(fd).st_size
            out.write(data)
            if size > len(data):
                out.truncate()
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}")


class InputError(Exception):
    """An unreadable input or unwritable output: reported on stderr, with
    the path, and exit status 2."""


def _refused_write(e: DepthError) -> str:
    """The message for a proof the writers refuse, for prove and translate."""
    return f"cannot write the proof: nested too deeply: {e}"


def render_sequent(sequent: gs3.Sequent) -> str:
    """One sequent as the renderings and ``check`` write it: ``f1, f2 |-``."""
    return ", ".join(print_formula(f) for f in sequent) + " |-"


def render_proof(proof: gs3.GsProof) -> str:
    """Human-readable stacked rendering, root first, branches indented.

    Each distinct subproof, as ``proof_to_json`` numbers them, is rendered
    once, whether its copies are one node object or several.  One with two
    or more parents is numbered where it is first rendered, ``[n] sequent
    |-``, and is written ``[n] as above`` wherever it is met again, so the
    rendering of a shared proof grows with its distinct subproofs, not with
    the tree it unfolds to.
    """
    _, children, numbers, _ = gs3.subproofs(proof)
    parents = Counter(child for below in children for child in below)
    labels: dict[int, str] = {}  # key number -> "[n]"
    lines: list[str] = []

    def label(node: gs3.GsProof) -> str:
        rule = node.rule
        text = rule.name
        if node.principal is not None:
            text += f" on {print_formula(node.principal)}"
        if rule.witness is not None:
            text += f" [{print_term(rule.witness)}]"
        return text

    for indent, node, again in indented(proof, numbers.__getitem__):
        number = numbers[node]
        if again:
            lines.append(f"{indent}{labels[number]} as above")
            continue
        seq = render_sequent(node.sequent)
        if parents[number] > 1:
            labels[number] = f"[{len(labels) + 1}]"
            seq = f"{labels[number]} {seq}"
        lines.append(f"{indent}{seq}")
        if node.rule is not None:
            lines.append(f"{indent}-- {label(node)}")
        elif node.is_open:
            lines.append(f"{indent}-- (open)")
    return "\n".join(lines) + "\n"


def _prove_one(args: SimpleNamespace, path: Path) -> tuple[int, str]:
    text = _read(path)
    goal = parse(text)
    if args.negate:
        goal = Not(goal)
    result = tableau.prove([goal], gamma_limit=args.gamma_limit,
                           depth_limit=args.depth_limit)
    if isinstance(result, Exhausted):
        return EXIT_FAILED, f"{path}: Exhausted after {result.steps} steps: {result.reason}"

    out_dir = args.out if args.out is not None else path.parent
    lines = [f"{path}: proved with {tableau.rule_count(result.root)} tableau rules"]
    if args.emit in ("tableau", "both"):
        tab_path = out_dir / (path.stem + ".tab")
        _write(tab_path, tableau.tableau_to_json(result))
        lines.append(f"wrote {tab_path}")
    if args.emit in ("gs3", "both"):
        proof = translate(result)
        gs3_path = out_dir / (path.stem + ".gs3")
        _write(gs3_path, gs3.proof_to_json(proof))
        lines.append(f"wrote {gs3_path}")
    if args.pretty:
        lines.append(render_tableau(result).rstrip("\n"))
        if args.emit in ("gs3", "both"):
            lines.append(render_proof(proof).rstrip("\n"))
    return EXIT_OK, "\n".join(lines)


def _run_prove(args: SimpleNamespace) -> int:
    if args.gamma_limit < 1:
        raise ValueError("gamma limit must be at least 1")
    if args.depth_limit < 1:
        raise ValueError("depth limit must be at least 1")
    status = EXIT_OK
    for path in args.inputs:
        try:
            code, message = _prove_one(args, path)
        except (ParseError, InputError) as e:
            code, message = EXIT_BAD_INPUT, f"{path}: error: {e}"
        except DepthError as e:
            code, message = EXIT_BAD_INPUT, f"{path}: error: {_refused_write(e)}"
        except RecursionError:
            code, message = EXIT_BAD_INPUT, f"{path}: error: proof nested too deeply to build"
        print(message, file=sys.stdout if code == EXIT_OK else sys.stderr)
        status = max(status, code)
    return status


def _run_translate(args: SimpleNamespace) -> int:
    path = args.inputs[0]
    try:
        # ``translate`` audits the tableau before it builds anything.
        proof = translate(tableau.tableau_from_json(_read(path)))
    except (FormatError, tableau.AuditError) as e:
        print(f"{path}: malformed tableau proof: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        text = gs3.proof_to_json(proof)
    except DepthError as e:
        print(f"{path}: error: {_refused_write(e)}", file=sys.stderr)
        return EXIT_BAD_INPUT
    out_path = args.out if args.out is not None else path.with_suffix(".gs3")
    _write(out_path, text)
    # On stderr, so that ``--out /dev/stdout`` gives the proof file alone.
    print(f"wrote {out_path}", file=sys.stderr)
    if args.pretty:
        print(render_proof(proof).rstrip("\n"))
    return EXIT_OK


def _run_check(args: SimpleNamespace) -> int:
    if args.negate and args.goal is None:
        raise ValueError("--negate needs --goal")
    goal = None
    if args.goal is not None:
        try:
            goal = parse(_read(args.goal))
        except ParseError as e:
            raise InputError(f"{args.goal}: {e}")
        if args.negate:
            goal = Not(goal)
    path = args.inputs[0]
    try:
        proof = gs3.proof_from_json(_read(path))
    except FormatError as e:
        print(f"{path}: malformed sequent proof: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    result = gs3.check(proof)
    print(render_sequent(proof.sequent))
    # The goal, as a multiset of one formula, must be the end-sequent.
    if result and goal is not None and proof.sequent != (goal,):
        which = "negated goal" if args.negate else "goal"
        print(f"Rejected: the end-sequent is not the {which} in {args.goal}")
        return EXIT_FAILED
    print(result.describe())
    return EXIT_OK if result else EXIT_FAILED


# ------------------------------------------------------------ command line


class Option:
    """One option of a command.  ``read`` turns its value's text into the
    value; a flag has none, takes no value and sets ``True``.  ``choices``,
    if given, are the only values it takes.  In ``help``, ``{default}``
    stands for the default.  The value goes to the attribute ``dest``."""

    __slots__ = ("name", "default", "help", "read", "choices", "dest", "usage")

    def __init__(self, name, default, help, read=None, metavar="", choices=()):
        self.name, self.default, self.help = name, default, help
        self.read, self.choices = read, choices
        self.dest = name[2:].replace("-", "_")
        metavar = metavar or "{" + ",".join(choices) + "}"
        self.usage = name if read is None else f"{name} {metavar}"


HELP = Option("--help", None, "Show this help and exit.")
TOP_OPTIONS = {"-h": HELP, "--help": HELP}


class Command:
    """One subcommand: its handler, what it does, what its inputs are,
    whether it takes one or more inputs or exactly one, and its options;
    ``names`` holds them by name, ``-h`` and ``--help`` included, and
    ``defaults`` their defaults by attribute."""

    __slots__ = ("name", "run", "help", "inputs", "many", "options", "names", "defaults", "usage")

    def __init__(self, name, run, help, inputs, many, *options: Option):
        self.name, self.run, self.help, self.inputs, self.many = name, run, help, inputs, many
        self.options = options
        self.names = {**TOP_OPTIONS, **{option.name: option for option in options}}
        self.defaults = {option.dest: option.default for option in options}
        self.usage = " ".join(["tabseq", name, "[-h]", *(f"[{o.usage}]" for o in options),
                               "INPUT [INPUT ...]" if many else "INPUT"])


COMMANDS = {command.name: command for command in (
    Command(
        "prove", _run_prove, "Refute the formula in each input file.", "Formula files (.p).", True,
        Option("--negate", False, "Refute the negation of the input, i.e. prove it as a goal."),
        Option("--gamma-limit", 2,
               "Instantiations per universal formula and branch (default {default}).", int, "N"),
        Option("--depth-limit", 200, "Maximum branch length (default {default}).", int, "N"),
        Option("--emit", "both", "Which proof files to write (default {default}).", str,
               choices=("tableau", "gs3", "both")),
        Option("--out", None, "Output directory (default: next to each input).", Path, "DIR"),
        Option("--pretty", False, "Print stacked renderings of the proofs."),
    ),
    Command(
        "translate", _run_translate, "Compile a tableau proof file to a sequent proof.",
        "Tableau proof file (.tab).", False,
        Option("--out", None, "Output file (default: input with .gs3 suffix).", Path, "FILE"),
        Option("--pretty", False, "Print a stacked rendering of the sequent proof."),
    ),
    Command(
        "check", _run_check, "Verify a sequent proof file.", "Sequent proof file (.gs3).", False,
        Option("--goal", None,
               "Reject an accepted proof whose end-sequent is not the formula in FILE.", Path,
               "FILE"),
        Option("--negate", False, "With --goal: the end-sequent must be the goal's negation."),
    ),
)}
TOP_USAGE = "tabseq [-h] {" + ",".join(COMMANDS) + "} ..."
DESCRIPTION = """Refute formulas with free-variable tableaux and compile the proofs into
independently checkable sequent proofs."""

# argparse's test for an argument that starts with "-" but is no option.
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$").match


class UsageError(Exception):
    """A command line that ``read_argv`` refuses."""


def _option(names: dict[str, Option], token: str) -> tuple[str, Option | None, str | None] | None:
    """How ``token`` reads among the options ``names``, as argparse reads
    it: None for a positional argument, else the option's name, the option
    (None for an unknown one) and the value given after ``=`` (None without
    one).

    A name that is not in ``names`` may be a unique prefix of one
    (``--neg``).  A token that starts with "-" is still a positional if it
    is "-" alone, looks like a negative number or holds a space.
    """
    option = names.get(token)
    if option is not None:
        return token, option, None
    if token[:1] != "-" or len(token) == 1:
        return None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, names[name], value
    if token[1] == "-":
        matches = [known for known in names if known.startswith(name)]
        value = value if eq else None
    else:
        matches = [token[:2]] if token[:2] in names else []
        value = token[2:]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], names[matches[0]], value
    if _NEGATIVE_NUMBER(token) or " " in token:
        return None
    return token, None, None


def read_argv(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler that ``argv`` names and its arguments, read in one pass
    over ``argv`` with the command's row of ``COMMANDS``.

    The arguments hold ``command``, ``inputs`` (a list of ``Path``) and one
    attribute per option.  ``-h`` prints help on stdout and exits 0; a
    usage error prints the usage and the error on stderr and exits 2.
    """
    command = None
    names = TOP_OPTIONS
    values: dict[str, object] = {}
    inputs: list[Path] = []
    unknown: list[str] = []
    options_end = False
    i, count = 0, len(argv)
    after_input = -1
    try:
        while i < count:
            token = argv[i]
            i += 1
            if options_end:
                found = None
            elif token == "--":
                options_end = True
                # As argparse: a one-input command takes "--" only before
                # its input or right after it.
                if inputs and not command.many and i - 1 != after_input:
                    unknown.append(token)
                continue
            else:
                found = _option(names, token)
            if found is None:
                if command is None:
                    command = COMMANDS.get(token)
                    if command is None:
                        raise UsageError(f"invalid command: {token!r}")
                    names = command.names
                    values = command.defaults.copy()
                elif command.many or not inputs:
                    inputs.append(Path(token))
                    after_input = i
                else:
                    unknown.append(token)
                continue
            name, option, value = found
            if option is None:
                unknown.append(token)
            elif option.read is None:
                if value is not None:
                    raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
                if option is HELP:
                    print(_help(command))
                    sys.exit(EXIT_OK)
                values[option.dest] = True
            else:
                if value is None:
                    if i == count or argv[i] == "--" or _option(names, argv[i]) is not None:
                        raise UsageError(f"argument {name}: expected one argument")
                    value = argv[i]
                    i += 1
                if option.choices and value not in option.choices:
                    raise UsageError(f"argument {name}: invalid choice: {value!r} "
                                     f"(choose from {', '.join(option.choices)})")
                try:
                    values[option.dest] = option.read(value)
                except ValueError:
                    raise UsageError(f"argument {name}: invalid value: {value!r}") from None
        if command is None:
            raise UsageError("a command is required")
        if not inputs:
            raise UsageError("an INPUT is required")
        if unknown:
            raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    except UsageError as e:
        usage = TOP_USAGE if command is None else command.usage
        prog = usage[:usage.index(" [")]  # "tabseq" or "tabseq CMD"
        print(f"usage: {usage}\n{prog}: error: {e}", file=sys.stderr)
        sys.exit(EXIT_BAD_INPUT)
    return command.run, SimpleNamespace(command=command.name, inputs=inputs, **values)


def _help(command: Command | None) -> str:
    """The help for ``command``, or for the whole command line if None."""
    if command is None:
        lines = [f"usage: {TOP_USAGE}", "", DESCRIPTION, "", f"  -h, --help  {HELP.help}", "",
                 "commands:"]
        for known in COMMANDS.values():
            lines += [f"  {known.usage}", f"      {known.help}"]
        lines += ["", "Run 'tabseq COMMAND -h' for what a command's options do."]
        return "\n".join(lines)
    rows = [("INPUT ..." if command.many else "INPUT", command.inputs), ("-h, --help", HELP.help)]
    rows += [(option.usage, option.help.format(default=option.default))
             for option in command.options]
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"usage: {command.usage}", "", command.help, "", "arguments:"]
    lines += [f"  {left.ljust(width)}{right}" for left, right in rows]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    run, args = read_argv(sys.argv[1:] if argv is None else argv)
    try:
        status = run(args)
    except (ValueError, InputError, TranslateError) as e:  # ParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        status = EXIT_BAD_INPUT
    except RecursionError:
        print("error: proof nested too deeply to build", file=sys.stderr)
        status = EXIT_BAD_INPUT
    sys.exit(status)


if __name__ == "__main__":
    main()

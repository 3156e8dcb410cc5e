"""Command-line front end: prove, translate, check.

Exit status: 0 on success (proof found / Accepted), 1 when the search is
exhausted or a proof is rejected, 2 on I/O, parse, or malformed-file
errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from pathlib import Path

from . import gs3, tableau
from .formula import DepthError, Not, ParseError, parse, print_formula, print_term
from .tableau import Exhausted, render_tableau
from .translate import TranslateError, translate
from .tree import FormatError, indented

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INPUT = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call can share it.  Each subcommand sets
    ``run`` to its handler, which takes the parsed arguments."""
    parser = argparse.ArgumentParser(
        prog="tabseq",
        description="Refute formulas with free-variable tableaux and compile "
        "the proofs into independently checkable sequent proofs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="Refute the formula in each input file.")
    prove.add_argument("inputs", nargs="+", type=Path, help="Formula files (.p).")
    prove.add_argument(
        "--negate",
        action="store_true",
        help="Refute the negation of the input, i.e. prove it as a goal.",
    )
    prove.add_argument("--gamma-limit", type=int, default=2, metavar="N",
                       help="Instantiations per universal formula and branch (default 2).")
    prove.add_argument("--depth-limit", type=int, default=200, metavar="N",
                       help="Maximum branch length (default 200).")
    prove.add_argument("--emit", choices=("tableau", "gs3", "both"), default="both",
                       help="Which proof files to write (default both).")
    prove.add_argument("--out", type=Path, default=None, metavar="DIR",
                       help="Output directory (default: next to each input).")
    prove.add_argument("--pretty", action="store_true",
                       help="Print stacked renderings of the proofs.")
    prove.set_defaults(run=_run_prove)

    trans = sub.add_parser("translate", help="Compile a tableau proof file to a sequent proof.")
    trans.add_argument("inputs", nargs=1, type=Path, help="Tableau proof file (.tab).")
    trans.add_argument("--out", type=Path, default=None, metavar="FILE",
                       help="Output file (default: input with .gs3 suffix).")
    trans.add_argument("--pretty", action="store_true",
                       help="Print a stacked rendering of the sequent proof.")
    trans.set_defaults(run=_run_translate)

    check = sub.add_parser("check", help="Verify a sequent proof file.")
    check.add_argument("inputs", nargs=1, type=Path, help="Sequent proof file (.gs3).")
    check.set_defaults(run=_run_check)

    return parser


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path}: not UTF-8 text: {e}")


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, making its directory if it is missing."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}")


class InputError(Exception):
    """An unreadable input or unwritable output: reported on stderr, with
    the path, and exit status 2."""


def _refused_write(e: DepthError) -> str:
    """The message for a proof the writers refuse, for prove and translate."""
    return f"cannot write the proof: nested too deeply: {e}"


def render_proof(proof: gs3.GsProof) -> str:
    """Human-readable stacked rendering, root first, branches indented.

    Each distinct subproof, as ``proof_to_json`` numbers them, is rendered
    once, whether its copies are one node object or several.  One with two
    or more parents is numbered where it is first rendered, ``[n] sequent
    |-``, and is written ``[n] as above`` wherever it is met again, so the
    rendering of a shared proof grows with its distinct subproofs, not with
    the tree it unfolds to.
    """
    _, keys, numbers = gs3.subproofs(proof)
    parents = Counter(child for key in keys for child in key[3])
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

    for indent, node, again in indented(proof, lambda n: numbers[id(n)]):
        number = numbers[id(node)]
        if again:
            lines.append(f"{indent}{labels[number]} as above")
            continue
        seq = ", ".join(print_formula(f) for f in node.sequent)
        if parents[number] > 1:
            labels[number] = f"[{len(labels) + 1}]"
            seq = f"{labels[number]} {seq}"
        lines.append(f"{indent}{seq} |-")
        if node.rule is not None:
            lines.append(f"{indent}-- {label(node)}")
        elif node.is_open:
            lines.append(f"{indent}-- (open)")
    return "\n".join(lines) + "\n"


def _prove_one(args: argparse.Namespace, path: Path) -> tuple[int, str]:
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


def _run_prove(args: argparse.Namespace) -> int:
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


def _run_translate(args: argparse.Namespace) -> int:
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
    print(f"wrote {out_path}")
    if args.pretty:
        print(render_proof(proof).rstrip("\n"))
    return EXIT_OK


def _run_check(args: argparse.Namespace) -> int:
    path = args.inputs[0]
    try:
        proof = gs3.proof_from_json(_read(path))
    except FormatError as e:
        print(f"{path}: malformed sequent proof: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    result = gs3.check(proof)
    print(result.describe())
    return EXIT_OK if result else EXIT_FAILED


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    try:
        status = args.run(args)
    except (ValueError, InputError, TranslateError) as e:  # ParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        status = EXIT_BAD_INPUT
    except RecursionError:
        print("error: proof nested too deeply to build", file=sys.stderr)
        status = EXIT_BAD_INPUT
    sys.exit(status)


if __name__ == "__main__":
    main()

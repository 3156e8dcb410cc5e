"""The argparse command-line parser that ``cli.read_argv`` replaced, kept as
the oracle that the package's option table must agree with.

``build_parser`` is the old parser as it was, except that it is built anew
on each call (it was cached) and that ``check`` declares ``--goal FILE``
and ``--negate``, which were added with the table, as argparse would.  The
package's parser differs from it in one announced way: ``prove``'s inputs
may follow options (``prove a.p --negate b.p``), which argparse refuses as
unrecognized arguments.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from tabseq.cli import _run_check, _run_prove, _run_translate


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser.  Each subcommand sets ``run`` to its
    handler, which takes the parsed arguments."""
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
    # Added with the option table.
    check.add_argument("--goal", type=Path, default=None, metavar="FILE")
    check.add_argument("--negate", action="store_true")
    check.set_defaults(run=_run_check)

    return parser

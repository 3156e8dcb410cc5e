"""Refutation prover with free-variable tableaux, plus a compiler from
closed tableaux to ground one-sided sequent proofs and an independent
checker for the latter."""

from .formula import Formula, Meta, App, Var, Term, parse, print_formula
from .tableau import ClosedTableau, Exhausted, prove
from .gs3 import GsProof, check
from .translate import translate

__version__ = "0.1.0"

__all__ = [
    "App",
    "ClosedTableau",
    "Exhausted",
    "Formula",
    "GsProof",
    "Meta",
    "Term",
    "Var",
    "check",
    "parse",
    "print_formula",
    "prove",
    "translate",
    "__version__",
]

"""Syntactic unification over metavariables, and groundification.

A unifier is a plain ``dict`` from metavariable names to terms, applied
with ``formula.apply_subst``; a constraint is a pair of atoms.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Mapping, NamedTuple

from .formula import App, Atom, Formula, Meta, Term, apply_subst, free_metas, is_subterm


class Constraint(NamedTuple):
    """Two atoms to be made syntactically equal: ``pos = neg'`` for a
    closure on the pair (pos, ~neg').  Any other pair, two negated atoms
    or two terms among them, has no unifier."""

    lhs: Formula
    rhs: Formula


def solve(constraints: Iterable[Constraint], sigma: dict[str, Term] | None = None
          ) -> dict[str, Term] | None:
    """The most general idempotent unifier that extends the idempotent
    ``sigma`` (the empty one if None) and unifies ``constraints``, or None.

    ``sigma`` is left as it is, and is the result itself when every
    constraint's two sides are one atom (one interned object), as on a
    closure of two identical literals: such a constraint is skipped, not
    decomposed, and nothing is copied.  So a closure extends the search's
    unifier by its new pair alone (incremental closure, Giese 2001), and no
    caller may alter a unifier it is handed.

    Robinson-style worklist with the occurs check always on; a None result
    (a pair that is not two atoms, a symbol clash or an occurs-check
    failure) signals that a candidate closure is impossible.
    """
    work: list[tuple[Term, Term]] = []
    for lhs, rhs in constraints:
        if (type(lhs) is not Atom or type(rhs) is not Atom or lhs.predicate != rhs.predicate
                or len(lhs.args) != len(rhs.args)):
            return None
        if lhs is not rhs:
            work.extend(zip(lhs.args, rhs.args))
    if sigma is None:
        sigma = {}
    if not work:
        return sigma

    bindings = dict(sigma)
    while work:
        lhs, rhs = work.pop()
        lhs = apply_subst(bindings, lhs)
        rhs = apply_subst(bindings, rhs)
        if lhs == rhs:
            continue
        if not isinstance(lhs, Meta) and isinstance(rhs, Meta):
            lhs, rhs = rhs, lhs
        if isinstance(lhs, Meta):
            if rhs.has_meta and is_subterm(lhs, rhs):
                return None
            step = {lhs.name: rhs}
            for k in list(bindings):
                bindings[k] = apply_subst(step, bindings[k])
            bindings[lhs.name] = rhs
        elif isinstance(lhs, App) and isinstance(rhs, App):
            if lhs.symbol != rhs.symbol or len(lhs.args) != len(rhs.args):
                return None
            work.extend(zip(lhs.args, rhs.args))
        else:
            # distinct bound variables, or a bound variable against an
            # application: rigid, not unifiable
            return None
    return bindings


def consistent(sigma: dict[str, Term], extra: Iterable[Constraint]) -> bool:
    """True iff some unifier extends ``sigma`` and unifies ``extra``."""
    return solve(extra, sigma) is not None


def groundify(
    sigma: Mapping[str, Term],
    metas: Iterable[Meta] = (),
    avoid: Iterable[str] = (),
) -> dict[str, Term]:
    """Extend an idempotent unifier to a ground one, a new dict.

    Every metavariable left in the range of ``sigma``, and every
    metavariable of ``metas`` unbound by ``sigma``, is mapped to a distinct
    fresh constant ``k1, k2, ...`` (skipping names in ``avoid``).  The
    result subsumes ``sigma``.
    """
    avoid = set(avoid)
    constants = (App(name, ()) for name in map("k{}".format, count(1)) if name not in avoid)
    kappa: dict[str, Term] = {}
    for name in sorted(sigma):
        for m in free_metas(sigma[name]):
            if m.name not in kappa:
                kappa[m.name] = next(constants)
    for m in metas:
        if m.name not in sigma and m.name not in kappa:
            kappa[m.name] = next(constants)

    out = {name: apply_subst(kappa, t) for name, t in sigma.items()}
    out.update(kappa)
    return out

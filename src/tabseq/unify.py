"""Syntactic unification over metavariables, constraint stores, groundification.

A unifier is a plain ``dict`` from metavariable names to terms, applied
with ``formula.apply_subst``; a constraint is a pair of literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .formula import App, Atom, Formula, Meta, Not, Term, apply_subst, free_metas, is_subterm


class Constraint(NamedTuple):
    """Two literals to be made syntactically equal: two atoms or two
    negated atoms, the complementary pair a closure step stores.  Any other
    pair, a term pair included, has no unifier."""

    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class ConstraintStore:
    """Monotone set of pending constraints: rules only ever add.

    A store carries ``unifier``, the most general idempotent unifier of
    its constraints as a dict, or None if they have none.  A store built
    whole solves its constraints when ``unifier`` is first read; a store
    that ``add`` builds unifies only the added constraints under its
    base's unifier, so a closure costs its new pair, not the store
    (incremental closure, Giese 2001).  ``add`` keeps the store it built
    last, and hands it out again for the same constraints, so testing a
    closure with ``consistent`` and then adding its constraint unifies once.
    A store whose added constraints leave nothing to solve holds its
    base's unifier dict itself (see ``_unify``), so no one may alter it.
    """

    constraints: tuple[Constraint, ...] = ()
    # ``...`` until ``unifier`` is first read.
    _unifier: object = field(default=..., init=False, compare=False, repr=False)
    _added: ConstraintStore | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def unifier(self) -> Mapping[str, Term] | None:
        if self._unifier is ...:
            object.__setattr__(self, "_unifier", _unify({}, self.constraints))
        return self._unifier

    def add(self, *extra: Constraint) -> "ConstraintStore":
        added = self._added
        if added is None or added.constraints[len(self.constraints):] != extra:
            added = ConstraintStore(self.constraints + extra)
            unifier = self.unifier
            object.__setattr__(added, "_unifier",
                               None if unifier is None else _unify(unifier, extra))
            object.__setattr__(self, "_added", added)
        return added

    def __len__(self) -> int:
        return len(self.constraints)


def _unify(bindings: Mapping[str, Term], constraints: Iterable[Constraint]
           ) -> Mapping[str, Term] | None:
    """The most general idempotent unifier that extends the idempotent
    ``bindings`` and unifies ``constraints``, or None.  ``bindings`` is
    left as it is, and is the result itself when every constraint's two
    sides are one atom or negated atom (one interned object), as on a
    closure of two identical literals: such a constraint is skipped, not
    decomposed, and nothing is copied.  A store's unifier may thus be its
    base's, so no caller may alter a unifier it is handed.

    Robinson-style worklist with the occurs check always on; a None result
    (a pair that is not two atoms or two negated atoms, a symbol clash or
    an occurs-check failure) signals that a candidate closure is impossible.
    """
    work: list[tuple[Term, Term]] = []
    for lhs, rhs in constraints:
        if type(lhs) is Not and type(rhs) is Not:
            lhs, rhs = lhs.body, rhs.body
        if (type(lhs) is not Atom or type(rhs) is not Atom or lhs.predicate != rhs.predicate
                or len(lhs.args) != len(rhs.args)):
            return None
        if lhs is not rhs:
            work.extend(zip(lhs.args, rhs.args))
    if not work:
        return bindings

    bindings = dict(bindings)
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


def solve(store: ConstraintStore) -> dict[str, Term] | None:
    """Most general idempotent unifier of all constraints as a new dict,
    or None, found from the empty one whatever the store carries."""
    return _unify({}, store.constraints)


def consistent(store: ConstraintStore, extra: Iterable[Constraint]) -> bool:
    """True iff the store extended by ``extra`` still has a unifier; only
    ``extra`` is unified, under the store's unifier (see ``ConstraintStore``)."""
    return store.add(*extra).unifier is not None


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
    taken = set(avoid)
    counter = 0

    def fresh() -> App:
        nonlocal counter
        while True:
            counter += 1
            name = f"k{counter}"
            if name not in taken:
                taken.add(name)
                return App(name, ())

    kappa: dict[str, Term] = {}
    for name in sorted(sigma):
        for m in free_metas(sigma[name]):
            if m.name not in kappa:
                kappa[m.name] = fresh()
    for m in metas:
        if m.name not in sigma and m.name not in kappa:
            kappa[m.name] = fresh()

    out = {name: apply_subst(kappa, t) for name, t in sigma.items()}
    out.update(kappa)
    return out

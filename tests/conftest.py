"""Shared test helpers: a seeded random formula builder, and a count of
the nodes the memoised formula walks visit."""

from __future__ import annotations

import random
from collections import Counter

from tabseq import formula as formula_module
from tabseq.formula import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Meta,
    Not,
    Or,
    Term,
    Var,
)

PREDICATES = ("P", "Q", "R", "S")
CONSTANTS = ("a", "b", "c")
FUNCTIONS = (("f", 1), ("g", 2))


def random_term(rng: random.Random, env: tuple[str, ...], depth: int = 2) -> Term:
    roll = rng.random()
    if env and roll < 0.35:
        return Var(rng.choice(env))
    if depth > 0 and roll < 0.55:
        name, arity = rng.choice(FUNCTIONS)
        return App(name, tuple(random_term(rng, env, depth - 1) for _ in range(arity)))
    return App(rng.choice(CONSTANTS), ())


def random_formula(rng: random.Random, depth: int = 3) -> Formula:
    """Well-formed closed formula with unique binder names (v0, v1, ...)."""
    counter = [0]

    def build(d: int, env: tuple[str, ...]) -> Formula:
        if d == 0 or rng.random() < 0.3:
            pred = rng.choice(PREDICATES)
            nargs = rng.randrange(0, 3)
            return Atom(pred, tuple(random_term(rng, env) for _ in range(nargs)))
        kind = rng.randrange(6)
        if kind == 0:
            return Not(build(d - 1, env))
        if kind == 1:
            return And(build(d - 1, env), build(d - 1, env))
        if kind == 2:
            return Or(build(d - 1, env), build(d - 1, env))
        if kind == 3:
            return Implies(build(d - 1, env), build(d - 1, env))
        var = f"v{counter[0]}"
        counter[0] += 1
        ctor = Forall if kind == 4 else Exists
        return ctor(var, build(d - 1, env + (var,)))

    return build(depth, ())


def random_formula_with_metas(rng: random.Random, metas: tuple[str, ...], depth: int = 2) -> Formula:
    """Like random_formula but atoms may mention the given metavariables."""
    f = random_formula(rng, depth)

    def sprinkle_term(t: Term) -> Term:
        if isinstance(t, App) and t.args:
            return App(t.symbol, tuple(sprinkle_term(a) for a in t.args))
        if isinstance(t, App) and rng.random() < 0.4:
            return Meta(rng.choice(metas))
        return t

    def sprinkle(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.predicate, tuple(sprinkle_term(a) for a in g.args))
        if isinstance(g, Not):
            return Not(sprinkle(g.body))
        if isinstance(g, And):
            return And(sprinkle(g.left), sprinkle(g.right))
        if isinstance(g, Or):
            return Or(sprinkle(g.left), sprinkle(g.right))
        if isinstance(g, Implies):
            return Implies(sprinkle(g.left), sprinkle(g.right))
        if isinstance(g, Forall):
            return Forall(g.var, sprinkle(g.body))
        return Exists(g.var, sprinkle(g.body))

    return sprinkle(f)


def subnodes(items) -> set:
    """The formulas and terms of ``items`` and every part of one, each once."""
    out: set = set()
    stack = list(items)
    while stack:
        x = stack.pop()
        if x in out:
            continue
        out.add(x)
        if isinstance(x, (Atom, App)):
            stack.extend(x.args)
        elif isinstance(x, (Not, Forall, Exists)):
            stack.append(x.body)
        elif isinstance(x, (And, Or, Implies)):
            stack += [x.left, x.right]
    return out


def count_memo_walk(monkeypatch, module, own=None) -> Counter:
    """Count, per node, the visits of the memoised walks ``module`` makes
    through ``formula.mark_any``, or only of those that test ``own`` if it
    is given: the calls of the walk's test, which ``mark_any`` makes once
    per node it enters."""
    visits: Counter = Counter()
    mark_any = formula_module.mark_any

    def counted_mark_any(items, memo, test):
        if own is not None and test is not own:
            return mark_any(items, memo, test)

        def counted(x):
            visits[x] += 1
            return test(x)

        return mark_any(items, memo, counted)

    monkeypatch.setattr(module, "mark_any", counted_mark_any)
    return visits

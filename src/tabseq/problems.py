"""Named example goals, a nested-drinker growth family, a seeded
generator of provable instances, and one deep closed tableau.

Everything here states goals positively; refute the negation to prove one.
"""

from __future__ import annotations

import random

from .formula import And, App, Atom, Forall, Formula, Meta, Not, Var, parse, print_formula
from .tableau import ClosedTableau, NameSupply, TableauNode, close, expand
from .unify import ConstraintStore

DRINKER = "exists x. (D(x) => forall y. D(y))"

# Two existential steps whose Skolem terms end up nested inside each other,
# which forces the recursive graft during translation.
NESTED_SKOLEM = "exists x. (D(x) => forall y. exists z. (E(y, z) => forall w. E(z, w)))"

HAND_GOALS: list[tuple[str, str]] = [
    ("drinker", DRINKER),
    ("identity", "P => P"),
    ("forall-inst", "(forall x. P(x)) => P(a)"),
    ("excluded-middle", "P | ~P"),
    ("no-contradiction", "~(P & ~P)"),
    ("peirce", "((P => Q) => P) => P"),
    ("and-commute", "(P & Q) => (Q & P)"),
    ("distribution", "(P => (Q => R)) => ((P => Q) => (P => R))"),
    ("forall-mp", "(forall x. (P(x) => Q(x))) => ((forall x. P(x)) => (forall x. Q(x)))"),
    ("exists-or-none", "(exists x. P(x)) | (forall x. ~P(x))"),
    ("not-exists-all", "(~ exists x. P(x)) => forall x. ~P(x)"),
    ("all-not-exists", "(forall x. ~P(x)) => ~ exists x. P(x)"),
    ("nested-skolem", NESTED_SKOLEM),
    ("parametric-drinker", "forall u. exists x. (D(u, x) => forall y. D(u, y))"),
    ("forall-swap", "(forall x. forall y. R(x, y)) => (forall y. forall x. R(x, y))"),
    ("exists-swap", "(exists x. exists y. R(x, y)) => (exists y. exists x. R(x, y))"),
    ("forall-and-split", "(forall x. (P(x) & Q(x))) => ((forall x. P(x)) & (forall x. Q(x)))"),
    ("or-of-foralls", "((forall x. P(x)) | (forall x. Q(x))) => forall x. (P(x) | Q(x))"),
    ("exists-and-split", "(exists x. (P(x) & Q(x))) => ((exists x. P(x)) & (exists x. Q(x)))"),
    # A disjunction to split before the existential step gets grafted, so
    # the graft duplicates a pending branch.
    ("drinker-under-or", "~((~ exists x. (D(x) => forall y. D(y))) & (P | (C | E)))"),
]


def growth_goal(k: int) -> Formula:
    """Conjunction of k independently named drinker instances.

    Each conjunct costs the tableau a constant number of rules, while every
    translated existential step clones the sequent proof built so far, so
    the proof-size ratio grows with k.  The conjunction is right-nested and
    re-parsed whole, which renames the conjuncts' binders apart as every
    parsed formula's are.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    conjuncts = [
        parse(f"exists x. (D{i}(x) => forall y. D{i}(y))") for i in range(1, k + 1)
    ]
    goal = conjuncts[-1]
    for f in reversed(conjuncts[:-1]):
        goal = And(f, goal)
    return parse(print_formula(goal))


_PROP = ("P", "Q", "R", "S")

_SCHEMAS = (
    "{a} => {a}",
    "{a} | ~{a}",
    "~({a} & ~{a})",
    "({a} & {b}) => {a}",
    "{a} => ({a} | {b})",
    "(({a} => {b}) => {a}) => {a}",
    "({a} => {b}) => (({b} => {c}) => ({a} => {c}))",
    "({a} => {b}) => (~{b} => ~{a})",
    "~~{a} => {a}",
    "({a} & ({a} => {b})) => {b}",
    "(({a} | {b}) & ~{a}) => {b}",
    "~({a} | {b}) => (~{a} & ~{b})",
    "(~{a} & ~{b}) => ~({a} | {b})",
    "exists x. ({u}(x) => forall y. {u}(y))",
    "(forall x. {u}(x)) => {u}({t})",
    "(forall x. ({u}(x) => {v}(x))) => ((exists x. {u}(x)) => exists x. {v}(x))",
    "(exists x. ~{u}(x)) => ~forall x. {u}(x)",
    "(~ exists x. {u}(x)) => forall x. ~{u}(x)",
)


def _small_formula(rng: random.Random, depth: int = 2) -> str:
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(_PROP)
    shape = rng.randrange(4)
    a = _small_formula(rng, depth - 1)
    b = _small_formula(rng, depth - 1)
    if shape == 0:
        return f"({a} & {b})"
    if shape == 1:
        return f"({a} | {b})"
    if shape == 2:
        return f"({a} => {b})"
    return f"(~{a})"


def generated_goals(count: int, seed: int = 0) -> list[tuple[str, Formula]]:
    """Deterministic provable goals, schema instances with random fillings."""
    rng = random.Random(seed)
    out: list[tuple[str, Formula]] = []
    for i in range(count):
        schema = rng.choice(_SCHEMAS)
        text = schema.format(
            a=_small_formula(rng),
            b=_small_formula(rng),
            c=_small_formula(rng),
            u=rng.choice(("U", "V", "W")),
            v=rng.choice(("U", "V", "W")),
            t=rng.choice(("a", "b", "f(a)")),
        )
        out.append((f"gen{i:03d}", parse(text)))
    return out


def corpus(generated: int = 40, seed: int = 0) -> list[tuple[str, Formula]]:
    """Hand-written goals plus generated instances; all provable by refuting
    their negations with default limits."""
    goals = [(name, parse(text)) for name, text in HAND_GOALS]
    goals.append(("growth-2", growth_goal(2)))
    goals.append(("growth-3", growth_goal(3)))
    goals.extend(generated_goals(generated, seed))
    return goals


def deep_tableau(steps: int) -> ClosedTableau:
    """The closed tableau of ``forall x. P(x), ~P(a)`` with ``steps`` gamma
    steps on ``forall x. P(x)`` along one branch, closed on the first
    instance against ``~P(a)``: every metavariable is bound to ``a``, so
    its translation is one branch whose sequents repeat ``P(a)`` up to
    ``steps`` times."""
    forall_p = Forall("x", Atom("P", (Var("x"),)))
    p_a = Atom("P", (App("a", ()),))
    root = node = TableauNode((forall_p, Not(p_a)))
    names = NameSupply({"P", "a"})
    for _ in range(steps):
        expand(node, forall_p, names)
        (node,) = node.children
    close(node, ConstraintStore(), Atom("P", (Meta("X1"),)), Not(p_a))
    unifier = {f"X{i}": App("a", ()) for i in range(1, steps + 1)}
    return ClosedTableau(root, unifier)

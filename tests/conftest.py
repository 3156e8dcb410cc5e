"""Shared test helpers: a seeded random formula builder, a count of the
function-symbol sets the formula nodes make, the upgrade script run
in-process and a version-1 ``.tab`` writer to feed it, the path lookup and
rule listings of proof trees that only tests use, and the translator's
records of a proof built by hand."""

from __future__ import annotations

import functools
import importlib.util
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from tabseq import formula as formula_module
from tabseq.tree import Path as TreePath, format_path, iter_nodes, postorder
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
    print_formula,
    print_term,
)
from tabseq.tableau import closure_constraints

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


def forget_symbols(items) -> set:
    """Clear the ``symbols`` slot of the formulas and terms of ``items`` and
    of every part of one, as it is on a node just built; those nodes."""
    nodes = subnodes(items)
    for x in nodes:
        object.__setattr__(x, "symbols", None)
    return nodes


def count_symbol_sets(monkeypatch) -> Counter:
    """Count, per node, the sets ``formula.symbols_of`` makes from now on:
    the writes of a set to a ``symbols`` slot."""
    made: Counter = Counter()
    set_field = formula_module._set_field

    def counted(node, name, value):
        if name == "symbols" and value is not None:
            made[node] += 1
        set_field(node, name, value)

    monkeypatch.setattr(formula_module, "_set_field", counted)
    return made


UPGRADE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "upgrade_files.py"


@functools.cache
def upgrade_module():
    """``scripts/upgrade_files.py`` as a module, loaded once."""
    spec = importlib.util.spec_from_file_location("upgrade_files", UPGRADE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_upgrade(argv: list[str]) -> int:
    """``scripts/upgrade_files.py`` run in-process on ``argv``; its exit
    status.  An exception it does not turn into a message fails the test."""
    with pytest.raises(SystemExit) as exc:
        upgrade_module().main(argv)
    return exc.value.code


def v1_tableau_text(ct) -> str:
    """A version-1 ``.tab`` of the closed tableau ``ct``, as the first
    writers wrote one: a nested record per node, formulas and terms as
    text, the closure pairs as ``store``.  It hands the upgrade script a
    small tableau that version 4 cannot hold; it recurses per level."""
    def record(node) -> dict:
        out = {"formulas": [print_formula(f) for f in node.formulas], "rule": None,
               "children": [record(child) for child in node.children], "closed": node.closed}
        rule = node.rule
        if rule is not None:
            out["rule"] = {"class": rule.kind,
                           "principal": (None if rule.principal is None
                                         else print_formula(rule.principal)),
                           "introduced": [[print_formula(f) for f in child]
                                          for child in rule.introduced]}
            if rule.meta is not None:
                out["rule"]["meta"] = print_term(rule.meta)
            if rule.skolem is not None:
                out["rule"]["skolem"] = print_term(rule.skolem)
            if rule.closure_pair is not None:
                out["rule"]["closure_pair"] = [print_formula(f) for f in rule.closure_pair]
        return out

    return json.dumps({
        "root": record(ct.root),
        "store": [[print_formula(lhs), print_formula(rhs)]
                  for lhs, rhs in closure_constraints(ct.root)],
        "unifier": [f"{m} := {print_term(t)}" for m, t in sorted(ct.unifier.items())],
    })


# ------------------------------------------------------------- proof trees


class PathError(IndexError):
    """A path names no node of the tree."""


def node_at(root, path: TreePath):
    """The node of a tableau or sequent-proof tree at ``path``."""
    node = root
    for bit in path:
        try:
            node = node.children[bit]
        except IndexError:
            raise PathError(f"no node at path {format_path(path)}") from None
    return node


def open_leaves(root) -> list[TreePath]:
    """The paths of a sequent proof's open leaves, in preorder."""
    return [p for p, n in iter_nodes(root) if n.is_open]


def rule_names(root) -> list[str]:
    """A sequent proof's rule names in preorder; on a single branch this is
    root-to-leaf order."""
    return [n.rule.name for _, n in iter_nodes(root) if n.rule is not None]


def rule_kinds(root) -> list[str]:
    """A tableau's rule kinds in preorder; on one-branch tableaux this is
    root-to-leaf order."""
    return [n.rule.kind for _, n in iter_nodes(root) if n.rule is not None]


def tableau_shape(ct) -> tuple:
    """What a closed tableau holds, for comparing two copies, since tableau
    nodes compare by identity: each node's path, formulas, rule and closed
    flag in preorder, and the unifier."""
    return ([(p, n.formulas, n.rule, n.closed) for p, n in iter_nodes(ct.root)],
            ct.unifier)


def spine_rule_names(root, *, coalesce_weaken: bool = False) -> list[str]:
    """Rule names along a sequent proof's leftmost branch, root to leaf.

    With ``coalesce_weaken`` set, a run of consecutive weakenings counts as
    one entry, matching how stacked derivations display them.
    """
    names: list[str] = []
    node = root
    while node.rule is not None:
        names.append(node.rule.name)
        if not node.children:
            break
        node = node.children[0]
    if coalesce_weaken:
        out: list[str] = []
        for name in names:
            if name == "weaken" and out and out[-1] == "weaken":
                continue
            out.append(name)
        return out
    return names


def builder_records(proof) -> tuple[list, set, set]:
    """What the translator's builder records of a proof it grows, found by
    a walk, for tests that graft onto or replace the Skolem terms of a
    proof built by hand: the node objects, root first and each after all
    its parents; the distinct formulas of their sequents; the distinct
    witnesses of their rules."""
    nodes = postorder(proof)[::-1]
    formulas = {f for node in nodes for f in node.sequent}
    witnesses = {node.rule.witness for node in nodes
                 if node.rule is not None and node.rule.witness is not None}
    return nodes, formulas, witnesses

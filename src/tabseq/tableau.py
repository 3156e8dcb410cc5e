"""Tableau trees and a bounded deterministic refutation engine.

A tableau is kept whole as a tree: nodes carry the multiset of formulas
collected so far (non-destructive rules only ever append), and each node
but an open leaf is labelled by the rule applied at it; a closure is the
rule of a leaf, as an axiom is in a sequent proof.  Paths address nodes as
0/1 sequences, the root being the empty sequence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, NamedTuple

from .formula import (
    App,
    Atom,
    Formula,
    Meta,
    Not,
    Table,
    Term,
    apply_subst,
    encode_table,
    free_metas,
    print_formula,
    print_term,
    symbols_of,
)
from .gs3 import BARE_RULES, RULE_GROUPS, GsRule, premise_additions, rule_name
from .tree import (
    FormatError,
    MAX_OCCURRENCES,
    Path,
    dump_json,
    entry_index,
    file_version,
    indented,
    iter_nodes,
    load_json,
    path_of,
    postorder,
    preorder,
)
from .unify import Constraint, groundify, solve

# Nothing here calls ``parse``, ``parse_term``, ``replace_at`` or
# ``consistent``.  They stay bound in this module because the benchmark's
# tracer (``WRAPPED`` in ``perfbench/spans.py``) looks each of them up here
# by name, and a traced run fails on a missing one.
from .formula import parse, parse_term
from .tree import replace_at
from .unify import consistent

CLOSURE = "closure"


class TableauError(ValueError):
    pass


class AuditError(AssertionError):
    """A structural invariant of a tableau failed."""


class RuleInstance(NamedTuple):
    """The rule applied at an internal node; a named tuple, which costs
    less than half of a frozen dataclass to build.

    ``kind`` is one of alpha/beta/gamma/delta/closure; ``introduced`` lists
    the formulas added per child, of which a closure has none.  ``witness``
    is a gamma rule's fresh metavariable or a delta rule's Skolem term over
    the metavariables of the principal's body, else None; a closure carries
    the complementary pair (positive literal, negated literal).
    """

    kind: str
    principal: Formula | None
    introduced: tuple[tuple[Formula, ...], ...]
    witness: Term | None = None
    closure_pair: tuple[Formula, Formula] | None = None


@dataclass(slots=True, eq=False)
class TableauNode:
    """A tableau node; ``expand`` and ``close`` set the rule and children of
    an open leaf, a node without a rule, in place, once.  A node compares
    and hashes by identity."""

    formulas: tuple[Formula, ...]
    rule: RuleInstance | None = None
    children: tuple["TableauNode", ...] = ()


@dataclass(frozen=True)
class ClosedTableau:
    """A fully closed tableau with its ground unifier, a dict from
    metavariable names to terms that ``formula.apply_subst`` applies, which
    equates the two sides of every closure pair (see ``ground``)."""

    root: TableauNode
    unifier: dict[str, Term]


@dataclass(frozen=True)
class Exhausted:
    """Search gave up within its limits; the input may still be refutable."""

    reason: str
    steps: int


class NameSupply:
    """Per-session counters for fresh metavariables and Skolem symbols.

    Owned by one prover session; names already occurring in the input are
    skipped so generated symbols can never collide with user constants.
    """

    def __init__(self, avoid: Iterable[str] = ()):
        avoid = set(avoid)
        self._metas = (Meta(name) for name in map("X{}".format, count(1)) if name not in avoid)
        self._skolems = (name for name in map("sko{}".format, count(1)) if name not in avoid)

    def fresh_meta(self) -> Meta:
        return next(self._metas)

    def fresh_skolem_symbol(self) -> str:
        return next(self._skolems)


# ------------------------------------------------------------- tree helpers


def open_leaves(root: TableauNode) -> list[Path]:
    return [p for p, n in iter_nodes(root) if n.rule is None]


def rule_count(root: TableauNode) -> int:
    return sum(1 for n in preorder(root) if n.rule is not None)


def closure_constraints(root: TableauNode) -> list[Constraint]:
    """The constraint ``pos = neg'`` of each closure pair (pos, ~neg') in
    preorder, the ``store`` of ``render_tableau`` and of an old ``.tab``; a
    second side that is no negation, which the audit refuses, stands as it is."""
    return [Constraint(pos, neg.body if type(neg) is Not else neg)
            for pos, neg in (n.rule.closure_pair for n in preorder(root)
                             if n.rule is not None and n.rule.closure_pair is not None)]


# ------------------------------------------------------------------- rules


def expand(node: TableauNode, principal: Formula, names: NameSupply) -> None:
    """Apply the alpha/beta/gamma/delta rule for ``principal`` at an open leaf.

    The leaf is extended in place.  Children receive the leaf's multiset
    plus the formulas the sequent rule of the same name adds to each
    premise, its witness being a fresh metavariable (gamma) or a Skolem
    term over the principal's metavariables (delta): the rule is
    ``_expansion``'s, which the ``.tab`` reader derives again from the
    principal and witness.  No expansion binds a metavariable, so the
    search's unifier is untouched.
    """
    if node.rule is not None:
        raise TableauError("node is not an open leaf")
    # Searched from the end: the principal is mostly a recent formula.
    if principal not in reversed(node.formulas):
        raise TableauError(f"principal {print_formula(principal)} not at leaf")
    name = rule_name(principal)
    kind = RULE_GROUPS.get(name)
    if kind is None:
        raise TableauError(f"cannot expand literal {print_formula(principal)}")
    witness = None
    if kind == "gamma":
        witness = names.fresh_meta()
    elif kind == "delta":
        witness = App(names.fresh_skolem_symbol(), free_metas(principal))
    node.rule = rule = _instance(name, kind, principal, witness)
    formulas = node.formulas
    node.children = tuple([TableauNode(formulas + extra) for extra in rule.introduced])


_WITNESSES = {"gamma": (Meta, "a metavariable"), "delta": (App, "a Skolem term")}


def _expansion(principal: Formula, witness: Term | None) -> RuleInstance:
    """The rule ``expand`` makes for ``principal`` with ``witness``: its
    class is the principal's rule group and its introduced formulas are
    ``gs3.premise_additions``.  FormatError for a literal principal, or a
    witness of another sort than the rule takes (gamma and delta the ones
    in ``_WITNESSES``, the others none)."""
    name = rule_name(principal)
    if name is None:
        raise FormatError(f"the literal {print_formula(principal)} is no principal")
    kind = RULE_GROUPS[name]
    sort, what = _WITNESSES.get(kind, (type(None), "no witness"))
    if type(witness) is not sort or sort is App and not witness.is_skolem:
        raise FormatError(f"{kind} rule takes {what}")
    return _instance(name, kind, principal, witness)


def _instance(name: str, kind: str, principal: Formula, witness: Term | None) -> RuleInstance:
    """``_expansion``'s rule for a principal of rule ``name`` and class ``kind``."""
    rule = BARE_RULES[name] if witness is None else GsRule(name, witness)
    # Built without keyword arguments, which cost a named tuple about half again.
    return RuleInstance(kind, principal, premise_additions(rule, principal), witness, None)


def _rule_fault(node: TableauNode) -> str | None:
    """What keeps ``node``'s rule from being one that ``expand`` or
    ``close`` makes, or None: an expansion must be ``_expansion``'s for its
    principal and witness, with one child per premise; a closure must be a
    pair of formulas, with no children; a node without a rule has none."""
    rule = node.rule
    if rule is None:
        return "rule-less node has children" if node.children else None
    if rule.kind == CLOSURE:
        pair = rule.closure_pair
        made = type(pair) is tuple and len(pair) == 2 and (CLOSURE, None, (), None, pair)
        fault = "closure is not a pair with no children"
    else:
        try:
            made = rule.principal is not None and _expansion(rule.principal, rule.witness)
        except FormatError:
            made = None
        fault = f"{rule.kind} rule is not the expansion of its principal"
    return fault if rule != made or len(node.children) != len(rule.introduced) else None


def close(node: TableauNode, sigma: dict[str, Term], pos: Formula,
          neg: Formula) -> dict[str, Term] | None:
    """Close an open leaf on the complementary pair (pos, neg).

    Solves the constraint ``pos = neg'`` (neg being ``~neg'``) under the
    unifier ``sigma`` and closes the leaf in place, returning the extended
    unifier, or returns None (refused, nothing changed) when the pair has
    no unifier that extends ``sigma``.  ``sigma`` is never altered; it is
    the result itself when the pair binds nothing.
    """
    if node.rule is not None:
        raise TableauError("node is not an open leaf")
    if not isinstance(pos, Atom) or not isinstance(neg, Not) or not isinstance(neg.body, Atom):
        raise TableauError("closure needs an atom and a negated atom")
    # Searched from the end: ``prove`` pairs a literal the leaf's rule
    # introduced, the last formulas, with an older one.
    if pos not in reversed(node.formulas) or neg not in reversed(node.formulas):
        raise TableauError("closure pair not present at leaf")
    if pos.predicate != neg.body.predicate or len(pos.args) != len(neg.body.args):
        raise TableauError("closure pair predicates do not match")

    sigma = solve([Constraint(pos, neg.body)], sigma)
    if sigma is None:
        return None
    node.rule = RuleInstance(CLOSURE, None, (), None, (pos, neg))
    return sigma


# ------------------------------------------------------------------ search

_PRIORITY = {"alpha": 0, "delta": 1, "beta": 2, "gamma": 3}

# A branch's literal index: per (predicate, arity), the atoms and the
# negated atoms on the branch, each as (position, literal) at its first
# occurrence, in position order.  A child's index is its parent's plus the
# literals its rule introduced; the first level of term indexing
# (Ramakrishnan, Sekar & Voronkov, "Term Indexing", Handbook of Automated
# Reasoning, 2001).
_LiteralIndex = dict[tuple[str, int], tuple[tuple[tuple[int, Formula], ...],
                                            tuple[tuple[int, Formula], ...]]]
_NO_LITERALS: tuple[tuple, tuple] = ((), ())


def _key(atom: Atom) -> tuple[str, int]:
    return atom.predicate, len(atom.args)


def _extend_index(index: _LiteralIndex, atoms: list[tuple[int, Formula]],
                  negated: list[tuple[int, Formula]]) -> _LiteralIndex:
    """A copy of ``index`` with the given atoms and negated atoms added."""
    index = dict(index)
    for entry in atoms:
        key = _key(entry[1])
        pos, neg = index.get(key, _NO_LITERALS)
        index[key] = (pos + (entry,), neg)
    for entry in negated:
        key = _key(entry[1].body)
        pos, neg = index.get(key, _NO_LITERALS)
        index[key] = (pos, neg + (entry,))
    return index


def _new_closure_pairs(index: _LiteralIndex, start: int, atoms: list[tuple[int, Formula]],
                       negated: list[tuple[int, Formula]]) -> Iterator[tuple[Formula, Formula]]:
    """The closure candidates of a leaf that contain one of the literals
    its rule introduced, at positions ``start`` on, and that ``index``
    already holds.  They come in the order of a scan of the leaf's
    formulas: atoms by position, each against the negated atoms of its
    predicate and arity by position."""
    wanted: dict[tuple[str, int], list[Formula]] = {}
    for _, neg in negated:
        wanted.setdefault(_key(neg.body), []).append(neg)
    # The parent's atoms come first, each against the new negated atoms ...
    older = sorted(entry for key in wanted for entry in index[key][0] if entry[0] < start)
    for _, pos in older:
        for neg in wanted[_key(pos)]:
            yield pos, neg
    # ... then each new atom against every negated atom.
    for _, pos in atoms:
        for _, neg in index[_key(pos)][1]:
            yield pos, neg


# A branch's buckets: per priority class of ``_PRIORITY``, the formulas of
# that class on the branch that can still be expanded there, each once, in
# first-occurrence order; gamma's bucket is split by the number of times a
# formula was used on the branch, one bucket per count reached, below the limit.
_Buckets = tuple[tuple[Formula, ...], ...]


def _choose(buckets: _Buckets, fresh: list[tuple[int, Formula]], gamma_limit: int
            ) -> tuple[Formula | None, _Buckets]:
    """The principal of a leaf, the expandable formula with the least
    (priority, uses, first position) on its branch, and the buckets its
    children inherit.  ``buckets`` are the parent's and ``fresh`` the
    (bucket, formula) pairs of the formulas the leaf's rule introduced that
    occur on the branch for the first time.  The principal is the first
    entry of the first nonempty bucket; a gamma principal moves on to the
    next bucket, made when first reached, unless it reaches the limit."""
    out = list(buckets)
    for level, f in fresh:
        out[level] += (f,)
    for level, bucket in enumerate(out):
        if bucket:
            principal = bucket[0]
            out[level] = bucket[1:]
            # Each entry of the next bucket came there as the first entry
            # of the first nonempty bucket, as the principal does, so it
            # occurs on the branch before the principal.
            if _PRIORITY["gamma"] <= level < _PRIORITY["gamma"] + gamma_limit - 1:
                if level + 1 == len(out):
                    out.append(())
                out[level + 1] += (principal,)
            return principal, tuple(out)
    return None, tuple(out)


def prove(
    formulas: Iterable[Formula],
    gamma_limit: int = 2,
    depth_limit: int = 200,
) -> ClosedTableau | Exhausted:
    """Search for a closed tableau refuting the given multiset.

    Deterministic strategy: always work on the leftmost open leaf, try the
    closure candidates first, then expand the best remaining formula,
    preferring alpha > delta > beta > gamma and, within a class, the least
    used and then the oldest occurrence.  Each gamma formula may be
    re-instantiated up to ``gamma_limit`` times per branch; a branch longer
    than ``depth_limit`` exhausts the search.  The search's only closure
    state is the most general unifier of the closures made so far, a dict:
    a closure must extend it, and unifies only its new pair under it
    (incremental closure, Giese 2001).  The ground unifier of the closed
    tree is found by ``ground``.

    A leaf tries only the candidates that contain a literal its rule
    introduced, in the order of a scan of all its formulas.  Every other
    candidate is made of its parent's formulas, so the parent tried it and
    no unifier extending the parent's unifier equated it; the unifier has
    only been extended since, and a pair that no extension of a unifier
    equates is equated by no extension of a larger one.

    The principal is read off the branch's buckets, not found by a scan of
    the leaf: per class, and for gamma per number of uses, the branch's
    formulas of that class in first-occurrence order, which each leaf
    extends by the formulas its rule introduced (see ``_choose``).

    A formula that a rule introduces on a branch that already holds it
    enters neither the literal index nor the buckets.  A pair a repeated
    literal would make is one its first occurrence makes, and that pair is
    tried first: at the same leaf, or at an ancestor that refused it.  A
    repeated expandable formula never ranks before its first occurrence,
    and is used up with it.
    """
    if gamma_limit < 1:
        raise ValueError("gamma_limit must be at least 1")
    if depth_limit < 1:
        raise ValueError("depth_limit must be at least 1")

    gamma = tuple(formulas)
    names = NameSupply(set().union(*map(symbols_of, gamma)))

    root = TableauNode(gamma)
    sigma: dict[str, Term] = {}
    steps = 0
    # Per distinct formula: its priority if it can be expanded, None for a
    # literal.
    ranks: dict[Formula, int | None] = {}
    # The open leaves, leftmost on top, each with its depth, the formulas
    # it adds to its parent's, and its parent's literal index and buckets.
    # Expanding the leftmost leaf puts its children, which precede every
    # other open leaf, in its place.
    pending: list[tuple[TableauNode, int, tuple[Formula, ...], _LiteralIndex, _Buckets]] = [
        (root, 0, gamma, {}, ((),) * (_PRIORITY["gamma"] + 1))]

    while pending:
        node, depth, introduced, literals, buckets = pending.pop()
        start = len(node.formulas) - len(introduced)
        atoms: list[tuple[int, Formula]] = []
        negated: list[tuple[int, Formula]] = []
        fresh: list[tuple[int, Formula]] = []
        for position, f in enumerate(introduced, start):
            if f not in ranks:
                kind = RULE_GROUPS.get(rule_name(f))
                ranks[f] = None if kind is None else _PRIORITY[kind]
            elif node.formulas.index(f) < position:
                continue  # a repeat, which is never a principal nor a new pair
            rank = ranks[f]
            if rank is None:
                (atoms if isinstance(f, Atom) else negated).append((position, f))
            else:
                fresh.append((rank, f))

        if atoms or negated:
            literals = _extend_index(literals, atoms, negated)
            closed = None
            for pos, neg in _new_closure_pairs(literals, start, atoms, negated):
                closed = close(node, sigma, pos, neg)
                if closed is not None:
                    break
            if closed is not None:
                sigma = closed
                steps += 1
                continue

        if depth >= depth_limit:
            return Exhausted("depth limit reached", steps)

        principal, buckets = _choose(buckets, fresh, gamma_limit)
        if principal is None:
            return Exhausted("no closure and no usable formula on a branch", steps)

        expand(node, principal, names)
        steps += 1
        for child, extra in zip(reversed(node.children), reversed(node.rule.introduced)):
            pending.append((child, depth + 1, extra, literals, buckets))

    return ground(root)


def ground(root: TableauNode) -> ClosedTableau:
    """A tree that ``expand`` and ``close`` closed, in any order, with its
    ground unifier: the most general unifier of its closure pairs, made
    ground by ``groundify``, which avoids the root's symbols (no ``skoN`` is
    a ``kN``).  Free metavariables get constants in order: the root's, each
    gamma step's whose instance holds it in preorder, then the vacuous
    ones, in no formula yet needed as witnesses, so the others keep theirs."""
    constraints: list[Constraint] = []
    metas = dict.fromkeys(m for f in root.formulas for m in free_metas(f))
    vacuous: dict[Meta, None] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        rule = node.rule
        if rule is None:
            continue
        pair = rule.closure_pair
        if pair is not None:  # a closure, which is a leaf
            constraints.append(Constraint(pair[0], pair[1].body))
        elif rule.kind == "gamma":  # vacuous if its instance is the body itself
            q = rule.principal
            body = Not(q.body.body) if type(q) is Not else q.body
            (vacuous if rule.introduced[0][0] == body else metas)[rule.witness] = None
        stack += node.children[::-1]
    sigma = solve(constraints)
    if sigma is None:
        raise TableauError("closure constraints are globally unsatisfiable")
    metas.update(vacuous)
    avoid = set().union(*map(symbols_of, root.formulas))
    return ClosedTableau(root, groundify(sigma, metas, avoid))


# ------------------------------------------------------------------ audits


def audit_closed_tableau(ct: ClosedTableau) -> None:
    """Check the structural invariants of a finished tableau.

    Raises AuditError on the first violation: the unifier ground, then in
    preorder each child multiset equal to its parent plus the introduced
    formulas (non-destructivity), every rule one that ``expand`` or
    ``close`` makes (``_rule_fault``), every leaf closed, each principal
    and closure pair present, each pair an atom and a negated atom that
    the unifier equates, each Skolem symbol unused before its introduction
    and its term over its principal's metavariables, as ``expand`` makes
    it; last, every metavariable of the root and every gamma witness bound
    by the unifier, as ``ground`` binds them.
    """
    def at(node: TableauNode) -> str:
        return path_of(ct.root, node)

    unifier = ct.unifier
    for name, t in unifier.items():
        if t.has_meta:
            raise AuditError(f"unifier range for {name} contains a metavariable")
    skolems: set[str] = set()
    metas = dict.fromkeys(m for f in ct.root.formulas for m in free_metas(f))
    # One preorder walk, as a recursive one would go: a child's multiset is
    # checked when the child is visited, before its own rule.  Each entry
    # holds a node, its parent and its place among the parent's children;
    # a path is formatted only for an error.
    stack: list[tuple[TableauNode, TableauNode | None, int]] = [(ct.root, None, 0)]
    while stack:
        node, parent, bit = stack.pop()
        if parent is not None:
            extra = parent.rule.introduced[bit]
            if (node.formulas != parent.formulas + extra
                    and Counter(node.formulas) != Counter(parent.formulas) + Counter(extra)):
                raise AuditError(f"child multiset is not parent plus introduced at {at(parent)}")
        fault = _rule_fault(node)
        if fault is not None:
            raise AuditError(f"{fault} at {at(node)}")
        rule = node.rule
        if rule is None:
            raise AuditError(f"open leaf at {at(node)}")
        if rule.kind == CLOSURE:
            pos, neg = rule.closure_pair
            if not (isinstance(pos, Atom) and isinstance(neg, Not) and isinstance(neg.body, Atom)):
                raise AuditError(f"closure pair is not an atom and a negated atom at {at(node)}")
            if pos not in node.formulas or neg not in node.formulas:
                raise AuditError(f"closure pair absent at {at(node)}")
            if apply_subst(unifier, pos) != apply_subst(unifier, neg.body):
                raise AuditError(f"unifier does not equate closure pair at {at(node)}")
            continue
        if rule.principal not in node.formulas:
            raise AuditError(f"principal absent at {at(node)}")
        if rule.kind == "gamma":
            metas[rule.witness] = None
        elif rule.kind == "delta":
            sym = rule.witness.symbol
            if sym in skolems:
                raise AuditError(f"skolem symbol {sym} introduced twice")
            skolems.add(sym)
            for f in node.formulas:
                if sym in symbols_of(f):
                    raise AuditError(f"skolem {sym} occurs before its delta step")
            if rule.witness.args != free_metas(rule.principal):
                raise AuditError(f"skolem term {print_term(rule.witness)} is not over its "
                                 f"principal's metavariables at {at(node)}")
        stack.extend((child, node, bit) for bit, child in reversed(list(enumerate(node.children))))
    for m in metas:
        if m.name not in unifier:
            raise AuditError(f"metavariable {m.name} is not bound by the unifier")


# --------------------------------------------------------------- serialize
#
# A version-4 file holds what the prover chose; the reader derives the
# rest as ``expand`` and ``close`` made it.  It is one flat JSON object:
# ``table`` (the distinct formulas and terms, see ``formula.encode_table``),
# ``nodes`` ([formulas, rule, [children]] per node, every child before its
# parent and each used once), ``root``, the ground ``unifier``
# ([metavariable, term] pairs sorted by name) and ``version``.  A rule is
# an expansion, [principal] or [principal, witness] (a ``RuleInstance``'s
# two choices, see ``_expansion``), or ["closure", pos, neg], a leaf's.
# Formulas and terms are table indices; a node's formulas are null when
# they are its parent's plus the ones the parent's rule introduced for it.
# ``scripts/upgrade_files.py`` rewrites version-2 and -3 files, which also
# list each rule's class and introduced formulas, its witness in a field
# per class, a closed leaf below each closure and the closure pairs as a
# ``store``.


def tableau_to_json(ct: ClosedTableau) -> str:
    """Canonical version-4 serialization, compact with sorted keys, the
    nodes children first.  TableauError if the file cannot hold the tree:
    a rule that ``expand`` or ``close`` does not make (see ``_rule_fault``).
    DepthError for a formula nested deeper than ``MAX_DEPTH``, which the
    reader refuses.
    """
    order = postorder(ct.root)
    bindings = [(Meta(name), t) for name, t in sorted(ct.unifier.items())]
    items = [x for binding in bindings for x in binding]
    items += ct.root.formulas
    # A child whose formulas are its parent's plus the ones its rule
    # introduced, as every child ``expand`` makes, is written without them.
    grown: set[TableauNode] = set()
    rules: dict[TableauNode, list] = {}  # node -> its rule's fields
    for node in order:
        fault = _rule_fault(node)
        if fault is not None:
            raise TableauError(f"cannot write: {fault} at {path_of(ct.root, node)}")
        rule = node.rule
        if rule is None:
            continue
        if rule.kind == CLOSURE:
            rules[node] = [CLOSURE, *rule.closure_pair]
            items += rule.closure_pair
            continue
        rules[node] = [rule.principal] if rule.witness is None else [rule.principal, rule.witness]
        items += rules[node]
        for child, extra in zip(node.children, rule.introduced):
            if child.formulas == node.formulas + extra:
                grown.add(child)
            else:
                items += child.formulas
    table, entry = encode_table(items)

    nodes: list[list] = []
    numbers: dict[TableauNode, int] = {}  # node -> node entry
    for node in order:
        rule = rules.get(node)
        if rule is not None:
            rule = [rule[0], *map(entry, rule[1:])] if rule[0] == CLOSURE else [*map(entry, rule)]
        numbers[node] = len(nodes)
        nodes.append([None if node in grown else [entry(f) for f in node.formulas], rule,
                      [numbers[child] for child in node.children]])
    record = {"version": 4, "table": table, "nodes": nodes, "root": len(nodes) - 1,
              "unifier": [[entry(m), entry(t)] for m, t in bindings]}
    return dump_json(record) + "\n"


def tableau_from_json(text: str) -> ClosedTableau:
    """Read a tableau written by ``tableau_to_json`` in flat loops: one
    ``TableauNode`` per node entry, each expansion derived by
    ``_expansion``, then one pass from the root to fill in the formulas
    left out.  FormatError for a malformed entry, a reference to a later or
    missing entry, a node used twice, a term where a formula belongs or the
    reverse, a free bound variable, a rule ``_expansion`` refuses, children
    that are not the rule's premises, a node without formulas that is no
    node's child, or a version-2 or -3 file (naming the upgrade script).
    """
    record = load_json(text, "tableau")
    file_version(record, (4,), "tableau")
    table = Table(record.get("table"))
    formula, term = table.formula, table.term
    raw_nodes = record.get("nodes")
    if type(raw_nodes) is not list:
        raise FormatError("nodes must be a list")
    nodes: list[TableauNode] = []
    used: list[bool] = []
    for n, raw in enumerate(raw_nodes):
        if (type(raw) is not list or len(raw) != 3
                or type(raw[0]) is not list and raw[0] is not None or type(raw[2]) is not list):
            raise FormatError("a node must be [formulas, rule, [children]]")
        children = []
        for child in raw[2]:
            i = entry_index(child, len(nodes), "child")
            if used[i]:
                raise FormatError(f"node {i} is the child of two nodes")
            used[i] = True
            children.append(nodes[i])
        rule = None if raw[1] is None else _rule_from_table(raw[1], table)
        premises = 0 if rule is None else len(rule.introduced)
        if len(children) != premises:
            raise FormatError(f"node {n} has {len(children)} child entries, not {premises}")
        # Only the root and a child that is not its parent plus what the
        # parent's rule introduced list their formulas.
        formulas = None if raw[0] is None else tuple(formula(i, "formula") for i in raw[0])
        nodes.append(TableauNode(formulas, rule, tuple(children)))
        used.append(False)
    root = entry_index(record.get("root"), len(nodes), "root")
    if used[root]:
        raise FormatError(f"root {root} is the child of a node")
    occurrences = 0
    for n in reversed(range(len(nodes))):  # every parent before its children
        node = nodes[n]
        if node.formulas is None:
            raise FormatError(f"node {n} lists no formulas and is no node's child")
        for child, extra in zip(node.children, node.rule.introduced if node.rule else ()):
            if child.formulas is None:
                occurrences += len(node.formulas) + len(extra)
                if occurrences > MAX_OCCURRENCES:
                    raise FormatError(f"nodes hold more than {MAX_OCCURRENCES} formulas")
                child.formulas = node.formulas + extra
    unifier = record.get("unifier")
    if type(unifier) is not list or not all(type(b) is list and len(b) == 2 for b in unifier):
        raise FormatError("unifier must be a list of [metavariable, term] pairs")
    bindings: dict[str, Term] = {}
    for meta, t in unifier:
        meta = term(meta, "unifier entry")
        if not isinstance(meta, Meta):
            raise FormatError(f"unifier binds the non-metavariable {print_term(meta)}")
        bindings[meta.name] = term(t, "unifier entry")
    return ClosedTableau(nodes[root], bindings)


def _rule_from_table(raw, table: Table) -> RuleInstance:
    if type(raw) is not list or not 1 <= len(raw) <= 3 or (raw[0] == CLOSURE) != (len(raw) == 3):
        raise FormatError('a rule must be [principal], [principal, witness] '
                          'or ["closure", pos, neg]')
    if len(raw) == 3:
        pair = (table.formula(raw[1], "closure pair"), table.formula(raw[2], "closure pair"))
        return RuleInstance(CLOSURE, None, (), None, pair)
    witness = table.term(raw[1], "witness") if len(raw) == 2 else None
    return _expansion(table.formula(raw[0], "principal"), witness)


# ------------------------------------------------------------------ render


def render_tableau(ct: ClosedTableau) -> str:
    """Human-readable stacked rendering, root first, branches indented."""
    lines: list[str] = []

    def label(rule: RuleInstance) -> str:
        if rule.kind == CLOSURE:
            pos, neg = rule.closure_pair
            return f"closure on {print_formula(pos)} / {print_formula(neg)}"
        extra = "" if rule.witness is None else f" [{print_term(rule.witness)}]"
        return f"{rule.kind} on {print_formula(rule.principal)}{extra}"

    # A closure's leaf is its node, shown a second time below the closure, marked.
    for indent, node, _ in indented(ct.root):
        formulas = ", ".join(print_formula(f) for f in node.formulas)
        lines.append(indent + formulas)
        if node.rule is not None:
            lines.append(indent + "-- " + label(node.rule))
            if node.rule.kind == CLOSURE:
                lines.append(indent + "x " + formulas)

    lines.append("store: " + ("; ".join(
        f"{print_formula(lhs)} = {print_formula(rhs)}" for lhs, rhs in closure_constraints(ct.root)
    ) or "(empty)"))
    lines.append("unifier: " + (", ".join(
        sorted(f"{n} := {print_term(t)}" for n, t in ct.unifier.items())
    ) or "(empty)"))
    return "\n".join(lines) + "\n"

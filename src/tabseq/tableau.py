"""Tableau trees and a bounded deterministic refutation engine.

A tableau is kept whole as a tree: nodes carry the multiset of formulas
collected so far (non-destructive rules only ever append), internal nodes
are labelled by the rule applied at them, and closure is itself recorded as
a one-child rule whose child is the closed leaf.  Paths address nodes as
0/1 sequences, the root being the empty sequence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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
from .unify import Constraint, ConstraintStore, consistent, groundify, solve

# Nothing here calls ``parse``, ``parse_term`` or ``replace_at``.  They stay
# bound in this module because the benchmark's tracer (``WRAPPED`` in
# ``perfbench/spans.py``) looks each of them up here by name, and a traced
# run fails on a missing one.
from .formula import parse, parse_term
from .tree import replace_at

CLOSURE = "closure"


class TableauError(ValueError):
    pass


class AuditError(AssertionError):
    """A structural invariant of a tableau failed."""


class RuleInstance(NamedTuple):
    """The rule applied at an internal node; a named tuple, which costs
    less than half of a frozen dataclass to build.

    ``kind`` is one of alpha/beta/gamma/delta/closure; ``introduced`` lists
    the formulas added per child.  Delta instances carry the Skolem term
    whose arguments are the metavariables of the principal's body; gamma
    instances carry the fresh metavariable; closures carry the
    complementary pair (positive literal, negated literal).
    """

    kind: str
    principal: Formula | None
    introduced: tuple[tuple[Formula, ...], ...]
    meta: Meta | None = None
    skolem: App | None = None
    closure_pair: tuple[Formula, Formula] | None = None


@dataclass(slots=True, eq=False)
class TableauNode:
    """A tableau node; ``expand`` and ``close`` set the rule and children of
    an open leaf in place, once.  A node compares and hashes by identity."""

    formulas: tuple[Formula, ...]
    rule: RuleInstance | None = None
    children: tuple["TableauNode", ...] = ()
    closed: bool = False

    @property
    def is_open_leaf(self) -> bool:
        return not self.children and not self.closed


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
        self._avoid = set(avoid)
        self._meta = 0
        self._skolem = 0

    def fresh_meta(self) -> Meta:
        while True:
            self._meta += 1
            name = f"X{self._meta}"
            if name not in self._avoid:
                return Meta(name)

    def fresh_skolem_symbol(self) -> str:
        while True:
            self._skolem += 1
            name = f"sko{self._skolem}"
            if name not in self._avoid:
                return name


# ------------------------------------------------------------- tree helpers


def open_leaves(root: TableauNode) -> list[Path]:
    return [p for p, n in iter_nodes(root) if n.is_open_leaf]


def rule_count(root: TableauNode) -> int:
    return sum(1 for n in preorder(root) if n.rule is not None)


def closure_constraints(root: TableauNode) -> list[Constraint]:
    """The constraint ``pos = neg'`` of each closure pair (pos, ~neg') in
    preorder, a ``.tab`` file's ``store``; a second side that is no
    negation, which the audit refuses, stands as it is."""
    return [Constraint(pos, neg.body if type(neg) is Not else neg)
            for pos, neg in (n.rule.closure_pair for n in preorder(root)
                             if n.rule is not None and n.rule.closure_pair is not None)]


# ------------------------------------------------------------------- rules


def expand(node: TableauNode, principal: Formula, names: NameSupply) -> None:
    """Apply the alpha/beta/gamma/delta rule for ``principal`` at an open leaf.

    The leaf is extended in place.  Children receive the leaf's multiset
    plus the formulas the sequent rule of the same name adds to each
    premise, its witness being a fresh metavariable (gamma) or a Skolem
    term over the principal's metavariables (delta); the constraint store
    is untouched by expansions.
    """
    if node.closed:
        raise TableauError("leaf is closed")
    if node.rule is not None:
        raise TableauError("node is not a leaf")
    # Searched from the end: the principal is mostly a recent formula.
    if principal not in reversed(node.formulas):
        raise TableauError(f"principal {print_formula(principal)} not at leaf")
    name = rule_name(principal)
    if name is None:
        raise TableauError(f"cannot expand literal {print_formula(principal)}")

    kind = RULE_GROUPS[name]
    meta = skolem = None
    if kind == "gamma":
        meta = names.fresh_meta()
        rule = GsRule(name, meta)
    elif kind == "delta":
        skolem = App(names.fresh_skolem_symbol(), free_metas(principal))
        rule = GsRule(name, skolem)
    else:
        rule = BARE_RULES[name]
    intro = premise_additions(rule, principal)
    # Built without keyword arguments, which cost a named tuple about half again.
    node.rule = RuleInstance(kind, principal, intro, meta, skolem)
    formulas = node.formulas
    node.children = tuple([TableauNode(formulas + extra) for extra in intro])


def close(node: TableauNode, store: ConstraintStore, pos: Formula,
          neg: Formula) -> ConstraintStore | None:
    """Close an open leaf on the complementary pair (pos, neg).

    Adds the constraint ``pos = neg'`` (neg being ``~neg'``) and closes the
    leaf in place, returning the extended store, or returns None (refused,
    nothing changed) when the constraint is inconsistent with ``store``.
    """
    if node.closed or node.rule is not None:
        raise TableauError("node is not an open leaf")
    if not isinstance(pos, Atom) or not isinstance(neg, Not) or not isinstance(neg.body, Atom):
        raise TableauError("closure needs an atom and a negated atom")
    # Searched from the end: ``prove`` pairs a literal the leaf's rule
    # introduced, the last formulas, with an older one.
    if pos not in reversed(node.formulas) or neg not in reversed(node.formulas):
        raise TableauError("closure pair not present at leaf")
    if pos.predicate != neg.body.predicate or len(pos.args) != len(neg.body.args):
        raise TableauError("closure pair predicates do not match")

    c = Constraint(pos, neg.body)
    if not consistent(store, [c]):
        return None
    node.rule = RuleInstance(CLOSURE, None, ((),), None, None, (pos, neg))
    node.children = (TableauNode(node.formulas, None, (), True),)
    return store.add(c)


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
    than ``depth_limit`` exhausts the search.  Every closure is checked
    against the whole constraint store, so the store stays satisfiable;
    the store carries its unifier, so the check unifies only the new pair
    under it (incremental closure, Giese 2001).  The store is search state
    only: the ground unifier of the closed tree is found by ``ground``.

    A leaf tries only the candidates that contain a literal its rule
    introduced, in the order of a scan of all its formulas.  Every other
    candidate is made of its parent's formulas, so the parent tried it and
    the store refused it; the store has only grown since, and a
    constraint inconsistent with a store is inconsistent with every
    larger one.

    The principal is read off the branch's buckets, not found by a scan of
    the leaf: per class, and for gamma per number of uses, the branch's
    formulas of that class in first-occurrence order, which each leaf
    extends by the formulas its rule introduced (see ``_choose``).

    A formula that a rule introduces on a branch that already holds it
    enters neither the literal index nor the buckets.  A pair a repeated
    literal would make is one its first occurrence makes, and that pair is
    tried first: at the same leaf, or at an ancestor whose store refused
    it.  A repeated expandable formula never ranks before its first
    occurrence, and is used up with it.
    """
    if gamma_limit < 1:
        raise ValueError("gamma_limit must be at least 1")
    if depth_limit < 1:
        raise ValueError("depth_limit must be at least 1")

    gamma = tuple(formulas)
    names = NameSupply(set().union(*map(symbols_of, gamma)))

    root = TableauNode(gamma)
    store = ConstraintStore()
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
                closed = close(node, store, pos, neg)
                if closed is not None:
                    break
            if closed is not None:
                store = closed
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
        if pair is not None:  # a closure, whose only child is its closed leaf
            constraints.append(Constraint(pair[0], pair[1].body))
            continue
        if rule.meta is not None:  # vacuous if its instance is the body itself
            q = rule.principal
            body = Not(q.body.body) if type(q) is Not else q.body
            (vacuous if rule.introduced[0][0] == body else metas)[rule.meta] = None
        stack += node.children[::-1]
    sigma = solve(ConstraintStore(tuple(constraints)))
    if sigma is None:
        raise TableauError("closure constraints are globally unsatisfiable")
    metas.update(vacuous)
    avoid = set().union(*map(symbols_of, root.formulas))
    return ClosedTableau(root, groundify(sigma, metas, avoid))


# ------------------------------------------------------------------ audits


def audit_closed_tableau(ct: ClosedTableau) -> None:
    """Check the structural invariants of a finished tableau.

    Raises AuditError on the first violation: every leaf closed, each
    closed node the only child of a closure rule, each child multiset equal
    to its parent plus the introduced formulas (non-destructivity), the
    introduced formulas the decomposition of the principal by its rule,
    rule labels consistent with the recorded children, Skolem symbols
    unused before their introduction, and the unifier ground and equating
    every closure pair.
    """
    def at(node: TableauNode) -> str:
        return path_of(ct.root, node)

    # Preorder, as a recursive walk would go: a child's multiset is checked
    # when the child is visited, before its own rule.  Each entry holds a
    # node, its parent and its place among the parent's children; a path
    # is formatted only for an error.
    stack: list[tuple[TableauNode, TableauNode | None, int]] = [(ct.root, None, 0)]
    while stack:
        node, parent, bit = stack.pop()
        if parent is not None:
            extra = parent.rule.introduced[bit]
            if (node.formulas != parent.formulas + extra
                    and Counter(node.formulas) != Counter(parent.formulas) + Counter(extra)):
                raise AuditError(f"child multiset is not parent plus introduced at {at(parent)}")
        if node.rule is None:
            if node.children:
                raise AuditError(f"rule-less node {at(node)} has children")
            if not node.closed:
                raise AuditError(f"open leaf at {at(node)}")
            if parent is None or parent.rule.kind != CLOSURE:
                raise AuditError(f"closed leaf {at(node)} is not the child of a closure rule")
            continue
        if node.closed:
            raise AuditError(f"closed node {at(node)} carries a rule")
        rule = node.rule
        if len(node.children) != len(rule.introduced):
            raise AuditError(f"child count mismatch at {at(node)}")
        if rule.closure_pair is not None:
            pos, neg = rule.closure_pair
            if not (isinstance(pos, Atom) and isinstance(neg, Not) and isinstance(neg.body, Atom)):
                raise AuditError(f"closure pair is not an atom and a negated atom at {at(node)}")
        if rule.kind == CLOSURE:
            if rule.closure_pair is None:
                raise AuditError(f"closure without pair at {at(node)}")
            if pos not in node.formulas or neg not in node.formulas:
                raise AuditError(f"closure pair absent at {at(node)}")
            if len(node.children) != 1 or not node.children[0].closed:
                raise AuditError(f"closure child not closed at {at(node)}")
        else:
            if rule.principal is None or rule.principal not in node.formulas:
                raise AuditError(f"principal absent at {at(node)}")
            if rule.kind == "delta" and rule.skolem is None:
                raise AuditError(f"delta without skolem at {at(node)}")
            if rule.kind == "gamma" and rule.meta is None:
                raise AuditError(f"gamma without metavariable at {at(node)}")
            name = rule_name(rule.principal)
            witness = rule.meta if rule.kind == "gamma" else rule.skolem
            if (RULE_GROUPS.get(name) != rule.kind or rule.introduced
                    != premise_additions(GsRule(name, witness), rule.principal)):
                raise AuditError(f"introduced formulas are not the {rule.kind} decomposition "
                                 f"of the principal at {at(node)}")
        stack.extend((child, node, bit) for bit, child in reversed(list(enumerate(node.children))))

    introduced: set[str] = set()
    for n in preorder(ct.root):
        if n.rule is not None and n.rule.skolem is not None:
            sym = n.rule.skolem.symbol
            if sym in introduced:
                raise AuditError(f"skolem symbol {sym} introduced twice")
            introduced.add(sym)
            for f in n.formulas:
                if sym in symbols_of(f):
                    raise AuditError(f"skolem {sym} occurs before its delta step")

    for name, t in ct.unifier.items():
        if free_metas(t):
            raise AuditError(f"unifier range for {name} contains a metavariable")
    for n in preorder(ct.root):
        if n.rule is not None and n.rule.closure_pair is not None:
            pos, neg = n.rule.closure_pair
            if apply_subst(ct.unifier, pos) != apply_subst(ct.unifier, neg.body):
                raise AuditError(f"unifier does not equate closure pair at {at(n)}")


# --------------------------------------------------------------- serialize
#
# A version-3 file is one flat JSON object: ``table`` (the distinct
# formulas and terms, see ``formula.encode_table``), ``nodes`` (one entry
# per tableau node, [formulas, rule, [children], closed], every child
# before its parent and each used once), ``root``, the constraint
# ``store`` (``closure_constraints`` as [lhs, rhs] pairs, which the reader
# checks), the ground ``unifier`` ([metavariable, term] pairs sorted by
# name) and ``version``.  A rule is [class,
# principal, [[introduced], ...], meta, skolem, closure pair], with null
# for an absent field.  Every formula and term is a table index.  A node's
# formulas are null when they are its parent's followed by the ones the
# parent's rule introduced for it, and a list of entries otherwise.  A
# version-2 file is the same with every node's formulas listed.

# The rule classes a file may name: the rule table's groups and closure.
RULE_CLASSES = (*dict.fromkeys(RULE_GROUPS.values()), CLOSURE)
_CLASS_SET = frozenset(RULE_CLASSES)


def tableau_to_json(ct: ClosedTableau) -> str:
    """Canonical version-3 serialization, compact with sorted keys.

    The nodes are written children first.  A formula nested deeper than
    ``MAX_DEPTH`` is a DepthError, since the reader would refuse the file.
    """
    order = postorder(ct.root)
    bindings = [(Meta(name), t) for name, t in sorted(ct.unifier.items())]
    store = closure_constraints(ct.root)
    items = [x for c in store for x in c]
    items += [x for binding in bindings for x in binding]
    items += ct.root.formulas
    # A child whose formulas are its parent's plus the ones its rule
    # introduced, as every child ``expand`` and ``close`` make, is written
    # without its formulas; any other child, as in a forged file read back,
    # lists its own.
    grown: set[TableauNode] = set()
    for node in order:
        rule = node.rule
        introduced = ()
        if rule is not None:
            introduced = rule.introduced
            items += [x for x in (rule.principal, rule.meta, rule.skolem) if x is not None]
            items += [f for child in introduced for f in child]
            items += rule.closure_pair or ()
        for i, child in enumerate(node.children):
            if i < len(introduced) and child.formulas == node.formulas + introduced[i]:
                grown.add(child)
            else:
                items += child.formulas
    table, entry = encode_table(items)

    def optional(x):
        return None if x is None else entry(x)

    nodes: list[list] = []
    numbers: dict[TableauNode, int] = {}  # node -> node entry
    for node in order:
        rule = node.rule
        if rule is not None:
            pair = rule.closure_pair
            rule = [rule.kind, optional(rule.principal),
                    [[entry(f) for f in child] for child in rule.introduced],
                    optional(rule.meta), optional(rule.skolem),
                    None if pair is None else [entry(pair[0]), entry(pair[1])]]
        numbers[node] = len(nodes)
        nodes.append([None if node in grown else [entry(f) for f in node.formulas], rule,
                      [numbers[child] for child in node.children], node.closed])
    record = {
        "version": 3,
        "table": table,
        "nodes": nodes,
        "root": len(nodes) - 1,
        "store": [[entry(lhs), entry(rhs)] for lhs, rhs in store],
        "unifier": [[entry(m), entry(t)] for m, t in bindings],
    }
    return dump_json(record) + "\n"


def tableau_from_json(text: str) -> ClosedTableau:
    """Read a tableau written by ``tableau_to_json``, or a version-2 file.

    The file is read in flat loops, one ``TableauNode`` per node entry;
    then one pass from the root gives each node written without its
    formulas its parent's followed by the ones the parent's rule
    introduced for it.  Any malformed entry, a reference
    to a later or missing entry, a node used twice, a term where a formula
    belongs or the reverse, a formula or term with a free bound variable,
    a node without formulas that is no node's child or whose parent's
    rule introduced none for it, or a ``store`` that is not the closure
    pairs in preorder is a FormatError.
    """
    record = load_json(text, "tableau")
    return _tableau_from_table(record, file_version(record, (2, 3)))


def _formulas_at(table: Table, ids: list, what: str) -> tuple[Formula, ...]:
    """The closed formulas at the indices ``ids``, read from the table's
    ``closed_formulas`` without a call per index; a bool is never looked
    up, since ``True`` would find entry 1."""
    closed = table.closed_formulas
    for i in ids:
        if type(i) is not int or i not in closed:
            table.formula(i, what)  # raises the FormatError for what ``closed`` lacks
    return tuple(map(closed.__getitem__, ids))


def _tableau_from_table(record: dict, version: int) -> ClosedTableau:
    table = Table(record.get("table"))
    formula, term = table.formula, table.term
    raw_nodes = record.get("nodes")
    if type(raw_nodes) is not list:
        raise FormatError("nodes must be a list")
    nodes: list[TableauNode] = []
    used: list[bool] = []
    for raw in raw_nodes:
        if (type(raw) is not list or len(raw) != 4
                or type(raw[0]) is not list and (raw[0] is not None or version < 3)
                or type(raw[2]) is not list or type(raw[3]) is not bool):
            raise FormatError("a node must be [formulas, rule, [children], closed]")
        children = []
        for child in raw[2]:
            i = entry_index(child, len(nodes), "child")
            if used[i]:
                raise FormatError(f"node {i} is the child of two nodes")
            used[i] = True
            children.append(nodes[i])
        rule = None if raw[1] is None else _rule_from_table(raw[1], table)
        formulas = None if raw[0] is None else _formulas_at(table, raw[0], "formula")
        nodes.append(TableauNode(formulas, rule, tuple(children), raw[3]))
        used.append(False)
    root = entry_index(record.get("root"), len(nodes), "root")
    if used[root]:
        raise FormatError(f"root {root} is the child of a node")
    occurrences = 0
    for n in reversed(range(len(nodes))):  # every parent before its children
        node = nodes[n]
        if node.formulas is None:
            raise FormatError(f"node {n} lists no formulas and is no node's child")
        for i, child in enumerate(node.children):
            if child.formulas is None:
                introduced = () if node.rule is None else node.rule.introduced
                if i >= len(introduced):
                    raise FormatError(f"child {i} of node {n} lists no formulas, and its "
                                      "parent's rule has no introduced list for it")
                occurrences += len(node.formulas) + len(introduced[i])
                if occurrences > MAX_OCCURRENCES:
                    raise FormatError(f"nodes hold more than {MAX_OCCURRENCES} formulas")
                child.formulas = node.formulas + introduced[i]
    store = record.get("store")
    if type(store) is not list or not all(type(c) is list and len(c) == 2 for c in store):
        raise FormatError("store must be a list of [lhs, rhs] pairs")
    unifier = record.get("unifier")
    if type(unifier) is not list or not all(type(b) is list and len(b) == 2 for b in unifier):
        raise FormatError("unifier must be a list of [metavariable, term] pairs")
    bindings: dict[str, Term] = {}
    for meta, t in unifier:
        meta = term(meta, "unifier entry")
        if not isinstance(meta, Meta):
            raise FormatError(f"unifier binds the non-metavariable {print_term(meta)}")
        bindings[meta.name] = term(t, "unifier entry")
    constraints = [Constraint(formula(lhs, "constraint"), formula(rhs, "constraint"))
                   for lhs, rhs in store]
    if constraints != closure_constraints(nodes[root]):
        raise FormatError("store is not the closure pairs in preorder")
    return ClosedTableau(nodes[root], bindings)


def _rule_from_table(raw, table: Table) -> RuleInstance:
    formula, term = table.formula, table.term
    if type(raw) is not list or len(raw) != 6:
        raise FormatError("a rule must be [class, principal, introduced, meta, skolem, pair]")
    kind, principal, introduced, meta, skolem, pair = raw
    if type(kind) is not str or kind not in _CLASS_SET:  # a list, which would not hash, too
        raise FormatError(f"unknown rule class {kind!r}")
    # A decoded JSON list is a ``list`` itself, never a subclass.
    if type(introduced) is not list or not all(map(list.__instancecheck__, introduced)):
        raise FormatError("introduced must be a list of lists")
    if meta is not None:
        meta = term(meta, "meta field")
        if not isinstance(meta, Meta):
            raise FormatError("meta field is not a metavariable")
    if skolem is not None:
        skolem = term(skolem, "skolem field")
        if not isinstance(skolem, App) or not skolem.is_skolem:
            raise FormatError("skolem field is not a Skolem term")
    if pair is not None:
        if type(pair) is not list or len(pair) != 2:
            raise FormatError("closure_pair must be a two-element list")
        pair = (formula(pair[0], "closure pair"), formula(pair[1], "closure pair"))
    return RuleInstance(
        kind, None if principal is None else formula(principal, "principal"),
        tuple([_formulas_at(table, child, "introduced formula") for child in introduced]),
        meta, skolem, pair)


# ------------------------------------------------------------------ render


def render_tableau(ct: ClosedTableau) -> str:
    """Human-readable stacked rendering, root first, branches indented."""
    lines: list[str] = []

    def label(rule: RuleInstance) -> str:
        if rule.kind == CLOSURE:
            pos, neg = rule.closure_pair
            return f"closure on {print_formula(pos)} / {print_formula(neg)}"
        extra = ""
        if rule.meta is not None:
            extra = f" [{rule.meta.name}]"
        if rule.skolem is not None:
            extra = f" [{print_term(rule.skolem)}]"
        return f"{rule.kind} on {print_formula(rule.principal)}{extra}"

    for indent, node, _ in indented(ct.root):
        marker = "x " if node.closed else ""
        lines.append(indent + marker + ", ".join(print_formula(f) for f in node.formulas))
        if node.rule is not None:
            lines.append(indent + "-- " + label(node.rule))

    lines.append("store: " + ("; ".join(
        f"{print_formula(lhs)} = {print_formula(rhs)}" for lhs, rhs in closure_constraints(ct.root)
    ) or "(empty)"))
    lines.append("unifier: " + (", ".join(
        sorted(f"{n} := {print_term(t)}" for n, t in ct.unifier.items())
    ) or "(empty)"))
    return "\n".join(lines) + "\n"

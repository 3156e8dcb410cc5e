"""Rewrite proof files that ``tabseq`` no longer reads in the current
formats: each ``.tab`` as version 4 and each ``.gs3`` as version 2, under
the same name in ``--out``.  A current file is written again as the
writers write it.

A version-1 file has no ``version`` field: it is one nested record per
proof node, with formulas and terms as text.  This script rebuilds the
proof from that text.  A version-2 or -3 ``.tab`` is read as the package
read it before version 4: a flat table and one entry per node, each
rule listing its class, its introduced formulas, its witness in a field
per class (``meta`` for gamma, ``skolem`` for delta) and its closure
pair, each node flagged closed or not, with the closure pairs once more
as a ``store`` (version 2 lists every node's formulas, version 3 only
those that are not their parent's plus what the parent's rule introduced
for them).  Those files give each closure one child, a closed leaf with
the closure's formulas; in memory a closure is a leaf, with one
``witness`` field per rule, so both readers move the witness to that
field and drop each closure's closed leaf.  Version 4 keeps only the
prover's choices and derives the rest, so the script writes each proof
with the package's writers and reads the text back with the current
reader.

It judges nothing but what version 4 leaves out: a ``.tab`` whose store
is not the tree's closure pairs in preorder, with a witness in the other
rule class's field, with a closed node that is not a closure's only
child, with a closure whose only child is not one closed leaf with its
formulas, or whose tree version 4 cannot hold (a rule whose class,
witness or introduced formulas are not the ones its principal gives, a
closure pair on a rule that is no closure) is not upgraded.  Run
``tabseq translate`` on each upgraded ``.tab`` and ``tabseq check`` on
each upgraded ``.gs3``: their audits and the checker decide whether the
proof holds.  A file that cannot be read, rebuilt, written or
read back is reported with its path, exit status 2, and the other files
are still upgraded.

Usage: python scripts/upgrade_files.py FILE... --out DIR
"""

import argparse
import functools
import sys
from pathlib import Path

from tabseq.formula import App, Meta, Table, parse, parse_term, print_term
from tabseq.gs3 import RULE_GROUPS, GsProof, GsRule, proof_from_json, proof_to_json
from tabseq.tableau import (CLOSURE, ClosedTableau, RuleInstance, TableauNode, closure_constraints,
                            tableau_from_json, tableau_to_json)
from tabseq.tree import (MAX_OCCURRENCES, FormatError, entry_index, file_version, load_json,
                         path_of)
from tabseq.unify import Constraint

# A version-1 file's formulas and terms, from their text.
text_formula = functools.cache(lambda text: parse(text, allow_generated=True))
text_term = functools.cache(lambda text: parse_term(text, allow_generated=True))


def v1_proof(record) -> GsProof:
    # The counts of every sequent are summed before any tuple is built, so
    # a short file cannot ask for a billion formulas.
    occurrences, stack = 0, [record]
    while stack:
        node = stack.pop()
        occurrences += sum(max(n, 0) for _, n in node["sequent"])
        stack += node.get("children", [])
    if occurrences > MAX_OCCURRENCES:
        raise ValueError(f"sequents hold more than {MAX_OCCURRENCES} formulas")

    def build(node) -> GsProof:
        rule = node.get("rule")
        sequent = tuple(text_formula(text) for text, n in node["sequent"] for _ in range(n))
        children = tuple(build(child) for child in node.get("children", []))
        if rule is None:
            return GsProof(sequent, None, None, children)
        witness = text_term(rule["witness"]) if "witness" in rule else None
        return GsProof(sequent, GsRule(rule["name"], witness), text_formula(rule["principal"]),
                       children)

    return build(record)


# The field of an old rule that holds each class's witness.
WITNESS_FIELDS = {"gamma": "meta", "delta": "skolem"}


def old_witness(kind, meta, skolem):
    """The witness of an old rule of class ``kind``, from its class's
    field; FormatError for a witness in the other field."""
    fields = {"meta": meta, "skolem": skolem}
    witness = fields.pop(WITNESS_FIELDS.get(kind), None)
    for name, value in fields.items():
        if value is not None:
            raise FormatError(f"{kind} rule has a witness in its {name} field")
    return witness


def drop_closed_leaves(root: TableauNode, closed: set) -> None:
    """Make each closure of an old tree a leaf: its only child, the closed
    leaf with its formulas, is dropped, as is the one empty list its rule
    introduced for it.  ``closed`` holds the nodes the file flags closed.
    FormatError for a closed node anywhere else, or a closure whose only
    child is not such a leaf."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node in closed:
            raise FormatError(f"closed node {path_of(root, node)} is not a closure's only child")
        rule = node.rule
        if rule is not None and rule.kind == CLOSURE:
            leaf = node.children[0] if len(node.children) == 1 else None
            if (rule.introduced != ((),) or leaf not in closed
                    or (leaf.formulas, leaf.rule, leaf.children) != (node.formulas, None, ())):
                raise FormatError(f"closure at {path_of(root, node)} has not one closed leaf "
                                  "with its formulas as its only child")
            node.rule, node.children = rule._replace(introduced=()), ()
        stack += node.children


def v1_tableau(record) -> ClosedTableau:
    def optional(read, value):
        return None if value is None else read(value)

    closed = set()

    def build(node) -> TableauNode:
        rule = node.get("rule")
        if rule is not None:
            pair = rule.get("closure_pair")
            rule = RuleInstance(
                rule["class"], optional(text_formula, rule.get("principal")),
                tuple(tuple(map(text_formula, child)) for child in rule["introduced"]),
                old_witness(rule["class"], optional(text_term, rule.get("meta")),
                            optional(text_term, rule.get("skolem"))),
                None if pair is None else (text_formula(pair[0]), text_formula(pair[1])))
        out = TableauNode(tuple(map(text_formula, node["formulas"])), rule,
                          tuple(build(child) for child in node.get("children", [])))
        if node.get("closed", False):
            closed.add(out)
        return out

    bindings = {}
    for binding in record["unifier"]:
        meta, _, value = binding.partition(" := ")
        bindings[text_term(meta).name] = text_term(value)
    root = build(record["root"])
    # The current format derives the store from the tree, so a store that
    # says otherwise would be lost, not rewritten.
    store = [Constraint(text_formula(lhs), text_formula(rhs)) for lhs, rhs in record["store"]]
    if store != closure_constraints(root):
        raise ValueError("the store is not the closure pairs in preorder")
    drop_closed_leaves(root, closed)
    return ClosedTableau(root, bindings)


# The rule classes a version-2 or -3 file may name: the rule table's groups and closure.
RULE_CLASSES = frozenset((*RULE_GROUPS.values(), CLOSURE))


def v3_tableau(record) -> ClosedTableau:
    """The tableau of a version-2 or -3 file.  Any malformed entry, a
    reference to a later or missing entry, a node used twice, a term where
    a formula belongs or the reverse, a formula or term with a free bound
    variable, a node without formulas that is no node's child or whose
    parent's rule introduced none for it, a ``store`` that is not the
    closure pairs in preorder, or a fault ``old_witness`` or
    ``drop_closed_leaves`` names is a FormatError."""
    version = file_version(record, (2, 3))
    table = Table(record.get("table"))
    formula, term = table.formula, table.term
    raw_nodes = record.get("nodes")
    if type(raw_nodes) is not list:
        raise FormatError("nodes must be a list")
    nodes: list[TableauNode] = []
    used: list[bool] = []
    closed = set()
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
        rule = None if raw[1] is None else v3_rule(raw[1], table)
        formulas = None if raw[0] is None else tuple(formula(i, "formula") for i in raw[0])
        nodes.append(TableauNode(formulas, rule, tuple(children)))
        if raw[3]:
            closed.add(nodes[-1])
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
    bindings = {}
    for meta, t in unifier:
        meta = term(meta, "unifier entry")
        if not isinstance(meta, Meta):
            raise FormatError(f"unifier binds the non-metavariable {print_term(meta)}")
        bindings[meta.name] = term(t, "unifier entry")
    constraints = [Constraint(formula(lhs, "constraint"), formula(rhs, "constraint"))
                   for lhs, rhs in store]
    if constraints != closure_constraints(nodes[root]):
        raise FormatError("store is not the closure pairs in preorder")
    drop_closed_leaves(nodes[root], closed)
    return ClosedTableau(nodes[root], bindings)


def v3_rule(raw, table: Table) -> RuleInstance:
    formula, term = table.formula, table.term
    if type(raw) is not list or len(raw) != 6:
        raise FormatError("a rule must be [class, principal, introduced, meta, skolem, pair]")
    kind, principal, introduced, meta, skolem, pair = raw
    if type(kind) is not str or kind not in RULE_CLASSES:  # a list, which would not hash, too
        raise FormatError(f"unknown rule class {kind!r}")
    if type(introduced) is not list or not all(type(child) is list for child in introduced):
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
        tuple(tuple(formula(i, "introduced formula") for i in child) for child in introduced),
        old_witness(kind, meta, skolem), pair)


def upgrade(path: Path, out: Path) -> None:
    text = path.read_text(encoding="utf-8")
    record = load_json(text, "proof")
    if type(record) is not dict:
        raise FormatError("top level must be a JSON object")
    # The writers copy fields they do not judge, such as a rule name that is
    # no string; the current reader, run on their text, refuses those.
    if path.suffix == ".gs3":
        text = proof_to_json(proof_from_json(text) if "version" in record else v1_proof(record))
        proof_from_json(text)
    elif path.suffix == ".tab":
        if "version" not in record:
            ct = v1_tableau(record)
        elif record["version"] in (2, 3):
            ct = v3_tableau(record)
        else:
            ct = tableau_from_json(text)
        text = tableau_to_json(ct)
        tableau_from_json(text)
    else:
        raise ValueError("the name ends in neither .tab nor .gs3")
    out.mkdir(parents=True, exist_ok=True)
    (out / path.name).write_text(text, encoding="utf-8")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", type=Path, metavar="FILE")
    parser.add_argument("--out", type=Path, required=True, metavar="DIR")
    args = parser.parse_args(argv)
    status = 0
    for path in args.files:
        try:
            upgrade(path, args.out)
        except (OSError, ValueError, TypeError, LookupError, AttributeError, RecursionError) as e:
            print(f"{path}: cannot upgrade: {type(e).__name__}: {e}", file=sys.stderr)
            status = 2
        else:
            print(f"wrote {args.out / path.name}")
    raise SystemExit(status)


if __name__ == "__main__":
    main()

"""Rewrite version-1 proof files, which ``tabseq`` no longer reads, in the
current formats: each ``.tab`` as version 3 and each ``.gs3`` as version 2,
under the same name in ``--out``.

A version-1 file has no ``version`` field: it is one nested record per
proof node, with formulas and terms as text.  This script rebuilds the
proof from that text and writes it with the package's writers; it judges
nothing but a ``.tab``'s ``store``, which the current writer derives from
the tree and which must therefore be the tree's closure pairs in preorder.
Run ``tabseq translate`` on each upgraded ``.tab`` and ``tabseq check`` on
each upgraded ``.gs3``: their audits and the checker decide whether the
proof holds.  A file that cannot be read, rebuilt, written or read back by
the current reader, or a ``.tab`` whose store contradicts its tree, is
reported with its path, exit status 2, and the other files are still
upgraded.

Usage: python scripts/upgrade_files.py FILE... --out DIR
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from tabseq.formula import parse, parse_term
from tabseq.gs3 import GsProof, GsRule, proof_from_json, proof_to_json
from tabseq.tableau import (ClosedTableau, RuleInstance, TableauNode, closure_constraints,
                            tableau_from_json, tableau_to_json)
from tabseq.tree import MAX_OCCURRENCES
from tabseq.unify import Constraint

formula = functools.cache(lambda text: parse(text, allow_generated=True))
term = functools.cache(lambda text: parse_term(text, allow_generated=True))


def proof(record) -> GsProof:
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
        sequent = tuple(formula(text) for text, n in node["sequent"] for _ in range(n))
        children = tuple(build(child) for child in node.get("children", []))
        if rule is None:
            return GsProof(sequent, None, None, children)
        witness = term(rule["witness"]) if "witness" in rule else None
        return GsProof(sequent, GsRule(rule["name"], witness), formula(rule["principal"]), children)

    return build(record)


def tableau(record) -> ClosedTableau:
    def optional(read, value):
        return None if value is None else read(value)

    def build(node) -> TableauNode:
        rule = node.get("rule")
        if rule is not None:
            pair = rule.get("closure_pair")
            rule = RuleInstance(
                rule["class"], optional(formula, rule.get("principal")),
                tuple(tuple(map(formula, child)) for child in rule["introduced"]),
                meta=optional(term, rule.get("meta")), skolem=optional(term, rule.get("skolem")),
                closure_pair=None if pair is None else (formula(pair[0]), formula(pair[1])))
        return TableauNode(tuple(map(formula, node["formulas"])), rule,
                           tuple(build(child) for child in node.get("children", [])),
                           bool(node.get("closed", False)))

    bindings = {}
    for binding in record["unifier"]:
        meta, _, value = binding.partition(" := ")
        bindings[term(meta).name] = term(value)
    root = build(record["root"])
    # The current format derives the store from the tree, so a store that
    # says otherwise would be lost, not rewritten.
    store = [Constraint(formula(lhs), formula(rhs)) for lhs, rhs in record["store"]]
    if store != closure_constraints(root):
        raise ValueError("the store is not the closure pairs in preorder")
    return ClosedTableau(root, bindings)


def upgrade(path: Path, out: Path) -> None:
    record = json.loads(path.read_text(encoding="utf-8"))
    if "version" in record:
        raise ValueError(f"version {record['version']!r} is no version-1 file")
    # The writers copy fields they do not judge, such as a rule name that is
    # no string; the current reader, run on their text, refuses those.
    if path.suffix == ".gs3":
        text = proof_to_json(proof(record))
        proof_from_json(text)
    elif path.suffix == ".tab":
        text = tableau_to_json(tableau(record))
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

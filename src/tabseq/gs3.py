"""One-sided ground sequent calculus: proof trees, stepwise construction,
and an independent checker.

Sequents are multisets of ground formulas read "Delta |-".  Contraction is
implicit (every rule keeps its principal formula in the premises) and
weakening is explicit, dropping exactly one occurrence.  The existential
rules consume a witness constant that must be fresh for the conclusion
sequent; that locality is the whole trust story of the checker, so this
module deliberately depends on nothing but the formula syntax and the
shared tree helpers.

It also holds the one rule table (``rule_name``, ``RULE_GROUPS``,
``premise_additions``): each tableau expansion is the sequent rule of
the same name, as the prover and the translator take it from here.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .formula import (
    And,
    App,
    Exists,
    Forall,
    Formula,
    Implies,
    Meta,
    Not,
    Or,
    Table,
    Term,
    encode_table,
    formula_symbols,
    is_ground_term,
    mark_any,
    outermost_skolem_terms,
    parse,
    parse_term,
    print_formula,
    print_term,
    subst_var,
)

# ``replace_at`` is not used here; callers reach it as ``gs3.replace_at``.
from .tree import (
    FormatError,
    MAX_OCCURRENCES,
    Path,
    entry_index,
    file_version,
    format_path,
    indented,
    iter_nodes,
    load_json,
    parse_field,
    postorder,
    replace_at,
)

Sequent = tuple[Formula, ...]

# Each decomposition rule's tableau group.
RULE_GROUPS = {
    "not_not": "alpha", "not_implies": "alpha", "and": "alpha", "not_or": "alpha",
    "implies": "beta", "not_and": "beta", "or": "beta",
    "exists": "delta", "not_forall": "delta",
    "not_exists": "gamma", "forall": "gamma",
}
RULE_NAMES = (*RULE_GROUPS, "axiom", "weaken")

# The rule whose principal a formula is, by its class and, under a
# negation, by its body's class.
_RULE_OF = {And: "and", Or: "or", Implies: "implies", Exists: "exists", Forall: "forall"}
_NEGATED_RULE_OF = {Not: "not_not", And: "not_and", Or: "not_or", Implies: "not_implies",
                    Forall: "not_forall", Exists: "not_exists"}

SCHEMA_MISMATCH = "schema-mismatch"
FRESHNESS = "freshness-violation"
BAD_AXIOM = "bad-axiom"
OPEN_LEAF = "open-leaf"


class StepError(ValueError):
    """A construction step violated its rule schema."""

    def __init__(self, reason: str, message: str):
        super().__init__(f"{reason}: {message}")
        self.reason = reason


class GsRule(NamedTuple):
    """A rule name and, for the quantifier rules, its witness; a named
    tuple, so that the checker's and the writer's keys hash in C."""

    name: str
    witness: Term | None = None


@dataclass(eq=False)
class GsProof:
    """A sequent-proof node; leaves without a rule are open.

    Not frozen: ``build_step`` grows a proof by setting the rule, principal
    and children of an open leaf, once.  A node compares and hashes by
    identity, so the translator keys its bookkeeping by node.
    """

    sequent: Sequent
    rule: GsRule | None = None
    principal: Formula | None = None
    children: tuple["GsProof", ...] = ()

    @property
    def is_open(self) -> bool:
        return self.rule is None and not self.children


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    path: Path = ()
    reason: str = ""
    detail: str = ""

    def __bool__(self) -> bool:
        return self.accepted

    def describe(self) -> str:
        if self.accepted:
            return "Accepted"
        return f"Rejected: {self.reason} at path {format_path(self.path)}"


# ------------------------------------------------------------- tree helpers


def open_leaves(root: GsProof) -> list[Path]:
    return [p for p, n in iter_nodes(root) if n.is_open]


def inference_count(root: GsProof) -> int:
    """The inferences of the tree the proof unfolds to, a shared node object
    counted once per path to it, in one pass over the objects."""
    below: dict[int, int] = {}  # id(node) -> inferences of its subtree
    for node in postorder(root):
        below[id(node)] = (node.rule is not None) + sum([below[id(c)] for c in node.children])
    return below[id(root)]


def rule_names(root: GsProof) -> list[str]:
    """Rule names in preorder; on a single branch this is root-to-leaf order."""
    return [n.rule.name for _, n in iter_nodes(root) if n.rule is not None]


def spine_rule_names(root: GsProof, *, coalesce_weaken: bool = False) -> list[str]:
    """Rule names along the leftmost branch, root to leaf.

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


# ----------------------------------------------------------------- schemas


def rule_name(f: Formula) -> str | None:
    """The decomposition rule whose principal ``f`` is; None for a literal."""
    if type(f) is Not:
        return _NEGATED_RULE_OF.get(type(f.body))
    return _RULE_OF.get(type(f))


def premise_additions(rule: GsRule, principal: Formula) -> tuple[tuple[Formula, ...], ...] | None:
    """Formulas each premise adds to the conclusion, or None on a shape clash."""
    name = rule.name
    if name == "not_not":
        if isinstance(principal, Not) and isinstance(principal.body, Not):
            return ((principal.body.body,),)
    elif name == "not_implies":
        if isinstance(principal, Not) and isinstance(principal.body, Implies):
            return ((principal.body.left, Not(principal.body.right)),)
    elif name == "and":
        if isinstance(principal, And):
            return ((principal.left, principal.right),)
    elif name == "not_or":
        if isinstance(principal, Not) and isinstance(principal.body, Or):
            return ((Not(principal.body.left), Not(principal.body.right)),)
    elif name == "implies":
        if isinstance(principal, Implies):
            return ((Not(principal.left),), (principal.right,))
    elif name == "not_and":
        if isinstance(principal, Not) and isinstance(principal.body, And):
            return ((Not(principal.body.left),), (Not(principal.body.right),))
    elif name == "or":
        if isinstance(principal, Or):
            return ((principal.left,), (principal.right,))
    elif name == "exists":
        if isinstance(principal, Exists) and rule.witness is not None:
            return ((subst_var(principal.body, principal.var, rule.witness),),)
    elif name == "not_forall":
        if isinstance(principal, Not) and isinstance(principal.body, Forall) and rule.witness is not None:
            inner = subst_var(principal.body.body, principal.body.var, rule.witness)
            return ((Not(inner),),)
    elif name == "not_exists":
        if isinstance(principal, Not) and isinstance(principal.body, Exists) and rule.witness is not None:
            inner = subst_var(principal.body.body, principal.body.var, rule.witness)
            return ((Not(inner),),)
    elif name == "forall":
        if isinstance(principal, Forall) and rule.witness is not None:
            return ((subst_var(principal.body, principal.var, rule.witness),),)
    return None


# ------------------------------------------------------------------- check


def check(proof: GsProof) -> CheckResult:
    """Verify a sequent proof against the rule schemas, locally per node.

    Premises must equal the conclusion multiset plus the schema's
    introduced formulas (the principal is retained), weakening must remove
    exactly its dropped occurrence, axiom leaves must contain a
    complementary pair, and every existential-group witness must be a
    constant absent from its conclusion sequent.  The first violation in
    preorder is reported.

    A node's formulas are its parent's plus what the parent's rule added
    there, so the metavariable test reads the root's formulas and, at each
    other node, only those added ones; a per-call memo walks each distinct
    subformula once.  The freshness test keeps one such memo per witness
    symbol.  A premise whose tuple is its conclusion's followed by the
    added formulas, as ``build_step`` makes it, is accepted without being
    counted; any other premise is counted and compared.

    Each node object is checked once per call.  One met again, as in a
    proof read back from a file, whose equal subproofs are one object, is
    skipped with its whole subproof: the walk finished that subproof, and
    accepted it, when it first met the object, since an object cannot lie
    below itself.  So the first rejection and its path are those of a
    check of every node of the tree the proof unfolds to.
    """
    metas: dict = {}  # formula or term -> whether it holds a metavariable
    symbols: dict[str, dict] = {}  # witness symbol -> its memo, as ``metas``
    met: set[int] = set()  # ids of the node objects walked so far
    # Preorder walk; each premise's multiset and added formulas, found
    # while checking its parent, are the child's conclusion and new formulas.
    stack: list[tuple[Path, GsProof, dict[Formula, int], Sequent]] = [
        ((), proof, _multiset(proof.sequent), proof.sequent)]
    while stack:
        path, node, conclusion, added = stack.pop()
        if id(node) in met:
            continue
        met.add(id(node))
        premises = _check_node(path, node, conclusion, added, metas, symbols)
        if isinstance(premises, CheckResult):
            return premises
        for bit in reversed(range(len(premises))):
            stack.append((path + (bit,), node.children[bit], *premises[bit]))
    return CheckResult(True)


def _multiset(formulas) -> dict[Formula, int]:
    """Occurrence counts as a plain dict, which compares in C, unlike
    ``Counter.__eq__``; a formula that does not occur has no entry."""
    out: dict[Formula, int] = {}
    for f in formulas:
        out[f] = out.get(f, 0) + 1
    return out


def _is_meta(x) -> bool:
    return type(x) is Meta


def _check_node(path: Path, node: GsProof, conclusion: dict[Formula, int], added: Sequent,
                metas: dict, symbols: dict[str, dict]
                ) -> CheckResult | list[tuple[dict[Formula, int], Sequent]]:
    """The rejection at this node, or the multiset and added formulas of
    each of its premises.  ``added`` holds, in the order of the node's
    sequent, every formula of it that its ancestors' sequents lack, and
    may hold some they have.  ``metas`` and each memo in ``symbols`` say
    which formulas and terms hold a metavariable or that symbol."""
    mark_any(added, metas, _is_meta)
    for f in added:
        if metas[f]:
            return CheckResult(False, path, SCHEMA_MISMATCH,
                               f"metavariable in sequent formula {print_formula(f)}")
    if node.rule is None:
        if node.children:
            return CheckResult(False, path, SCHEMA_MISMATCH, "rule-less node has children")
        return CheckResult(False, path, OPEN_LEAF, "open leaf")
    rule, principal = node.rule, node.principal
    if rule.name not in RULE_NAMES:
        return CheckResult(False, path, SCHEMA_MISMATCH, f"unknown rule {rule.name!r}")
    if principal is None:
        return CheckResult(False, path, SCHEMA_MISMATCH, "rule without principal")
    if principal not in conclusion:
        return CheckResult(False, path, SCHEMA_MISMATCH,
                           f"principal {print_formula(principal)} not in sequent")

    if rule.name == "axiom":
        if node.children:
            return CheckResult(False, path, SCHEMA_MISMATCH, "axiom with premises")
        if Not(principal) not in conclusion:
            return CheckResult(False, path, BAD_AXIOM,
                               f"no complement for {print_formula(principal)}")
        return []

    if rule.name == "weaken":
        if len(node.children) != 1:
            return CheckResult(False, path, SCHEMA_MISMATCH, "weakening needs one premise")
        expected = dict(conclusion)
        if expected[principal] == 1:
            del expected[principal]
        else:
            expected[principal] -= 1
        seq, i = node.sequent, node.sequent.index(principal)
        premise = node.children[0].sequent
        if premise != seq[:i] + seq[i + 1:] and _multiset(premise) != expected:
            return CheckResult(False, path, SCHEMA_MISMATCH,
                               "premise is not conclusion minus the dropped occurrence")
        return [(expected, ())]

    additions = premise_additions(rule, principal)
    if additions is None:
        return CheckResult(False, path, SCHEMA_MISMATCH,
                           f"{rule.name} does not apply to {print_formula(principal)}")
    if len(node.children) != len(additions):
        return CheckResult(False, path, SCHEMA_MISMATCH, "wrong number of premises")

    group = RULE_GROUPS[rule.name]
    if group in ("delta", "gamma"):
        w = rule.witness
        if w is None or not is_ground_term(w):
            return CheckResult(False, path, SCHEMA_MISMATCH, "witness must be a ground term")
        if group == "delta":
            if not isinstance(w, App) or w.args:
                return CheckResult(False, path, SCHEMA_MISMATCH,
                                   "existential witness must be a constant")
            memo = symbols.setdefault(w.symbol, {})
            mark_any(node.sequent, memo, lambda x: type(x) is App and x.symbol == w.symbol)
            if any([memo[f] for f in node.sequent]):
                return CheckResult(False, path, FRESHNESS,
                                   f"witness {w.symbol} occurs in the conclusion sequent")

    premises: list[tuple[dict[Formula, int], Sequent]] = []
    for bit, extra in enumerate(additions):
        expected = dict(conclusion)
        for f in extra:
            expected[f] = expected.get(f, 0) + 1
        premise = node.children[bit].sequent
        if premise == node.sequent + extra:
            premises.append((expected, extra))
        elif _multiset(premise) == expected:
            # The added formulas in the premise's own order, among the
            # conclusion's, which the memo answers without a walk.
            premises.append((expected, premise))
        else:
            return CheckResult(False, path, SCHEMA_MISMATCH,
                               f"premise {bit} is not conclusion plus introduced formulas")
    return premises


# ------------------------------------------------------------- build steps


def build_step(
    node: GsProof,
    rule: GsRule,
    principal: Formula,
    *,
    additions: tuple[tuple[Formula, ...], ...] | None = None,
    outermost_skolems: Callable[[Formula], set[App]] | None = None,
) -> None:
    """Extend an open leaf by one inference, validating the schema eagerly.

    The leaf is extended in place: it gets its rule, principal and fresh
    premise leaves.  A refused step raises StepError and changes nothing.

    A builder that has computed ``premise_additions(rule, principal)``
    passes the result as ``additions``; one that remembers
    ``outermost_skolem_terms`` of each formula passes that lookup as
    ``outermost_skolems``.  Both are trusted to be exactly what they stand
    for.

    During tableau translation the existential witnesses are still Skolem
    terms; those are accepted here with the corresponding relaxed freshness
    reading (the witness term must not occur outermost in the conclusion),
    which coincides with the checker's constant freshness after the final
    Skolem-to-constant replacement.
    """
    if not node.is_open:
        raise StepError(SCHEMA_MISMATCH, "node is not an open leaf")
    if principal not in node.sequent:
        raise StepError(SCHEMA_MISMATCH,
                        f"principal {print_formula(principal)} not in sequent")

    if rule.name == "axiom":
        if Not(principal) not in node.sequent:
            raise StepError(BAD_AXIOM, f"no complement for {print_formula(principal)}")
        children: tuple[GsProof, ...] = ()
    elif rule.name == "weaken":
        remaining = list(node.sequent)
        remaining.remove(principal)
        children = (GsProof(tuple(remaining)),)
    else:
        if additions is None:
            additions = premise_additions(rule, principal)
        if additions is None:
            raise StepError(SCHEMA_MISMATCH,
                            f"{rule.name} does not apply to {print_formula(principal)}")
        group = RULE_GROUPS.get(rule.name)
        if group in ("delta", "gamma"):
            w = rule.witness
            if w is None or not is_ground_term(w):
                raise StepError(SCHEMA_MISMATCH, "witness must be a ground term")
            if group == "delta":
                if isinstance(w, App) and w.is_skolem:
                    if outermost_skolems is None:
                        outermost_skolems = outermost_skolem_terms
                    if any(w in outermost_skolems(f) for f in node.sequent):
                        raise StepError(FRESHNESS,
                                        f"witness {print_term(w)} occurs in the conclusion")
                elif isinstance(w, App) and not w.args:
                    if any(w.symbol in formula_symbols(f) for f in node.sequent):
                        raise StepError(FRESHNESS,
                                        f"witness {w.symbol} occurs in the conclusion")
                else:
                    raise StepError(SCHEMA_MISMATCH,
                                    "existential witness must be a constant or Skolem term")
        children = tuple(GsProof(node.sequent + extra) for extra in additions)
    node.rule, node.principal, node.children = rule, principal, children


# --------------------------------------------------------------- serialize
#
# A version-2 file is one flat JSON object with ``version`` 2 and:
# - ``table``: the distinct formulas and terms (see ``formula.encode_table``);
# - ``sequents``: each [base, [[table entry, count], ...]], the pairs sorted
#   by entry.  The sequent is the earlier sequent ``base`` (or, for null,
#   the empty one) with the count of each listed formula set to the given
#   one; 0 removes it.  A premise differs from its conclusion by a formula
#   or two, so each sequent is written as a change to its first parent's;
# - ``nodes``: each [sequent, rule name, principal, witness, [children]],
#   every child before its parent, and equal subproofs one entry;
# - ``root``: the index of the root node.
# A file without ``version`` is version 1: one nested node record per
# proof node, with formulas as text.

def _subproofs(proof: GsProof) -> tuple[dict[Sequent, int], dict[tuple, int], dict[int, int]]:
    """The distinct sequents and subproofs of ``proof``, numbered in one
    walk, children first: each distinct sequent tuple, each distinct key
    (sequent number, rule, principal, children's key numbers), and the key
    number of each node object by its id.  A node object met again is not
    walked again, and equal subproofs built as separate objects get one
    key."""
    sequents: dict[Sequent, int] = {}
    keys: dict[tuple, int] = {}
    numbers: dict[int, int] = {}
    for node in postorder(proof):
        key = (sequents.setdefault(node.sequent, len(sequents)), node.rule, node.principal,
               tuple([numbers[id(child)] for child in node.children]))
        numbers[id(node)] = keys.setdefault(key, len(keys))
    return sequents, keys, numbers


def _multisets(sequents: list[Sequent], keys: list[tuple]
               ) -> tuple[list[int], list[dict[Formula, int]], dict[tuple[int, int], Sequent],
                          set[Formula]]:
    """Number the multisets of the distinct sequent tuples ``sequents``,
    equal multisets alike, and count each multiset once.  ``keys`` are the
    distinct subproofs that ``_subproofs`` numbers, children first.

    The keys are read parents first.  A sequent whose tuple is the tuple of
    a parent's sequent followed by a tail, as ``build_step`` and the reader
    make them, is counted as that parent's count plus the tail, and the
    tail is kept as its change from the parent's multiset.  A sequent that
    extends none of its parents, the root's and a reordered or weakened
    one, is counted whole.  Two counts are compared only if their formulas'
    hashes have one sum, which equal multisets have.

    Returns each sequent's multiset number, each multiset's count, the tail
    of each (multiset, parent multiset) pair met as such an extension, and
    every formula of the sequents."""
    numbers: list[int] = [-1] * len(sequents)  # sequent -> multiset number, -1 if unknown
    sums: list[int] = [0] * len(sequents)  # sequent -> sum of its formulas' hashes
    counts: list[dict[Formula, int]] = []  # multiset number -> formula -> count
    by_sum: dict[int, list[int]] = {}  # hash sum -> the multiset numbers with it
    tails: dict[tuple[int, int], Sequent] = {}
    formulas: set[Formula] = set()
    tested: set[tuple[int, int]] = set()  # (sequent, parent sequent) pairs

    def enter(seq: int, count: dict[Formula, int], total: int) -> None:
        for number in by_sum.setdefault(total, []):
            if counts[number] == count:
                break
        else:
            number = len(counts)
            counts.append(count)
            by_sum[total].append(number)
        numbers[seq], sums[seq] = number, total

    for seq, _, _, children in reversed(keys):
        here = sequents[seq]
        if numbers[seq] < 0:
            formulas.update(here)
            enter(seq, dict(Counter(here)), sum(map(hash, here)))
        size = len(here)
        for child in children:
            below = keys[child][0]
            if below == seq or (below, seq) in tested:
                continue
            tested.add((below, seq))
            there = sequents[below]
            if len(there) <= size or there[:size] != here:
                continue
            tail = there[size:]
            if numbers[below] < 0:
                count = counts[numbers[seq]].copy()
                for f in tail:
                    count[f] = count.get(f, 0) + 1
                formulas.update(tail)
                enter(below, count, sums[seq] + sum(map(hash, tail)))
            tails.setdefault((numbers[below], numbers[seq]), tail)
    return numbers, counts, tails, formulas


def proof_to_json(proof: GsProof) -> str:
    """Canonical version-2 serialization, compact with sorted keys.

    One walk, children first, numbers each distinct (sequent, rule,
    principal, children) once; a node object met again, as in a read-back
    proof, is not walked again.  Numbers that stand for equal subproofs
    whose sequents list their formulas in another order then meet in one
    node entry.  The table lists the formulas in an order fixed by their
    structure, so the text does not depend on the order of formulas within
    a sequent.  A formula nested deeper than ``MAX_DEPTH`` is a DepthError,
    since the reader would refuse the file.

    A sequent whose tuple extends its parent's is counted from the
    parent's count and its tail, and its change is read off the tail (see
    ``_multisets``), so writing a proof grown by ``build_step`` costs what
    each rule added; any other sequent is counted whole and its change
    found by comparing counts.
    """
    sequents, keys, numbers = _subproofs(proof)
    key_list = list(keys)
    multiset_of, counts, tails, items = _multisets(list(sequents), key_list)
    for _, rule, principal, _ in key_list:
        if principal is not None:
            items.add(principal)
        if rule is not None and rule.witness is not None:
            items.add(rule.witness)
    table, entry = encode_table(items)

    node_entries: dict[tuple, int] = {}
    entries: list[int] = []  # key number -> node entry
    for seq, rule, principal, children in key_list:
        node = (multiset_of[seq],
                None if rule is None else rule.name,
                None if rule is None or principal is None else entry(principal),
                None if rule is None or rule.witness is None else entry(rule.witness),
                tuple([entries[c] for c in children]))
        entries.append(node_entries.setdefault(node, len(node_entries)))
    nodes = list(node_entries)
    root = entries[numbers[id(proof)]]

    # The sequents in the order a preorder walk from the root first meets
    # them, each as a change to the sequent of the node's first parent.
    seq_entries: dict[int, int] = {}  # multiset number -> sequent entry
    seq_records: list[list] = []
    met: set[int] = set()
    walk: list[tuple[int, int | None]] = [(root, None)]
    while walk:
        n, base = walk.pop()
        if n in met:
            continue
        met.add(n)
        multiset = nodes[n][0]
        if multiset not in seq_entries:
            seq_entries[multiset] = len(seq_records)
            now = counts[multiset]
            if base is None:
                change = [(entry(f), c) for f, c in now.items()]
            elif (multiset, base) in tails:  # only the tail's formulas changed, each upwards
                change = [(entry(f), now[f]) for f in dict.fromkeys(tails[multiset, base])]
            else:
                before = counts[base]
                change = [(entry(f), c) for f, c in now.items() - before.items()]
                change += [(entry(f), 0) for f in before.keys() - now.keys()]
            seq_records.append([None if base is None else seq_entries[base], sorted(change)])
        walk.extend((child, multiset) for child in reversed(nodes[n][4]))
    record = {"version": 2, "table": table, "sequents": seq_records,
              "nodes": [(seq_entries[node[0]], *node[1:]) for node in nodes], "root": root}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _node_from_record(record, sequent: Callable[[tuple], Sequent],
                      formula: Callable[[str], Formula],
                      term: Callable[[str], Term]) -> GsProof:
    if not isinstance(record, dict):
        raise FormatError("proof node must be an object")
    seq_raw = record.get("sequent")
    if not isinstance(seq_raw, list):
        raise FormatError("sequent must be a list")
    for item in seq_raw:
        if not isinstance(item, list) or len(item) != 2 or not isinstance(item[1], int) or item[1] < 1:
            raise FormatError("sequent entries must be [formula, count] pairs")
        if not isinstance(item[0], str):
            raise FormatError("sequent formula must be a string")
    formulas = sequent(tuple(map(tuple, seq_raw)))
    rule_raw = record.get("rule")
    rule = None
    principal = None
    if rule_raw is not None:
        if not isinstance(rule_raw, dict) or "name" not in rule_raw:
            raise FormatError("rule must be an object with a name")
        if not isinstance(rule_raw["name"], str):
            raise FormatError("rule name must be a string")
        witness = None
        if "witness" in rule_raw:
            witness = parse_field(term, rule_raw["witness"], "witness")
        rule = GsRule(rule_raw["name"], witness)
        principal = parse_field(formula, rule_raw.get("principal"), "principal")
    children_raw = record.get("children", [])
    if not isinstance(children_raw, list):
        raise FormatError("children must be a list")
    children = tuple(_node_from_record(c, sequent, formula, term) for c in children_raw)
    return GsProof(formulas, rule, principal, children)


def proof_from_json(text: str) -> GsProof:
    """Read a proof written by ``proof_to_json``, or a version-1 file.

    A version-2 file is read in flat loops: each node entry becomes one
    ``GsProof``, shared by every parent that refers to it, so a read-back
    proof is a DAG.  Any malformed entry, a reference to a later or
    missing entry, a term where a formula belongs or the reverse, or a
    sequent formula, principal or witness with a free bound variable is a
    FormatError.
    """
    record = load_json(text, "proof")
    if file_version(record, (2,)) == 2:
        return _proof_from_v2(record)
    return _proof_from_v1(record)


def _proof_from_v2(record: dict) -> GsProof:
    """The sequents are read in one loop.  Each sequent's count is its
    base's with the change applied, and a base's count is handed on, not
    copied, to the last sequent that names it, so a proof without branches
    copies none.  A change whose every pair raises a count gives the base's
    tuple followed by the added occurrences in pair order; any other gives
    the formulas in the order their counts were first set.  Each
    sequent's number of occurrences is kept, and the sum is tested against
    ``MAX_OCCURRENCES`` before the sequent's tuple is built."""
    table = Table(record.get("table"))
    raw_sequents = record.get("sequents")
    if type(raw_sequents) is not list:
        raise FormatError("sequents must be a list")
    # How many sequents name each sequent as their base; a malformed entry
    # is counted as naming none, and refused in the loop below.
    uses = [0] * len(raw_sequents)
    for pos, raw in enumerate(raw_sequents):
        if type(raw) is list and len(raw) == 2 and type(raw[0]) is int and 0 <= raw[0] < pos:
            uses[raw[0]] += 1
    counts: list[dict[int, int] | None] = []  # per sequent: table entry -> count, while needed
    totals: list[int] = []  # per sequent: its number of occurrences
    sequents: list[Sequent] = []
    formulas: dict[int, Formula] = {}
    occurrences = 0
    for raw in raw_sequents:
        if type(raw) is not list or len(raw) != 2 or type(raw[1]) is not list:
            raise FormatError("a sequent must be [base, [[formula, count], ...]]")
        base, pairs = raw
        if base is None:
            count, before, total = {}, (), 0
        else:
            base = entry_index(base, len(counts), "base")
            uses[base] -= 1
            count, before, total = counts[base], sequents[base], totals[base]
            if uses[base]:
                count = dict(count)
            else:
                counts[base] = None
        added: list[tuple[Formula, int]] | None = []  # occurrences added, while each pair raises
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2 or type(pair[1]) is not int or pair[1] < 0:
                raise FormatError("sequent entries must be [formula, count] pairs")
            f, n = pair
            formula = formulas[f] = table.formula(f, "sequent formula")
            old = count.get(f, 0)
            total += n - old
            if added is not None and n > old:
                added.append((formula, n - old))
            else:
                added = None
            if n:
                count[f] = n
            else:
                count.pop(f, None)
        occurrences += total
        if occurrences > MAX_OCCURRENCES:
            raise FormatError(f"sequents hold more than {MAX_OCCURRENCES} formulas")
        counts.append(count if uses[len(counts)] else None)
        totals.append(total)
        if added is not None:
            sequents.append(before + tuple([f for f, n in added for _ in range(n)]))
        else:
            sequents.append(tuple([formulas[f] for f, n in count.items() for _ in range(n)]))
    raw_nodes = record.get("nodes")
    if type(raw_nodes) is not list:
        raise FormatError("nodes must be a list")
    nodes: list[GsProof] = []
    for raw in raw_nodes:
        if type(raw) is not list or len(raw) != 5 or type(raw[4]) is not list:
            raise FormatError("a node must be [sequent, rule, principal, witness, [children]]")
        seq, name, principal, witness, children = raw
        sequent = sequents[entry_index(seq, len(sequents), "sequent")]
        rule = None
        if name is not None:
            if type(name) is not str:
                raise FormatError("rule name must be a string")
            rule = GsRule(name, None if witness is None else table.term(witness, "witness"))
            if principal is not None:
                principal = table.formula(principal, "principal")
        elif principal is not None or witness is not None:
            raise FormatError("a node without a rule has a principal or witness")
        nodes.append(GsProof(sequent, rule, principal, tuple(
            [nodes[entry_index(child, len(nodes), "child")] for child in children])))
    return nodes[entry_index(record.get("root"), len(nodes), "root")]


def _proof_from_v1(record) -> GsProof:
    """Each distinct formula or term text is parsed once per call, and each
    distinct validated sequent entry list becomes its formula tuple once
    per call.  Nesting too deep to walk is a FormatError, and so are
    distinct entry lists that hold more than ``MAX_OCCURRENCES`` formula
    occurrences between them, before any of them is built."""
    formula = functools.cache(lambda s: parse(s, allow_generated=True))
    term = functools.cache(lambda s: parse_term(s, allow_generated=True))
    occurrences = 0

    @functools.cache
    def sequent(entries: tuple[tuple[str, int], ...]) -> Sequent:
        nonlocal occurrences
        occurrences += sum(n for _, n in entries)
        if occurrences > MAX_OCCURRENCES:
            raise FormatError(f"sequents hold more than {MAX_OCCURRENCES} formulas")
        formulas: list[Formula] = []
        try:
            for text, n in entries:
                formulas += [formula(text)] * n
        except ValueError as e:
            raise FormatError(f"bad sequent formula: {e}") from None
        return tuple(formulas)

    try:
        return _node_from_record(record, sequent, formula, term)
    except RecursionError:
        raise FormatError("proof nested too deeply") from None


# ------------------------------------------------------------------ render


def render_proof(proof: GsProof) -> str:
    """Human-readable stacked rendering, root first, branches indented.

    Each distinct subproof, as ``proof_to_json`` numbers them, is rendered
    once, whether its copies are one node object or several.  One with two
    or more parents is numbered where it is first rendered, ``[n] sequent
    |-``, and is written ``[n] as above`` wherever it is met again, so the
    rendering of a shared proof grows with its distinct subproofs, not with
    the tree it unfolds to.
    """
    _, keys, numbers = _subproofs(proof)
    parents = Counter(child for key in keys for child in key[3])
    labels: dict[int, str] = {}  # key number -> "[n]"
    lines: list[str] = []

    def label(node: GsProof) -> str:
        rule = node.rule
        text = rule.name
        if node.principal is not None:
            text += f" on {print_formula(node.principal)}"
        if rule.witness is not None:
            text += f" [{print_term(rule.witness)}]"
        return text

    for indent, node, again in indented(proof, lambda n: numbers[id(n)]):
        number = numbers[id(node)]
        if again:
            lines.append(f"{indent}{labels[number]} as above")
            continue
        seq = ", ".join(print_formula(f) for f in node.sequent)
        if parents[number] > 1:
            labels[number] = f"[{len(labels) + 1}]"
            seq = f"{labels[number]} {seq}"
        lines.append(f"{indent}{seq} |-")
        if node.rule is not None:
            lines.append(f"{indent}-- {label(node)}")
        elif node.is_open:
            lines.append(f"{indent}-- (open)")
    return "\n".join(lines) + "\n"

"""One-sided ground sequent calculus: the rule table, proof trees, an
independent checker, and the ``.gs3`` reader and writer.

Sequents are multisets of ground formulas read "Delta |-".  Contraction is
implicit (every rule keeps its principal formula in the premises) and
weakening is explicit, dropping exactly one occurrence.  The existential
rules consume a witness constant that must be fresh for the conclusion
sequent; that locality is the whole trust story of the checker, so this
module deliberately depends on nothing but the formula syntax and the
shared tree helpers.

The rule table (``rule_name``, ``RULE_GROUPS``, ``premise_additions``) is
written once, in ``_RULES``: each tableau expansion is the sequent rule of
the same name, as the prover and the translator take it from here.  The
translator's step builder and the ``--pretty`` renderer live with their
callers, ``translate`` and ``cli``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

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
    is_ground_term,
    mark_any,
    print_formula,
    subst_var,
)
from .tree import (
    FormatError,
    MAX_OCCURRENCES,
    Path,
    entry_index,
    file_version,
    format_path,
    load_json,
    postorder,
)

# Nothing here calls ``parse``, ``parse_term``, ``print_term``,
# ``replace_at`` or ``iter_nodes``.  They stay bound in this module because
# the benchmark's tracer (``WRAPPED`` in ``perfbench/spans.py``) looks the
# first four up here by name, and a traced run fails on a missing one; the
# benchmark's tests call the last two on this module.
from .formula import parse, parse_term, print_term
from .tree import iter_nodes, replace_at

Sequent = tuple[Formula, ...]

# The decomposition rules, one row each: the rule's name and tableau group,
# its principal's class and, under a negation, the body's class, and what
# each premise adds, from the formula decomposed (the principal, or the
# negation's body) and the rule's witness.
_RULES = (
    ("not_not", "alpha", Not, Not, lambda f, w: ((f.body,),)),
    ("not_implies", "alpha", Not, Implies, lambda f, w: ((f.left, Not(f.right)),)),
    ("and", "alpha", And, None, lambda f, w: ((f.left, f.right),)),
    ("not_or", "alpha", Not, Or, lambda f, w: ((Not(f.left), Not(f.right)),)),
    ("implies", "beta", Implies, None, lambda f, w: ((Not(f.left),), (f.right,))),
    ("not_and", "beta", Not, And, lambda f, w: ((Not(f.left),), (Not(f.right),))),
    ("or", "beta", Or, None, lambda f, w: ((f.left,), (f.right,))),
    ("exists", "delta", Exists, None, lambda f, w: ((subst_var(f.body, f.var, w),),)),
    ("not_forall", "delta", Not, Forall, lambda f, w: ((Not(subst_var(f.body, f.var, w)),),)),
    ("not_exists", "gamma", Not, Exists, lambda f, w: ((Not(subst_var(f.body, f.var, w)),),)),
    ("forall", "gamma", Forall, None, lambda f, w: ((subst_var(f.body, f.var, w),),)),
)
RULE_GROUPS = {name: group for name, group, *_ in _RULES}
RULE_NAMES = (*RULE_GROUPS, "axiom", "weaken")
# The row whose principal a formula is, by its class and, under a negation,
# by its body's class.
_ROW_OF = {row[2]: row for row in _RULES if row[3] is None}
_NEGATED_ROW_OF = {row[3]: row for row in _RULES if row[3] is not None}

SCHEMA_MISMATCH = "schema-mismatch"
FRESHNESS = "freshness-violation"
BAD_AXIOM = "bad-axiom"
OPEN_LEAF = "open-leaf"


class GsRule(NamedTuple):
    """A rule name and, for the quantifier rules, its witness; a named
    tuple, so that the checker's and the writer's keys hash in C."""

    name: str
    witness: Term | None = None


@dataclass(eq=False)
class GsProof:
    """A sequent-proof node; leaves without a rule are open.

    Not frozen: the translator grows a proof by setting the rule,
    principal and children of an open leaf, once.  A node compares and
    hashes by identity, so the translator keys its bookkeeping by node.
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


def inference_count(root: GsProof) -> int:
    """The inferences of the tree the proof unfolds to, a shared node object
    counted once per path to it, in one pass over the objects."""
    below: dict[int, int] = {}  # id(node) -> inferences of its subtree
    for node in postorder(root):
        below[id(node)] = (node.rule is not None) + sum([below[id(c)] for c in node.children])
    return below[id(root)]


# ----------------------------------------------------------------- schemas


def rule_name(f: Formula) -> str | None:
    """The decomposition rule whose principal ``f`` is; None for a literal."""
    row = _NEGATED_ROW_OF.get(type(f.body)) if type(f) is Not else _ROW_OF.get(type(f))
    return None if row is None else row[0]


def premise_additions(rule: GsRule, principal: Formula) -> tuple[tuple[Formula, ...], ...] | None:
    """Formulas each premise adds to the conclusion, or None on a shape
    clash or a quantifier rule without a witness."""
    if type(principal) is Not:
        row = _NEGATED_ROW_OF.get(type(principal.body))
    else:
        row = _ROW_OF.get(type(principal))
    if row is None:
        return None
    name, group, _, body, adds = row
    if name != rule.name or (rule.witness is None and group in ("delta", "gamma")):
        return None
    return adds(principal if body is None else principal.body, rule.witness)


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
    symbol.  A premise whose tuple is its conclusion's followed by a tail
    that is the added formulas in some order, as the translator and the
    reader make it, is accepted by counting at most that tail; any other
    premise is counted whole and compared.

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
    seq, size = node.sequent, len(node.sequent)
    for bit, extra in enumerate(additions):
        expected = dict(conclusion)
        for f in extra:
            expected[f] = expected.get(f, 0) + 1
        premise = node.children[bit].sequent
        tail = premise[size:]
        if premise[:size] == seq and (tail == extra or _multiset(tail) == _multiset(extra)):
            premises.append((expected, tail))
        elif _multiset(premise) == expected:
            # The added formulas in the premise's own order, among the
            # conclusion's, which the memo answers without a walk.
            premises.append((expected, premise))
        else:
            return CheckResult(False, path, SCHEMA_MISMATCH,
                               f"premise {bit} is not conclusion plus introduced formulas")
    return premises


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

def subproofs(proof: GsProof) -> tuple[dict[Sequent, int], dict[tuple, int], dict[int, int]]:
    """The distinct sequents and subproofs of ``proof``, numbered in one
    walk, children first: each distinct sequent tuple, each distinct key
    (sequent number, rule, principal, children's key numbers), and the key
    number of each node object by its id.  A node object met again is not
    walked again, and equal subproofs built as separate objects get one
    key.  The writer and the ``--pretty`` renderer in ``cli`` number by it."""
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
    distinct subproofs that ``subproofs`` numbers, children first.

    The keys are read parents first.  A sequent whose tuple is the tuple of
    a parent's sequent followed by a tail, as the translator and the reader
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
    ``_multisets``), so writing a proof grown by the translator costs what
    each rule added; any other sequent is counted whole and its change
    found by comparing counts.
    """
    sequents, keys, numbers = subproofs(proof)
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


def proof_from_json(text: str) -> GsProof:
    """Read a proof written by ``proof_to_json``.

    The file is read in flat loops: each node entry becomes one
    ``GsProof``, shared by every parent that refers to it, so a read-back
    proof is a DAG.  Any malformed entry, a reference to a later or
    missing entry, a term where a formula belongs or the reverse, or a
    sequent formula, principal or witness with a free bound variable is a
    FormatError.
    """
    record = load_json(text, "proof")
    file_version(record, (2,))
    return _proof_from_v2(record)


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

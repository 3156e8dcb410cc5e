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
callers, ``translate`` and ``cli``.  A ``.gs3`` file holds the end-sequent
and each rule's choices, from which the reader derives every other sequent
(see the format comment above ``_derivation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

from .formula import (
    MAX_DEPTH,
    And,
    App,
    DepthError,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Table,
    Term,
    encode_table,
    is_ground_term,
    print_formula,
    subst_var,
    symbols_of,
)
from .tree import (
    FormatError,
    MAX_OCCURRENCES,
    Path,
    dump_json,
    entry_index,
    file_version,
    format_path,
    load_json,
    path_of,
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


# Each rule name's witness-free rule, built once.
BARE_RULES = {name: GsRule(name) for name in RULE_NAMES}


@dataclass(eq=False, slots=True)
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
    below: dict[GsProof, int] = {}  # node -> inferences of its subtree
    for node in postorder(root):
        below[node] = (node.rule is not None) + sum([below[c] for c in node.children])
    return below[root]


# ----------------------------------------------------------------- schemas


def rule_name(f: Formula) -> str | None:
    """The decomposition rule whose principal ``f`` is; None for a literal."""
    row = _NEGATED_ROW_OF.get(type(f.body)) if type(f) is Not else _ROW_OF.get(type(f))
    return None if row is None else row[0]


def premise_additions(rule: GsRule, principal: Formula) -> tuple[tuple[Formula, ...], ...] | None:
    """Formulas each premise adds to the conclusion, or None on a shape
    clash or a quantifier rule without a witness.  A witness-free result
    is kept, with the rule name, in the principal's ``decomposed`` slot,
    which only this function writes and later witness-free calls read."""
    witness = rule.witness
    if witness is None:
        done = principal.decomposed
        if done is not None and done[0] == rule.name:
            return done[1]
    if type(principal) is Not:
        row = _NEGATED_ROW_OF.get(type(principal.body))
    else:
        row = _ROW_OF.get(type(principal))
    if row is None:
        return None
    name, group, _, body, adds = row
    if name != rule.name or (witness is None and group in ("delta", "gamma")):
        return None
    additions = adds(principal if body is None else principal.body, witness)
    if witness is None:
        object.__setattr__(principal, "decomposed", (name, additions))
    return additions


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
    there, so the metavariable test reads the ``has_meta`` flag of the
    root's formulas and, at each other node, of only those added ones; it
    walks nothing.  The freshness test reads each conclusion formula's
    ``symbols`` slot (see ``formula.symbols_of``), and each distinct
    (rule, principal) pair's additions are derived once per call.  A
    node's path is kept as a link to its parent's and built only for the
    rejection.  A premise whose tuple is its conclusion's followed by a
    tail that is the added formulas in some order, as the translator and
    the reader make it, is accepted by counting at most that tail; any
    other premise is counted whole and compared.

    Each node object is checked once per call.  One met again, as in a
    proof read back from a file, whose equal subproofs are one object, is
    skipped with its whole subproof: the walk finished that subproof, and
    accepted it, when it first met the object, since an object cannot lie
    below itself.  So the first rejection and its path are those of a
    check of every node of the tree the proof unfolds to.
    """
    additions = cache(premise_additions)
    met: set[GsProof] = set()  # the node objects walked so far
    # Preorder walk; each premise's multiset and added formulas, found
    # while checking its parent, are the child's conclusion and new formulas.
    # A node's link is (its parent's link, its bit), None at the root.
    stack: list[tuple[tuple | None, GsProof, dict[Formula, int], Sequent]] = [
        (None, proof, _multiset(proof.sequent), proof.sequent)]
    while stack:
        link, node, conclusion, added = stack.pop()
        if node in met:
            continue
        met.add(node)
        premises = _check_node(node, conclusion, added, additions)
        if type(premises) is tuple:
            path: list[int] = []
            while link is not None:
                link, bit = link
                path.append(bit)
            return CheckResult(False, tuple(reversed(path)), *premises)
        for bit in reversed(range(len(premises))):
            stack.append(((link, bit), node.children[bit], *premises[bit]))
    return CheckResult(True)


def _multiset(formulas) -> dict[Formula, int]:
    """Occurrence counts as a plain dict, which compares in C, unlike
    ``Counter.__eq__``; a formula that does not occur has no entry."""
    out: dict[Formula, int] = {}
    for f in formulas:
        out[f] = out.get(f, 0) + 1
    return out


def _check_node(node: GsProof, conclusion: dict[Formula, int], added: Sequent,
                additions_of: Callable[[GsRule, Formula], tuple | None]
                ) -> tuple[str, str] | list[tuple[dict[Formula, int], Sequent]]:
    """The rejection at this node, as its reason and detail, or the
    multiset and added formulas of each of its premises; the last premise
    is handed ``conclusion`` itself.  ``added`` holds, in the order of the
    node's sequent, every formula of it that its ancestors' sequents lack,
    and may hold some they have.  ``additions_of`` gives a (rule,
    principal) pair's ``premise_additions``, as ``check``'s cache of it does."""
    for f in added:
        if f.has_meta:
            return SCHEMA_MISMATCH, f"metavariable in sequent formula {print_formula(f)}"
    if node.rule is None:
        if node.children:
            return SCHEMA_MISMATCH, "rule-less node has children"
        return OPEN_LEAF, "open leaf"
    rule, principal = node.rule, node.principal
    if rule.name not in RULE_NAMES:
        return SCHEMA_MISMATCH, f"unknown rule {rule.name!r}"
    if principal is None:
        return SCHEMA_MISMATCH, "rule without principal"
    if principal not in conclusion:
        return SCHEMA_MISMATCH, f"principal {print_formula(principal)} not in sequent"

    if rule.name == "axiom":
        if node.children:
            return SCHEMA_MISMATCH, "axiom with premises"
        if Not(principal) not in conclusion:
            return BAD_AXIOM, f"no complement for {print_formula(principal)}"
        return []

    if rule.name == "weaken":
        if len(node.children) != 1:
            return SCHEMA_MISMATCH, "weakening needs one premise"
        seq, i = node.sequent, node.sequent.index(principal)
        expected = conclusion
        expected[principal] -= 1
        if not expected[principal]:
            del expected[principal]
        premise = node.children[0].sequent
        if premise != seq[:i] + seq[i + 1:] and _multiset(premise) != expected:
            return SCHEMA_MISMATCH, "premise is not conclusion minus the dropped occurrence"
        return [(expected, ())]

    additions = additions_of(rule, principal)
    if additions is None:
        return SCHEMA_MISMATCH, f"{rule.name} does not apply to {print_formula(principal)}"
    if len(node.children) != len(additions):
        return SCHEMA_MISMATCH, "wrong number of premises"

    group = RULE_GROUPS[rule.name]
    if group in ("delta", "gamma"):
        w = rule.witness
        if w is None or not is_ground_term(w):
            return SCHEMA_MISMATCH, "witness must be a ground term"
        if group == "delta":
            if not isinstance(w, App) or w.args:
                return SCHEMA_MISMATCH, "existential witness must be a constant"
            if any([w.symbol in symbols_of(f) for f in node.sequent]):
                return FRESHNESS, f"witness {w.symbol} occurs in the conclusion sequent"

    premises: list[tuple[dict[Formula, int], Sequent]] = []
    seq, size, last = node.sequent, len(node.sequent), len(additions) - 1
    for bit, extra in enumerate(additions):
        expected = conclusion if bit == last else dict(conclusion)
        for f in extra:
            expected[f] = expected.get(f, 0) + 1
        premise = node.children[bit].sequent
        tail = premise[size:]
        if premise[:size] == seq and (tail == extra or _multiset(tail) == _multiset(extra)):
            premises.append((expected, tail))
        elif _multiset(premise) == expected:
            # The added formulas in the premise's own order, among the
            # conclusion's, whose flags the metavariable test reads again.
            premises.append((expected, premise))
        else:
            return SCHEMA_MISMATCH, f"premise {bit} is not conclusion plus introduced formulas"
    return premises


# --------------------------------------------------------------- serialize
#
# A version-3 file holds the end-sequent and each rule's choices; the
# reader derives every other sequent as the rule made it.  It is one flat
# JSON object with ``version`` 3 and:
# - ``table``: the distinct formulas and terms (see ``formula.encode_table``);
# - ``nodes``: each [sequent, rule, [children]], every child before its
#   parent, and equal subproofs one entry.  A rule is [principal] or
#   [principal, witness] for the decomposition ``rule_name(principal)``
#   names, ["axiom", p] or ["weaken", p], or null for an open leaf;
# - ``root``: the index of the root node.
# Formulas and terms are table indices.  A sequent is its formulas' entries,
# one per occurrence, sorted; it is null when it is, as a multiset, the
# premise its deriving parent's rule gives: that parent's sequent followed
# by what ``premise_additions`` adds there, or, below a weakening, that
# sequent less the principal's first occurrence.  A node's deriving parent
# is the last node entry that lists it as a child, at its first place
# there; ``check`` compares the premise any other parent derives.  The root
# lists its sequent.  ``scripts/upgrade_files.py`` rewrites version-1 and
# -2 files, which list every distinct sequent and each rule's name.

_NAMED = ("axiom", "weaken")  # the rules a file names; the others are their principal's


def _derivation(rule: GsRule, principal: Formula) -> tuple[tuple[Formula, ...] | None, ...] | str:
    """What the file derives each premise of ``rule`` on ``principal`` by,
    as the formulas it adds, or None for a weakening's, which drops the
    principal's first occurrence; or why no file holds the rule.
    DepthError for a quantifier's instance nested deeper than
    ``MAX_DEPTH``, which no table entry may be."""
    if rule.name in _NAMED:
        if rule.witness is not None:
            return f"{rule.name} rule takes no witness"
        return () if rule.name == "axiom" else (None,)
    name = rule_name(principal)
    if name is None:
        return f"the literal {print_formula(principal)} is no principal"
    if name != rule.name:
        return f"{rule.name} is not the rule of {print_formula(principal)}"
    quantifier = RULE_GROUPS[name] in ("delta", "gamma")
    if (rule.witness is not None) != quantifier:
        return f"{name} rule takes {'a' if quantifier else 'no'} witness"
    additions = premise_additions(rule, principal)
    if quantifier and additions[0][0].height > MAX_DEPTH:
        raise DepthError(f"premise formula nested deeper than {MAX_DEPTH} levels")
    return additions


def _premise(seq: Sequent, principal: Formula, extra: tuple[Formula, ...] | None
             ) -> Sequent | None:
    """The premise a rule derives from its conclusion ``seq`` with ``extra``
    (see ``_derivation``); None below a weakening of what ``seq`` lacks."""
    if extra is not None:
        return seq + extra
    if principal not in seq:
        return None
    i = seq.index(principal)
    return seq[:i] + seq[i + 1:]


def _same(a: Sequent | None, b: Sequent | None) -> bool:
    """Whether ``a`` and ``b`` are both None or hold one multiset."""
    if a is None or b is None:
        return a is b
    return a == b or len(a) == len(b) and _multiset(a) == _multiset(b)


def subproofs(proof: GsProof) -> tuple[list[GsProof], list[tuple[int, ...]], dict[GsProof, int],
                                        dict[GsProof, tuple[GsProof, int, Sequent | None]]]:
    """The distinct subproofs of ``proof``, numbered children first: a node
    object of each, its children's numbers, each node object's number, and
    how node objects grew from a parent.  Subproofs are one when their
    sequents are equal multisets and their rules, principals and children's
    numbers are equal; only sequents of one size and one sum of formula
    hashes are compared.  A node object met again is not walked again.
    The writer and the ``--pretty`` renderer in ``cli`` number by it.

    A premise whose tuple is its conclusion's followed by a tail, or a
    weakening's conclusion's less the principal's first occurrence, as the
    translator and the reader make them, gets its sum from the first such
    parent met, and is kept with that parent, its place there and the tail,
    or None for the weakening's."""
    order = postorder(proof)
    sums: dict[GsProof, int] = {}  # node -> the sum of its formulas' hashes
    grown: dict[GsProof, tuple[GsProof, int, Sequent | None]] = {}
    for node in reversed(order):  # every parent before its children
        here = node.sequent
        if node not in sums:
            sums[node] = sum(map(hash, here))
        total, size = sums[node], len(here)
        for bit, child in enumerate(node.children):
            seq = child.sequent
            if child in sums:
                continue
            if seq[:size] == here:
                grown[child] = (node, bit, seq[size:])
                sums[child] = total + sum(map(hash, seq[size:]))
            elif len(seq) == size - 1 and seq == _premise(here, node.principal, None):
                grown[child] = (node, bit, None)
                sums[child] = total - hash(node.principal)
    nodes: list[GsProof] = []
    children: list[tuple[int, ...]] = []
    numbers: dict[GsProof, int] = {}
    keys: dict[tuple, list[int]] = {}  # (size, hash sum, rule, principal, children) -> numbers
    for node in order:
        below = tuple([numbers[child] for child in node.children])
        key = (len(node.sequent), sums[node], node.rule, node.principal, below)
        same = keys.setdefault(key, [])
        number = next((n for n in same if _same(nodes[n].sequent, node.sequent)), len(nodes))
        if number == len(nodes):
            nodes.append(node)
            children.append(below)
            same.append(number)
        numbers[node] = number
    return nodes, children, numbers, grown


def proof_to_json(proof: GsProof) -> str:
    """Canonical version-3 serialization, compact with sorted keys.

    One walk, children first, numbers each distinct subproof once (see
    ``subproofs``).  The table lists the formulas in an order fixed by their
    structure, and a listed sequent its entries sorted, so the text does
    not depend on the order of formulas within a sequent.  A premise whose
    tuple grew from its deriving parent's is judged by what it added.
    ValueError, naming the node's path, for a rule that no file holds (see
    ``_derivation``) or with other than its number of premises; DepthError
    for a formula nested deeper than ``MAX_DEPTH``, which the reader refuses.
    """
    nodes, children, numbers, grown = subproofs(proof)
    root = numbers[proof]
    deriving: dict[int, tuple[int, int]] = {}  # subproof -> (deriving parent, place)
    for n in reversed(range(len(nodes))):
        for bit, child in enumerate(children[n]):
            deriving.setdefault(child, (n, bit))
    derivations: list[tuple] = []
    rules: list[list | None] = []  # per subproof: its rule's fields, as objects
    for node in nodes:
        rule, principal, fields = node.rule, node.principal, None
        if rule is None:
            derivation = "rule-less node with children" if node.children else ()
        elif principal is None:
            derivation = f"{rule.name} rule without principal"
        else:
            derivation = _derivation(rule, principal)
            fields = ([rule.name, principal] if rule.name in _NAMED
                      else [principal] if rule.witness is None else [principal, rule.witness])
        if type(derivation) is tuple and len(derivation) != len(node.children):
            derivation = f"{rule.name} rule with {len(node.children)} premises"
        if type(derivation) is str:
            raise ValueError(f"cannot write: {derivation} at {path_of(proof, node)}")
        derivations.append(derivation)
        rules.append(fields)
    items = [x for fields in rules if fields for x in fields if type(x) is not str]
    listed: list[bool] = []
    for n, node in enumerate(nodes):
        derived = False
        if n != root:
            parent, bit = deriving[n]
            extra = derivations[parent][bit]
            growth = grown.get(node)
            if growth is not None and (numbers[growth[0]], growth[1]) == (parent, bit):
                derived = _same(growth[2], extra)
            else:
                above = nodes[parent]
                derived = _same(node.sequent, _premise(above.sequent, above.principal, extra))
        listed.append(not derived)
        if not derived:
            items += node.sequent
    table, entry = encode_table(items)
    out = [[sorted(map(entry, node.sequent)) if lists else None,
            fields and [x if type(x) is str else entry(x) for x in fields], list(below)]
           for node, lists, fields, below in zip(nodes, listed, rules, children)]
    return dump_json({"version": 3, "table": table, "nodes": out, "root": root}) + "\n"


def proof_from_json(text: str) -> GsProof:
    """Read a proof written by ``proof_to_json``.

    The file is read in flat loops: each node entry becomes one
    ``GsProof``, shared by every parent that refers to it, so a read-back
    proof is a DAG.  Then one pass from the root counts the occurrences of
    the sequents left out, refusing more than ``MAX_OCCURRENCES`` before
    any is built, and one more builds them.  FormatError for a malformed
    entry, a reference to a later or missing entry, a term where a formula
    belongs or the reverse, a sequent formula, principal or witness with a
    free bound variable, a rule ``_derivation`` refuses, children that are
    not the rule's premises, a node without a sequent that is no node's
    child, the root without one, a weakening of a formula its derived
    sequent lacks, or a version-1 or -2 file (naming the upgrade script).
    """
    record = load_json(text, "proof")
    file_version(record, (3,), "proof")
    table = Table(record.get("table"))
    raw_nodes = record.get("nodes")
    if type(raw_nodes) is not list:
        raise FormatError("nodes must be a list")
    nodes: list[GsProof] = []
    derivations: list[tuple] = []
    links: list[list[int]] = []  # per node: its children's entries
    for n, raw in enumerate(raw_nodes):
        if (type(raw) is not list or len(raw) != 3
                or type(raw[0]) is not list and raw[0] is not None or type(raw[2]) is not list):
            raise FormatError("a node must be [sequent, rule, [children]]")
        listed, fields, below = raw
        rule, principal, derivation = (None, None, ()) if fields is None else _rule_fields(
            fields, table)
        below = [entry_index(child, n, "child") for child in below]
        if len(below) != len(derivation):
            raise FormatError(f"node {n} has {len(below)} child entries, not {len(derivation)}")
        sequent = None if listed is None else tuple(
            [table.formula(i, "sequent formula") for i in listed])
        nodes.append(GsProof(sequent, rule, principal, tuple([nodes[c] for c in below])))
        derivations.append(derivation)
        links.append(below)
    root = entry_index(record.get("root"), len(nodes), "root")
    if nodes[root].sequent is None:
        raise FormatError(f"root {root} lists no sequent")
    # Each sequent left out, from its deriving parent, whose sequent comes first.
    deriving: list[tuple[int, tuple | None] | None] = [None] * len(nodes)
    sizes = [0] * len(nodes)
    occurrences = 0
    for n in reversed(range(len(nodes))):
        if nodes[n].sequent is not None:
            sizes[n] = len(nodes[n].sequent)
        elif deriving[n] is None:
            raise FormatError(f"node {n} lists no sequent and is no node's child")
        occurrences += sizes[n]
        if occurrences > MAX_OCCURRENCES:
            raise FormatError(f"sequents hold more than {MAX_OCCURRENCES} formulas")
        for child, extra in zip(links[n], derivations[n]):
            if nodes[child].sequent is None and deriving[child] is None:
                deriving[child] = (n, extra)
                sizes[child] = sizes[n] + (-1 if extra is None else len(extra))
    for n in reversed(range(len(nodes))):
        if deriving[n] is not None:
            parent, extra = deriving[n]
            seq = _premise(nodes[parent].sequent, nodes[parent].principal, extra)
            if seq is None:
                raise FormatError(f"node {parent} weakens a formula its sequent lacks")
            nodes[n].sequent = seq
    return nodes[root]


def _rule_fields(raw, table: Table) -> tuple[GsRule, Formula, tuple]:
    """The rule, principal and derivation (see ``_derivation``) of a node's
    rule field."""
    if (type(raw) is not list or not 1 <= len(raw) <= 2
            or type(raw[0]) is str and (raw[0] not in _NAMED or len(raw) != 2)):
        raise FormatError('a rule must be [principal], [principal, witness], '
                          '["axiom", principal] or ["weaken", principal]')
    if type(raw[0]) is str:
        rule, principal = BARE_RULES[raw[0]], table.formula(raw[1], "principal")
    else:
        principal = table.formula(raw[0], "principal")
        name = rule_name(principal)
        rule = (GsRule(name, table.term(raw[1], "witness")) if len(raw) == 2
                else BARE_RULES.get(name) or GsRule(name))
    try:
        derivation = _derivation(rule, principal)
    except DepthError as e:
        raise FormatError(str(e)) from None
    if type(derivation) is str:
        raise FormatError(derivation)
    return rule, principal, derivation

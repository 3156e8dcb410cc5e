"""The ``.gs3`` writer and reader against a reference pair kept here as
``ref_*``, written with ``json`` and plain Python only: formulas are plain
nested tuples, sequents are counted with ``Counter``, and the rule table,
substitution and formula table are written out again.  The text written
must be the same; a file either both readers refuse or both read, and
then every node of the proofs they read has the same sequent as a
multiset, rule, principal, witness and children, and the same tuple
wherever the reference derived it from its parent."""

from __future__ import annotations

import functools
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tabseq.formula import And, App, Atom, Exists, Forall, Implies, Meta, Not, Or, Var, const, parse
from tabseq.gs3 import GsProof, GsRule, check, proof_from_json, proof_to_json
from tabseq.problems import corpus, deep_tableau, growth_goal
from tabseq.tableau import ClosedTableau, prove
from tabseq.translate import translate
from tabseq.tree import dump_json

# --------------------------------------------------------------- reference

MAX_DEPTH = 200
MAX_OCCURRENCES = 10_000_000
# Per class, its tag; a plain formula or term is its tag, its name if it
# has one, and its parts: ("~", body), ("forall", "x", body), ("f", "g", a, b).
TAGS = {Var: "v", Meta: "m", App: "f", Atom: "P", Not: "~", And: "&", Or: "|", Implies: "=>",
        Forall: "forall", Exists: "exists"}
NAMED = {"v", "m", "f", "P", "forall", "exists"}
# Per tag: whether it is a formula, whether its parts are, and how many (None: any).
SPECS = {"v": (False, False, 0), "m": (False, False, 0), "f": (False, False, None),
         "P": (True, False, None), "~": (True, True, 1), "&": (True, True, 2),
         "|": (True, True, 2), "=>": (True, True, 2), "forall": (True, True, 1),
         "exists": (True, True, 1)}
QUANTIFIER_RULES = {"exists", "not_forall", "forall", "not_exists"}


class Refused(Exception):
    """The reference reader refuses a file."""


@functools.cache
def plain(x) -> tuple:
    """A package formula or term as a plain nested tuple."""
    tag = TAGS[type(x)]
    if tag in ("v", "m"):
        return (tag, x.name)
    if tag in ("f", "P"):
        return (tag, x.symbol if tag == "f" else x.predicate, *map(plain, x.args))
    if tag in ("forall", "exists"):
        return (tag, x.var, plain(x.body))
    if tag == "~":
        return (tag, plain(x.body))
    return (tag, plain(x.left), plain(x.right))


def parts(x: tuple) -> tuple:
    return x[2:] if x[0] in NAMED else x[1:]


@functools.cache
def height(x: tuple) -> int:
    return 1 + max(map(height, parts(x)), default=0)


def substitute(x: tuple, var: str, w: tuple) -> tuple:
    if x[0] == "v":
        return w if x[1] == var else x
    if x[0] in ("forall", "exists") and x[1] == var:
        return x
    return x[:len(x) - len(parts(x))] + tuple(substitute(p, var, w) for p in parts(x))


def ref_rule_name(p: tuple) -> str | None:
    if p[0] == "~":
        return {"~": "not_not", "=>": "not_implies", "|": "not_or", "&": "not_and",
                "forall": "not_forall", "exists": "not_exists"}.get(p[1][0])
    return {"&": "and", "=>": "implies", "|": "or", "exists": "exists",
            "forall": "forall"}.get(p[0])


def ref_additions(p: tuple, w: tuple | None) -> list[list[tuple]]:
    """What each premise of the decomposition of ``p`` with ``w`` adds."""
    b = p[1] if p[0] == "~" else None
    return {
        "not_not": lambda: [[b[1]]],
        "not_implies": lambda: [[b[1], ("~", b[2])]],
        "and": lambda: [[p[1], p[2]]],
        "not_or": lambda: [[("~", b[1]), ("~", b[2])]],
        "implies": lambda: [[("~", p[1])], [p[2]]],
        "not_and": lambda: [[("~", b[1])], [("~", b[2])]],
        "or": lambda: [[p[1]], [p[2]]],
        "exists": lambda: [[substitute(p[2], p[1], w)]],
        "not_forall": lambda: [[("~", substitute(b[2], b[1], w))]],
        "forall": lambda: [[substitute(p[2], p[1], w)]],
        "not_exists": lambda: [[("~", substitute(b[2], b[1], w))]],
    }[ref_rule_name(p)]()


def ref_premises(name: str | None, p: tuple, w: tuple | None) -> list | None:
    """Per premise, the formulas it adds, or None for a weakening's; None
    for a rule no file holds."""
    if name in ("axiom", "weaken"):
        return None if w is not None else [] if name == "axiom" else [None]
    if name is None or ref_rule_name(p) != name or (w is not None) != (name in QUANTIFIER_RULES):
        return None
    return ref_additions(p, w)


def ref_premise(seq: tuple, name: str, p: tuple, extra) -> tuple | None:
    if extra is not None:
        return seq + tuple(extra)
    if p not in seq:
        return None
    i = seq.index(p)
    return seq[:i] + seq[i + 1:]


def ref_proof_to_json(proof: GsProof) -> str:
    # The distinct subproofs, children first, and each node object's number.
    numbers: dict[int, int] = {}
    keys: dict[tuple, int] = {}
    nodes: list[tuple] = []  # (sequent, name, principal, witness, children)
    stack = [(proof, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in numbers:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
            continue
        seq = tuple(map(plain, node.sequent))
        rule = node.rule
        entry = (seq, rule and rule.name, node.principal and plain(node.principal),
                 rule and rule.witness and plain(rule.witness),
                 tuple(numbers[id(child)] for child in node.children))
        key = (frozenset(Counter(seq).items()), *entry[1:])
        if key not in keys:
            keys[key] = len(nodes)
            nodes.append(entry)
        numbers[id(node)] = keys[key]
    root = numbers[id(proof)]

    premises = []
    for seq, name, p, w, children in nodes:
        found = ([] if not children else None) if name is None else \
            None if p is None else ref_premises(name, p, w)
        if found is None or len(found) != len(children):
            raise ValueError("cannot write")
        if any(height(f) > MAX_DEPTH for extra in found if extra for f in extra):
            raise ValueError("nested too deeply")
        premises.append(found)
    deriving = {}
    for n in reversed(range(len(nodes))):
        for bit, child in enumerate(nodes[n][4]):
            deriving.setdefault(child, (n, bit))
    listed = []
    for n, (seq, *_) in enumerate(nodes):
        derived = None
        if n != root:
            parent, bit = deriving[n]
            conclusion, name, p = nodes[parent][:3]
            derived = ref_premise(conclusion, name, p, premises[parent][bit])
        listed.append(derived is None or Counter(derived) != Counter(seq))

    items = set()
    for (seq, name, p, w, _), lists in zip(nodes, listed):
        items.update(x for x in (p, w) if x is not None)
        if lists:
            items.update(seq)
    every, stack = set(), list(items)
    while stack:
        x = stack.pop()
        if x not in every:
            every.add(x)
            stack.extend(parts(x))
    index: dict[tuple, int] = {}
    table = []
    for level in range(1, max(map(height, every), default=0) + 1):
        contents = []
        for x in every:
            if height(x) == level:
                head = x[:len(x) - len(parts(x))]
                contents.append((head + tuple(index[p] for p in parts(x)), x))
        for content, x in sorted(contents):
            index[x] = len(table)
            table.append(list(content))
    out = []
    for (seq, name, p, w, children), lists in zip(nodes, listed):
        fields = None if name is None else [name, index[p]] if name in ("axiom", "weaken") \
            else [index[p]] + ([index[w]] if w is not None else [])
        out.append([sorted(index[f] for f in seq) if lists else None, fields, list(children)])
    record = {"version": 3, "table": table, "nodes": out, "root": root}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
META = re.compile(r"X[0-9]+\Z")


def ref_table(raw) -> list[tuple[tuple, bool, frozenset]]:
    """Each table entry as (plain formula or term, is a formula, its free
    variables)."""
    if type(raw) is not list:
        raise Refused
    entries = []
    for pos, e in enumerate(raw):
        if type(e) is not list or not e or type(e[0]) is not str or e[0] not in SPECS:
            raise Refused
        tag = e[0]
        formula, part_formula, count = SPECS[tag]
        if tag in NAMED:
            name = e[1] if len(e) > 1 else None
            if type(name) is not str or not (META.match(name) if tag == "m" else
                                               IDENT.match(name) and name not in
                                               ("forall", "exists")):
                raise Refused
            refs = e[2:]
        else:
            refs = e[1:]
        if count is not None and len(refs) != count:
            raise Refused
        if any(type(r) is not int or not 0 <= r < pos or entries[r][1] is not part_formula
               for r in refs):
            raise Refused
        obj = tuple(e[:len(e) - len(refs)]) + tuple(entries[r][0] for r in refs)
        free = frozenset().union(*(entries[r][2] for r in refs))
        if tag == "v":
            free = frozenset([name])
        elif tag in ("forall", "exists"):
            free -= {name}
        if height(obj) > MAX_DEPTH:
            raise Refused
        entries.append((obj, formula, free))
    return entries


def ref_proof_from_v3(record) -> tuple[list[list], int, set[int]]:
    """The reference reader's nodes, each [sequent, rule name, principal,
    witness, children] with plain formulas, its root, and the nodes whose
    sequent it derived from a parent."""
    if type(record) is not dict or type(record.get("version")) is not int or \
            record["version"] != 3:
        raise Refused
    entries = ref_table(record.get("table"))

    def closed(raw, formula: bool) -> tuple:
        if type(raw) is not int or not 0 <= raw < len(entries):
            raise Refused
        obj, is_formula, free = entries[raw]
        if is_formula is not formula or free:
            raise Refused
        return obj

    raw_nodes = record.get("nodes")
    if type(raw_nodes) is not list:
        raise Refused
    nodes, premises = [], []
    for n, raw in enumerate(raw_nodes):
        if type(raw) is not list or len(raw) != 3 or not (raw[0] is None or type(raw[0]) is list) \
                or type(raw[2]) is not list:
            raise Refused
        listed, fields, children = raw
        name = p = w = None
        found = []
        if fields is not None:
            if type(fields) is not list or len(fields) not in (1, 2):
                raise Refused
            if type(fields[0]) is str:
                if fields[0] not in ("axiom", "weaken") or len(fields) != 2:
                    raise Refused
                name, p = fields[0], closed(fields[1], True)
            else:
                p = closed(fields[0], True)
                w = closed(fields[1], False) if len(fields) == 2 else None
                name = ref_rule_name(p)
            found = ref_premises(name, p, w)
            if found is None or any(height(f) > MAX_DEPTH for e in found if e for f in e):
                raise Refused
        if any(type(c) is not int or not 0 <= c < n for c in children) or \
                len(children) != len(found):
            raise Refused
        seq = None if listed is None else tuple(closed(i, True) for i in listed)
        nodes.append([seq, name, p, w, list(children)])
        premises.append(found)
    root = record.get("root")
    if type(root) is not int or not 0 <= root < len(nodes) or nodes[root][0] is None:
        raise Refused
    deriving = {}
    for n in reversed(range(len(nodes))):
        for bit, child in enumerate(nodes[n][4]):
            if nodes[child][0] is None:
                deriving.setdefault(child, (n, bit))
    if any(nodes[n][0] is None and n not in deriving for n in range(len(nodes))):
        raise Refused
    sizes = {}
    for n in reversed(range(len(nodes))):
        if n in deriving:
            parent, bit = deriving[n]
            extra = premises[parent][bit]
            sizes[n] = sizes[parent] + (-1 if extra is None else len(extra))
        else:
            sizes[n] = len(nodes[n][0])
    if sum(sizes.values()) > MAX_OCCURRENCES:
        raise Refused
    for n in reversed(range(len(nodes))):
        if n in deriving:
            parent, bit = deriving[n]
            seq, name, p = nodes[parent][:3]
            nodes[n][0] = ref_premise(seq, name, p, premises[parent][bit])
            if nodes[n][0] is None:
                raise Refused
    return nodes, root, set(deriving)


# ------------------------------------------------------------------ inputs


def translated_proofs() -> list[tuple[str, GsProof]]:
    out = []
    conj = {n: " & ".join(f"P{i}" for i in range(n)) for n in (8, 20, 60)}
    goals = [*corpus(300, 5), *[(f"growth-{k}", growth_goal(k)) for k in range(1, 5)],
             *[(f"wide-{n}", parse(f"({c}) => ({c})")) for n, c in conj.items()]]
    for name, goal in goals:
        ct = prove([Not(goal)])
        assert isinstance(ct, ClosedTableau), name
        out.append((name, translate(ct)))
    out.append(("deep_tableau(300)", translate(deep_tableau(300))))
    return out


def hand_built_proof(rng: random.Random) -> GsProof:
    """A proof DAG under rules a file holds, whose premises extend, reorder
    or weaken their conclusions, or are those the rule derives: the writer
    numbers any such proof, and the checker rejects most of these."""
    pool = [parse(t) for t in ("P", "~P", "Q", "R", "P | Q", "~(Q & R)", "forall x. S(x)")]
    root = GsProof(tuple(rng.choices(pool, k=rng.randrange(1, 4))))
    made = [root]
    for _ in range(rng.randrange(1, 12)):
        node = rng.choice([n for n in made if n.rule is None])
        compound = [f for f in node.sequent if ref_rule_name(plain(f))]
        if compound and rng.random() < 0.7:
            principal = rng.choice(compound)
            name = ref_rule_name(plain(principal))
            rule = GsRule(name, const("a") if name in QUANTIFIER_RULES else None)
            additions = ref_additions(plain(principal), rule.witness and plain(rule.witness))
        else:
            principal, rule, additions = rng.choice(pool), GsRule("weaken"), [[]]
        children = []
        for extra in additions:
            seq = list(node.sequent)
            move = rng.randrange(6)
            if move <= 1 and rule.name != "weaken":  # derived
                seq += [f for f in pool + list(node.sequent) if plain(f) in extra][:len(extra)]
            elif move == 2:  # extend
                seq += rng.choices(pool, k=rng.randrange(1, 3))
            elif move == 3:  # reorder, maybe extended too
                seq += rng.choices(pool, k=rng.randrange(0, 2))
                rng.shuffle(seq)
            elif move == 4 and seq:  # weaken one occurrence
                del seq[rng.randrange(len(seq))]
            shared = [n for n in made if n.sequent == tuple(seq) and n is not node
                      and all(n is not m for m in postorder_of(node))
                      and node not in postorder_of(n)]
            if shared and rng.random() < 0.5:
                children.append(rng.choice(shared))
            else:
                children.append(GsProof(tuple(seq)))
                made.append(children[-1])
        node.rule, node.principal, node.children = rule, principal, tuple(children)
    for n in made:
        if n.rule is None and n.sequent:
            n.rule, n.principal = GsRule("axiom"), n.sequent[0]
    return root


def postorder_of(root: GsProof) -> list[GsProof]:
    out, stack, met = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in met:
            met.add(id(node))
            out.append(node)
            stack.extend(node.children)
    return out


def assert_same_reading(text: str) -> GsProof | None:
    """Read ``text`` with both readers: both refuse it, and then None is
    returned, or both read it, and then the new reader's proof."""
    try:
        nodes, root, derived = ref_proof_from_v3(json.loads(text))
    except Refused:
        with pytest.raises(ValueError):
            proof_from_json(text)
        return None
    new = proof_from_json(text)
    pairs, met = [(new, root)], set()
    while pairs:
        a, n = pairs.pop()
        if (id(a), n) in met:
            continue
        met.add((id(a), n))
        seq, name, p, w, children = nodes[n]
        mine = tuple(map(plain, a.sequent))
        assert Counter(mine) == Counter(seq)
        if n in derived:
            assert mine == seq
        assert (a.rule and a.rule.name, a.principal and plain(a.principal),
                a.rule and a.rule.witness and plain(a.rule.witness), len(a.children)) == (
            name, p, w, len(children))
        pairs += zip(a.children, children)
    return new


# ------------------------------------------------------------------- tests


@pytest.fixture(scope="module")
def proofs():
    return translated_proofs()


def test_translated_proofs_and_their_read_backs_write_and_read_alike(proofs):
    for name, proof in proofs:
        text = proof_to_json(proof)
        assert text == ref_proof_to_json(proof), name
        back = assert_same_reading(text)
        assert proof_to_json(back) == ref_proof_to_json(back) == text, name


def test_hand_built_proofs_that_reorder_and_weaken_write_and_read_alike():
    listed = Counter()
    for seed in range(400):
        proof = hand_built_proof(random.Random(seed))
        text = proof_to_json(proof)
        assert text == ref_proof_to_json(proof), seed
        back = assert_same_reading(text)
        assert proof_to_json(back) == text, seed
        nodes = json.loads(text)["nodes"]
        listed.update(node[0] is None for node in nodes[:-1])
    # Both a premise that is derived and one that is listed are common.
    assert listed[True] > 300 and listed[False] > 300, listed


def test_proofs_no_file_holds_are_refused_by_both_writers():
    p, q = parse("P"), parse("Q")
    for proof in (GsProof((p,), GsRule("or"), p), GsProof((p,), GsRule("weaken"), p),
                  GsProof((p,), GsRule("axiom", const("a")), p),
                  GsProof((p,), None, None, (GsProof((q,)),))):
        with pytest.raises(ValueError):
            proof_to_json(proof)
        with pytest.raises(ValueError):
            ref_proof_to_json(proof)


def mutate_sequents(record: dict, rng: random.Random) -> None:
    """Change one node entry's sequent or rule: list it with a formula
    added, dropped or replaced, leave it out, swap its principal or witness
    for another table entry, or turn an axiom into a weakening or the
    reverse."""
    nodes, table = record["nodes"], record["table"]
    node = rng.choice(nodes)
    seq, rule, _ = node
    move = rng.randrange(6)
    if move == 0:
        node[0] = sorted((seq or []) + [rng.randrange(len(table))])
    elif move == 1 and seq:
        del seq[rng.randrange(len(seq))]
    elif move == 2 and seq:
        seq[rng.randrange(len(seq))] = rng.randrange(-1, len(table) + 1)
    elif move == 3:
        node[0] = None
    elif move == 4 and rule:
        rule[rng.randrange(len(rule))] = rng.randrange(len(table))
    elif rule and type(rule[0]) is str:
        rule[0] = "weaken" if rule[0] == "axiom" else "axiom"


def test_mutated_sequent_records_read_alike(proofs):
    """Mutants of ``mutate_sequents`` and of ``test_gs3_v3.mutant``: both
    readers refuse each or read it alike, and many read."""
    from test_gs3_v3 import seeded_mutants

    rng = random.Random(7)
    texts = [proof_to_json(p) for name, p in proofs if not name.startswith("gen")]
    texts += [proof_to_json(p) for name, p in proofs[:40]]
    read = 0
    for _ in range(600):
        record = json.loads(rng.choice(texts))
        for _ in range(rng.randrange(1, 4)):
            mutate_sequents(record, rng)
        read += assert_same_reading(json.dumps(record)) is not None
    for text in seeded_mutants(300, 11):
        read += assert_same_reading(text) is not None
    assert read > 300, read


def reordered_weakening_premises(proof: GsProof) -> tuple[GsProof, bool]:
    """A copy of the proof tree ``proof`` whose weakenings' premises list
    their formulas rotated, by the fewest places that make the tuple other
    than the copied conclusion's less the principal's first occurrence,
    and whether every premise has such a rotation: then the writer compares
    each such premise with what the weakening derives as multisets."""
    every = True

    def copy(node: GsProof, sequent: tuple) -> GsProof:
        nonlocal every
        out = GsProof(sequent, node.rule, node.principal)
        children = []
        for child in node.children:
            seq = child.sequent
            if node.rule.name == "weaken":
                i = sequent.index(node.principal)
                dropped = sequent[:i] + sequent[i + 1:]
                seq = next((t for t in (seq[k:] + seq[:k] for k in range(len(seq)))
                            if t != dropped), seq)
                every = every and seq != dropped
            children.append(copy(child, seq))
        out.children = tuple(children)
        return out

    return copy(proof, proof.sequent), every


@settings(max_examples=300)
@given(st.integers(0, 10**6))
def test_a_weakening_is_written_as_its_one_changed_count(seed):
    """A weakening's premise, which is its conclusion with the principal's
    count lowered by one, is written as no sequent: the file's ["weaken",
    p] is that one changed count.  With the premises' tuples reordered,
    which the writer then compares as multisets, the bytes are the same."""
    from test_gs3 import random_built_proof

    proof = random_built_proof(random.Random(seed))
    text = proof_to_json(proof)
    reordered, _ = reordered_weakening_premises(proof)
    assert check(reordered).accepted
    assert proof_to_json(reordered) == text
    nodes = json.loads(text)["nodes"]
    for _, rule, children in nodes:
        if rule and rule[0] == "weaken":
            assert nodes[children[0]][0] is None


RECORDS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=20)


@given(RECORDS)
def test_dump_json_writes_what_json_dumps_writes(record):
    """The writers' encoder, which skips the circular-reference check."""
    assert dump_json(record) == json.dumps(record, sort_keys=True, separators=(",", ":"))

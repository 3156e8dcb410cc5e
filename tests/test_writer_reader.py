"""The ``.gs3`` writer and reader against reference copies of their
counting versions, kept here as ``ref_*``: the writer counted every
sequent whole and found each change by comparing counts, and the reader
copied its base's count for every sequent.  The text written must be the
same; the proofs read back must have equal node shapes and verdicts, and
sequents that are equal multisets, equal as tuples wherever the reference
extended its base's tuple all the way from a sequent without a base."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tabseq import gs3
from tabseq.formula import Not, Table, const, encode_table, parse
from tabseq.gs3 import GsProof, GsRule, check, proof_from_json, proof_to_json
from tabseq.problems import corpus, deep_tableau, growth_goal
from tabseq.tableau import ClosedTableau, prove
from tabseq.translate import translate
from tabseq.tree import MAX_OCCURRENCES, FormatError, dump_json, entry_index, postorder

# --------------------------------------------------------------- reference


def ref_proof_to_json(proof: GsProof) -> str:
    sequents, keys, numbers = gs3.subproofs(proof)
    counts = [Counter(seq) for seq in sequents]  # formula -> count, per sequent number
    items = set().union(*counts)
    for _, rule, principal, _ in keys:
        if principal is not None:
            items.add(principal)
        if rule is not None and rule.witness is not None:
            items.add(rule.witness)
    table, entry = encode_table(items)
    multisets = [frozenset(count) if len(count) == len(seq) else frozenset(count.items())
                 for count, seq in zip(counts, sequents)]
    tally = dict(zip(multisets, counts))

    node_entries: dict[tuple, int] = {}
    entries: list[int] = []
    for seq, rule, principal, children in keys:
        node = (multisets[seq],
                None if rule is None else rule.name,
                None if rule is None or principal is None else entry(principal),
                None if rule is None or rule.witness is None else entry(rule.witness),
                tuple([entries[c] for c in children]))
        entries.append(node_entries.setdefault(node, len(node_entries)))
    nodes = list(node_entries)
    root = entries[numbers[proof]]

    seq_entries: dict[frozenset, int] = {}
    seq_records: list[list] = []
    met: set[int] = set()
    walk: list[tuple[int, frozenset | None]] = [(root, None)]
    while walk:
        n, base = walk.pop()
        if n in met:
            continue
        met.add(n)
        multiset = nodes[n][0]
        if multiset not in seq_entries:
            seq_entries[multiset] = len(seq_records)
            now = tally[multiset]
            if base is None:
                seq_records.append([None, sorted([(entry(f), c) for f, c in now.items()])])
            else:
                before = tally[base]
                change = [(entry(f), c) for f, c in now.items() - before.items()]
                change += [(entry(f), 0) for f in before.keys() - now.keys()]
                seq_records.append([seq_entries[base], sorted(change)])
        walk.extend((child, multiset) for child in reversed(nodes[n][4]))
    record = {"version": 2, "table": table, "sequents": seq_records,
              "nodes": [(seq_entries[node[0]], *node[1:]) for node in nodes], "root": root}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def ref_proof_from_v2(record: dict) -> tuple[GsProof, set[int]]:
    """The reference reader's proof, and the ids of the sequent tuples it
    built by extending its base's tuple, where it built the base's that way
    too, back to a sequent without a base."""
    table = Table(record.get("table"))
    raw_sequents = record.get("sequents")
    if type(raw_sequents) is not list:
        raise FormatError("sequents must be a list")
    counts: list[dict[int, int]] = []
    sequents: list[tuple] = []
    extended: set[int] = set()
    chain: set[int] = set()  # the sequents extended back to one without a base
    formulas: dict = {}
    occurrences = 0
    for raw in raw_sequents:
        if type(raw) is not list or len(raw) != 2 or type(raw[1]) is not list:
            raise FormatError("a sequent must be [base, [[formula, count], ...]]")
        base, pairs = raw
        if base is None:
            count, before = {}, ()
        else:
            base = entry_index(base, len(counts), "base")
            count, before = dict(counts[base]), sequents[base]
        grown = True
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2 or type(pair[1]) is not int or pair[1] < 0:
                raise FormatError("sequent entries must be [formula, count] pairs")
            f, n = pair
            formulas[f] = table.formula(f, "sequent formula")
            if f in count or not n:
                grown = False
            if n:
                count[f] = n
            else:
                count.pop(f, None)
        occurrences += sum(count.values())
        if occurrences > MAX_OCCURRENCES:
            raise FormatError(f"sequents hold more than {MAX_OCCURRENCES} formulas")
        counts.append(count)
        if grown:
            sequents.append(before + tuple([formulas[f] for f, n in pairs for _ in range(n)]))
            if base is None or base in chain:
                chain.add(len(sequents) - 1)
                extended.add(id(sequents[-1]))
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
    return nodes[entry_index(record.get("root"), len(nodes), "root")], extended


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
    """A proof DAG whose premises extend, reorder or weaken their
    conclusions, under arbitrary rules: the writer numbers any proof, and
    the checker rejects most of these."""
    pool = [parse(t) for t in ("P", "~P", "Q", "R", "P | Q", "~(Q & R)", "forall x. S(x)")]
    root = GsProof(tuple(rng.choices(pool, k=rng.randrange(1, 4))))
    made = [root]
    for _ in range(rng.randrange(1, 12)):
        node = rng.choice([n for n in made if n.rule is None])
        children = []
        for _ in range(rng.randrange(1, 3)):
            seq = list(node.sequent)
            move = rng.randrange(5)
            if move <= 1:  # extend
                seq += rng.choices(pool, k=rng.randrange(1, 3))
            elif move == 2:  # reorder, maybe extended too
                seq += rng.choices(pool, k=rng.randrange(0, 2))
                rng.shuffle(seq)
            elif move == 3 and seq:  # weaken one occurrence
                del seq[rng.randrange(len(seq))]
            shared = [n for n in made if n.sequent == tuple(seq) and n is not node
                      and node not in postorder(n)]
            if shared and rng.random() < 0.5:
                children.append(rng.choice(shared))
            else:
                children.append(GsProof(tuple(seq)))
                made.append(children[-1])
        name = rng.choice(["or", "weaken", "and", "forall"])
        node.rule = GsRule(name, const("a") if name == "forall" else None)
        node.principal = rng.choice(node.sequent) if node.sequent else None
        node.children = tuple(children)
    for n in made:
        if n.rule is None and n.sequent:
            n.rule, n.principal = GsRule("axiom"), n.sequent[0]
    return root


def verdict(proof: GsProof) -> tuple:
    result = check(proof)
    return result.accepted, result.path, result.reason


def assert_same_reading(text: str) -> GsProof:
    """Read ``text`` with both readers; return the new reader's proof."""
    new = proof_from_json(text)
    ref, extended = ref_proof_from_v2(json.loads(text))
    pairs, met = [(new, ref)], set()
    while pairs:
        a, b = pairs.pop()
        if id(a) in met:
            continue
        met.add(id(a))
        assert Counter(a.sequent) == Counter(b.sequent)
        if id(b.sequent) in extended:
            assert a.sequent == b.sequent
        assert (a.rule, a.principal, len(a.children)) == (b.rule, b.principal, len(b.children))
        pairs += zip(a.children, b.children)
    assert verdict(new) == verdict(ref)
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
    for seed in range(400):
        proof = hand_built_proof(random.Random(seed))
        text = proof_to_json(proof)
        assert text == ref_proof_to_json(proof), seed
        back = assert_same_reading(text)
        assert proof_to_json(back) == text, seed


def mutate_sequents(record: dict, rng: random.Random) -> None:
    """Change one sequent record: its base, or one pair's count, or drop,
    repeat or add a pair."""
    sequents = record["sequents"]
    pos = rng.randrange(len(sequents))
    base, pairs = sequents[pos]
    move = rng.randrange(5)
    if move == 0:
        sequents[pos][0] = rng.choice([None, -1, pos, pos + 1, rng.randrange(pos + 1)])
    elif move == 1 and pairs:
        rng.choice(pairs)[1] = rng.choice([0, 1, 2, 3, -1])
    elif move == 2 and pairs:
        del pairs[rng.randrange(len(pairs))]
    elif move == 3 and pairs:
        pairs.append(list(rng.choice(pairs)))
    else:
        pairs.append([rng.randrange(len(record["table"])), rng.randrange(0, 3)])


def test_mutated_sequent_records_read_alike(proofs):
    rng = random.Random(7)
    texts = [proof_to_json(p) for name, p in proofs if not name.startswith("gen")]
    texts += [proof_to_json(p) for name, p in proofs[:40]]
    for _ in range(600):
        record = json.loads(rng.choice(texts))
        for _ in range(rng.randrange(1, 4)):
            mutate_sequents(record, rng)
        text = json.dumps(record)
        try:
            ref_proof_from_v2(json.loads(text))
        except FormatError as e:
            with pytest.raises(FormatError) as err:
                proof_from_json(text)
            assert str(err.value) == str(e)
            continue
        assert_same_reading(text)


def reordered_weakening_premises(proof: GsProof) -> tuple[GsProof, bool]:
    """A copy of the proof tree ``proof`` whose weakenings' premises list
    their formulas rotated, by the fewest places that make the tuple other
    than the copied conclusion's less the principal's first occurrence,
    and whether every premise has such a rotation: then the writer counts
    and diffs each premise whole."""
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


def counted_sequents(record: dict) -> list[dict[int, int]]:
    """Each sequent record's count, by table entry, its base's with its
    pairs applied."""
    counts: list[dict[int, int]] = []
    for base, pairs in record["sequents"]:
        count = {} if base is None else dict(counts[base])
        count.update(pairs)
        counts.append({f: n for f, n in count.items() if n})
    return counts


@settings(max_examples=300)
@given(st.integers(0, 10**6))
def test_a_weakening_is_written_as_its_one_changed_count(seed):
    """A weakening's premise, as ``build_step`` makes it, is written as one
    pair, the principal's count lowered by one, when its base is the
    weakening's conclusion; with the premises' tuples reordered, which
    turns that path off, the bytes are the same."""
    from test_gs3 import random_built_proof

    proof = random_built_proof(random.Random(seed))
    text = proof_to_json(proof)
    reordered, every = reordered_weakening_premises(proof)
    assert check(reordered).accepted
    assert proof_to_json(reordered) == text
    sequents, keys, _ = gs3.subproofs(reordered)
    keys = list(keys)
    numbers, _, changes, _ = gs3._multisets(list(sequents), keys)
    weakenings = [(numbers[keys[children[0]][0]], numbers[seq])
                  for seq, rule, _, children in keys if rule == GsRule("weaken")]
    assert not every or changes.keys().isdisjoint(weakenings)

    record = json.loads(text)
    nodes, counts = record["nodes"], counted_sequents(record)
    for seq, rule, principal, _, children in nodes:
        if rule == "weaken":
            below = nodes[children[0]][0]
            lowered = counts[seq][principal] - 1
            assert counts[below] == {f: n for f, n in {**counts[seq], principal: lowered}.items()
                                     if n}
            if record["sequents"][below][0] == seq:
                assert record["sequents"][below][1] == [[principal, lowered]]


RECORDS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=20)


@given(RECORDS)
def test_dump_json_writes_what_json_dumps_writes(record):
    """The writers' encoder, which skips the circular-reference check."""
    assert dump_json(record) == json.dumps(record, sort_keys=True, separators=(",", ":"))

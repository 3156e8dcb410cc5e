"""Version-3 `.gs3` files, which hold the end-sequent and each rule's
choices: each node's principal and witness, or the name of an axiom or a
weakening.  The reader derives every other sequent as the rule made it and
refuses what it cannot derive, the writer refuses a proof no file holds,
a version-2 file is refused with the upgrade hint, and mutants never
crash ``check``."""

import contextlib
import functools
import io
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tabseq.cli import main
from tabseq.formula import MAX_DEPTH, App, DepthError, Not, Table, parse
from tabseq.gs3 import (RULE_GROUPS, GsProof, GsRule, check, proof_from_json, proof_to_json,
                        rule_name)
from tabseq.problems import HAND_GOALS, growth_goal
from tabseq.tableau import prove
from tabseq.translate import translate
from tabseq.tree import MAX_OCCURRENCES

from test_gs3 import C, NOT_IMP, grown_drinker_proof

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def translated(text: str) -> GsProof:
    return translate(prove([Not(parse(text))]))


def drinker_record() -> dict:
    return json.loads(proof_to_json(translated(dict(HAND_GOALS)["drinker"])))


def check_exit(text: str, tmp_path: Path) -> tuple[int, str, str]:
    """``tabseq check`` on a ``.gs3`` text: its exit status, stdout and stderr."""
    path = tmp_path / "in.gs3"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        main(["check", str(path)])
    return exc.value.code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- layout


def test_the_drinker_file_lists_only_its_end_sequent():
    """Every premise of the drinker's proof is the one its rule derives, so
    only the root lists its sequent; the nodes name the axiom and the
    weakenings and give each other rule as its principal and witness."""
    record = drinker_record()
    assert sorted(record) == ["nodes", "root", "table", "version"]
    assert record["version"] == 3 and record["root"] == 8
    assert [node[0] for node in record["nodes"]] == [None] * 8 + [[12]]
    assert [node[1] for node in record["nodes"]] == [
        ["axiom", 3], [11], [12, 0], ["weaken", 9], [9, 0], ["weaken", 3], ["weaken", 11], [11],
        [12, 0]]
    assert [node[2] for node in record["nodes"]] == [[], [0], [1], [2], [3], [4], [5], [6], [7]]
    # The table holds no formula that only a derived sequent has, such as ~D(c1).
    assert ["~", 3] not in record["table"]


def test_a_premise_that_is_not_derived_is_listed_and_reads_back_as_written():
    """A premise whose multiset is not what its rule derives, here one
    formula short, is listed, so the corrupted inference reads back and is
    rejected where it was; one that is the derived multiset in another
    order is not listed."""
    proof = grown_drinker_proof()
    step = proof.children[0]  # not_implies below the root's not_exists step
    premise = step.children[0]
    step.children = (GsProof(premise.sequent[1:], premise.rule, premise.principal,
                             premise.children),)
    result = check(proof)
    # The root, that premise, and its premise, which its own premise derives
    # from the sequent that premise had.
    record = json.loads(proof_to_json(proof))
    assert [node[0] is None for node in record["nodes"]].count(False) == 3
    assert check(proof_from_json(proof_to_json(proof))) == result and not result.accepted
    assert result.path == (0,)

    reordered = grown_drinker_proof()
    step = reordered.children[0]
    premise = step.children[0]
    step.children = (GsProof(premise.sequent[::-1], premise.rule, premise.principal,
                             premise.children),)
    assert proof_to_json(reordered) == proof_to_json(grown_drinker_proof())


def test_derived_premises_are_the_conclusion_then_the_additions():
    """A derived premise is its conclusion's tuple followed by what the
    rule adds, in the rule's order; a weakening's is its conclusion's less
    the principal's first occurrence; a listed sequent keeps its order."""
    p, q = parse("P"), parse("Q")
    p_and_q = parse("P & Q")
    # The axiom leaf has no complement; the reader does not judge that.
    leaf = GsProof((p_and_q, p, q), GsRule("axiom"), p)
    weak = GsProof((p_and_q, q, p, q), GsRule("weaken"), q, (leaf,))
    root = GsProof((p_and_q, q), GsRule("and"), p_and_q, (weak,))
    text = proof_to_json(root)
    assert [node[0] for node in json.loads(text)["nodes"]] == [None, None, [1, 2]]
    back = proof_from_json(text)
    assert back.sequent == (q, p_and_q)  # the listed order, sorted by table entry
    (premise,) = back.children
    assert premise.sequent == (q, p_and_q, p, q)
    assert premise.children[0].sequent == (p_and_q, p, q)


# ----------------------------------------------------------- old versions


@pytest.mark.parametrize("name", ["drinker", "gen001", "growth-2"])
def test_a_version_2_file_is_refused_with_the_upgrade_hint(tmp_path, name):
    text = (FIXTURES / "v2" / f"{name}.gs3").read_text(encoding="utf-8")
    code, out, err = check_exit(text, tmp_path)
    assert code == 2 and out == "" and err.endswith(
        "malformed sequent proof: version-2 proof files are no longer read; "
        "upgrade it with scripts/upgrade_files.py\n")


# ---------------------------------------------------------- hostile files

# In the drinker's version-3 file: table 0 is c1, 3 D(c1), 4 D(x) with x
# free, 9 ~(forall y. D(y)), 11 ~(D(c1) => forall y. D(y)) and 12 the root
# formula; node 0 is the axiom on 3, 1 the not_implies step [11], 2 the
# not_exists step [12, 0], 3 the weakening of 9, 7 a not_implies step and
# 8 the root, the one node that lists its sequent.
RULE_FORMS = ('a rule must be [principal], [principal, witness], ["axiom", principal] '
              'or ["weaken", principal]')
HOSTILE = {
    "literal principal": ((1, 1, [3]), "the literal D(c1) is no principal"),
    "witness on a rule that takes none": ((1, 1, [11, 0]), "not_implies rule takes no witness"),
    "missing witness": ((2, 1, [12]), "not_exists rule takes a witness"),
    "witness on a weakening": ((3, 1, ["weaken", 9, 0]), RULE_FORMS),
    "unknown rule name": ((3, 1, ["contract", 9]), RULE_FORMS),
    "rule that is no list": ((3, 1, "weaken"), RULE_FORMS),
    "witness that is a formula": ((2, 1, [12, 3]), "witness must be a term"),
    "principal with a free variable": ((0, 1, ["axiom", 4]),
                                       "principal has the free bound variable x"),
    "too few children": ((1, 2, []), "node 1 has 0 child entries, not 1"),
    "an axiom with a child": ((1, 1, ["axiom", 3]), "node 1 has 1 child entries, not 0"),
    "forward child reference": ((1, 2, [1]), "child 1 does not refer to an earlier entry"),
    "unlisted sequent on no node's child": ((8, 2, [6]),
                                            "node 7 lists no sequent and is no node's child"),
    "root without a sequent": ((8, 0, None), "root 8 lists no sequent"),
    "sequent that is no list": ((8, 0, 12), "a node must be [sequent, rule, [children]]"),
    "node of four fields": ((8, [[12], [12, 0], [7], None]),
                            "a node must be [sequent, rule, [children]]"),
    "sequent formula that is a term": ((8, 0, [0]), "sequent formula must be a formula"),
    "weakening of what is not there": ((3, 1, ["weaken", 3]),
                                       "node 3 weakens a formula its sequent lacks"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_v3_file_exits_two(tmp_path, case):
    *keys, value = HOSTILE[case][0]
    record = drinker_record()
    target = record["nodes"]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    code, out, err = check_exit(json.dumps(record), tmp_path)
    assert code == 2 and out == "", err
    assert err.endswith(f"malformed sequent proof: {HOSTILE[case][1]}\n"), err


@pytest.mark.parametrize("version", [1, 4, "3", None])
def test_unknown_version_exits_two(tmp_path, version):
    record = {**drinker_record(), "version": version}
    code, _, err = check_exit(json.dumps(record), tmp_path)
    assert code == 2 and err.endswith(f"malformed sequent proof: unknown version {version!r}\n")


def test_derived_occurrences_are_bounded_before_they_are_built(tmp_path, monkeypatch):
    """A 61 kB chain of 1,000 not_exists steps below a root that lists
    12,500 formulas derives sequents of 12.5 million formula occurrences
    in all; it exits 2, and no derived sequent is built."""
    record = drinker_record()
    record["nodes"] = [[None, None, []]] + [[None, [12, 0], [k]] for k in range(999)]
    record["nodes"][-1][0] = [12] * 12_500
    record["root"] = 999
    text = json.dumps(record, separators=(",", ":"))
    assert len(text) < 61_000
    built = []
    monkeypatch.setattr("tabseq.gs3._premise", lambda *args: built.append(args))
    code, _, err = check_exit(text, tmp_path)
    assert code == 2 and err.endswith(f"sequents hold more than {MAX_OCCURRENCES} formulas\n")
    assert built == []


def test_a_derived_instance_deeper_than_max_depth_exits_two(tmp_path):
    """A witness term nested ``MAX_DEPTH`` deep is a valid table entry, but
    the instance the not_exists step derives with it nests deeper, and no
    table could hold that formula."""
    record = drinker_record()
    table = record["table"]
    table.append(["f", "f", 0])
    for _ in range(MAX_DEPTH - 2):
        table.append(["f", "f", len(table) - 1])
    record["nodes"][2][1] = [12, len(table) - 1]
    code, _, err = check_exit(json.dumps(record), tmp_path)
    assert code == 2 and err.endswith(
        f"malformed sequent proof: premise formula nested deeper than {MAX_DEPTH} levels\n")


# -------------------------------------------------------- writer refusals

P, NOT_P = parse("P"), parse("~P")


def refused(proof: GsProof, message: str) -> None:
    with pytest.raises(ValueError, match=f"^cannot write: {re.escape(message)}$"):
        proof_to_json(proof)


class TestWriterRefusals:
    """Each proof that no version-3 file holds, refused with its reason and
    the path of the node; ``check`` rejects each of them."""

    def test_a_rule_that_is_not_its_principal_s(self):
        proof = grown_drinker_proof()
        proof.children[0].rule = GsRule("and")
        refused(proof, f"and is not the rule of {NOT_IMP} at 0")
        assert not check(proof)

    def test_a_witness_on_a_rule_that_takes_none(self):
        proof = grown_drinker_proof()
        proof.children[0].rule = GsRule("not_implies", C)
        refused(proof, "not_implies rule takes no witness at 0")

    def test_a_quantifier_rule_without_its_witness(self):
        proof = grown_drinker_proof()
        proof.rule = GsRule("not_exists")
        refused(proof, "not_exists rule takes a witness at (root)")
        assert not check(proof)

    def test_an_axiom_with_a_witness(self):
        refused(GsProof((P, NOT_P), GsRule("axiom", C), P), "axiom rule takes no witness at (root)")

    def test_a_rule_without_principal(self):
        refused(GsProof((P, NOT_P), GsRule("axiom"), None),
                "axiom rule without principal at (root)")

    def test_a_literal_principal(self):
        refused(GsProof((P, NOT_P), GsRule("or"), P), "the literal P is no principal at (root)")

    def test_the_wrong_number_of_premises(self):
        proof = grown_drinker_proof()
        proof.children[0].children *= 2
        refused(proof, "not_implies rule with 2 premises at 0")
        assert not check(proof)

    def test_a_rule_less_node_with_children(self):
        proof = grown_drinker_proof()
        proof.children[0].rule = None
        refused(proof, "rule-less node with children at 0")

    def test_an_instance_nested_too_deeply(self):
        witness = C
        for _ in range(MAX_DEPTH - 1):
            witness = App("f", (witness,))
        proof = grown_drinker_proof()
        proof.rule = GsRule("not_exists", witness)
        with pytest.raises(DepthError):
            proof_to_json(proof)


# --------------------------------------------------------------- mutants


@functools.cache
def mutant_sources() -> tuple[str, ...]:
    """The files to mutate: the drinker's, drinker-under-or's, whose or
    step has two premises, and growth k=2's, whose subproofs are shared."""
    return tuple(proof_to_json(proof) for proof in (
        translated(dict(HAND_GOALS)["drinker"]), translated(dict(HAND_GOALS)["drinker-under-or"]),
        translate(prove([Not(growth_goal(2))]))))


def mutant(text: str, choose) -> str:
    """``text`` with one to three changes that keep it well formed JSON of
    the version-3 shape, so that most mutants reach ``check``: a principal
    swapped for another closed formula whose rule takes as many premises
    and as many witnesses, a weakening's or an axiom's for any closed
    formula, a witness for another term, a listed sequent's formula added,
    removed or replaced, a derived sequent listed as one formula, a listed
    one left out, two premises swapped, or a child dropped or pointed at
    another earlier node.  ``choose(options)``
    picks one of a non-empty sequence."""
    record = json.loads(text)
    table, nodes = record["table"], record["nodes"]
    closed = Table(table).closed_formulas
    formulas = sorted(closed)
    terms = [i for i, e in enumerate(table) if e[0] == "f"]

    def shape(entry: int):
        name = rule_name(closed[entry])
        return name and RULE_GROUPS[name] in ("delta", "gamma"), name and RULE_GROUPS[name]

    for _ in range(choose(range(1, 4))):
        n = choose(range(len(nodes)))
        seq, rule, children = nodes[n]
        kind = choose(["principal", "principal", "witness", "add", "remove", "formula", "list",
                       "unlist", "swap children", "other child", "drop child"])
        if kind == "principal" and rule:
            if type(rule[0]) is str:
                rule[1] = choose(formulas)
            else:
                rule[0] = choose([i for i in formulas if shape(i) == shape(rule[0])])
        elif kind == "witness" and rule and len(rule) == 2 and type(rule[0]) is int:
            rule[1] = choose(terms)
        elif kind == "add" and seq is not None:
            nodes[n][0] = sorted(seq + [choose(formulas)])
        elif kind == "remove" and seq:
            del seq[choose(range(len(seq)))]
        elif kind == "list" and seq is None:
            nodes[n][0] = [choose(formulas)]
        elif kind == "unlist" and n != record["root"]:
            nodes[n][0] = None
        elif kind == "formula" and seq:
            seq[choose(range(len(seq)))] = choose(formulas)
        elif kind == "swap children":
            children.reverse()
        elif kind == "other child" and children and n:
            children[choose(range(len(children)))] = choose(range(n))
        elif kind == "drop child" and children:
            del children[choose(range(len(children)))]
    return json.dumps(record)


@st.composite
def mutants(draw):
    return mutant(draw(st.sampled_from(mutant_sources())), lambda o: draw(st.sampled_from(o)))


def seeded_mutants(count: int, seed: int) -> list[str]:
    """``count`` mutants of ``mutant_sources``, drawn with ``random.Random(seed)``."""
    rng = random.Random(seed)
    choose = lambda options: rng.choice(list(options))  # noqa: E731
    return [mutant(choose(mutant_sources()), choose) for _ in range(count)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
def test_mutated_v3_files_exit_zero_one_or_two(tmp_path_factory, text):
    """``check`` reads and checks a mutant or refuses it: exit 0, 1 or 2,
    never a traceback."""
    code, _, err = check_exit(text, tmp_path_factory.mktemp("mutant"))
    assert code in (0, 1, 2) and "Traceback" not in err, (text, err)


def test_most_seeded_mutants_reach_the_checker():
    """At least half of the well-formed mutants read, and the checker
    rejects some and accepts some of those."""
    verdicts = []
    for text in seeded_mutants(400, 3):
        try:
            verdicts.append(check(proof_from_json(text)).accepted)
        except ValueError:
            continue
    assert len(verdicts) >= 200 and 0 < sum(verdicts) < len(verdicts)

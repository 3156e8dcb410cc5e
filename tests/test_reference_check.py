"""``gs3.check`` against the plain checker of ``reference_check.py``: the
same verdict, first-rejection path and reason on translated proofs, on
the same proofs read back from their ``.gs3`` text, and on seeded mutants
of both."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from tabseq.formula import App, Meta, Not, Var, const, parse
from tabseq.gs3 import (
    GsProof,
    GsRule,
    check,
    iter_nodes,
    proof_from_json,
    proof_to_json,
    replace_at,
)
from tabseq.problems import corpus, growth_goal
from tabseq.tableau import prove
from tabseq.translate import translate
from tabseq.tree import FormatError, postorder

from reference_check import reference_check, schema
from test_files_v2 import mutate
from test_gs3 import _tamper, grown_drinker_proof, naive_drinker_pseudo_proof

# The reference walks the tree a proof unfolds to, and ``_tamper`` copies
# it, so a proof is compared only if that tree has at most this many nodes.
MAX_UNFOLDED = 2_000


def unfolded_size(proof) -> int:
    """The nodes of the tree ``proof`` unfolds to, in one pass over its
    node objects."""
    below: dict[int, int] = {}
    for node in postorder(proof):
        below[id(node)] = 1 + sum(below[id(c)] for c in node.children)
    return below[id(proof)]


def verdicts(proof) -> tuple:
    result = check(proof)
    return (result.accepted, result.path, result.reason), reference_check(proof)


@pytest.fixture(scope="module")
def proofs() -> list[tuple[str, object]]:
    """Corpus goals and growth k=1..3, each as translated and as read back."""
    goals = corpus() + [(f"growth-{k}", growth_goal(k)) for k in (1, 2, 3)]
    out = []
    for name, goal in goals:
        proof = translate(prove([Not(goal)]))
        out.append((name, proof))
        out.append((f"{name} read back", proof_from_json(proof_to_json(proof))))
    assert max(unfolded_size(p) for _, p in out) <= MAX_UNFOLDED
    return out


def test_the_reference_rejects_what_the_checker_rejects():
    assert reference_check(grown_drinker_proof()) == (True, (), "")
    assert reference_check(naive_drinker_pseudo_proof()) == (False, (0, 0), "freshness-violation")


def test_translated_and_read_back_proofs_agree(proofs):
    for name, proof in proofs:
        ours, reference = verdicts(proof)
        assert ours == reference == (True, (), ""), name


def test_tampered_proofs_agree(proofs):
    """A stray formula added to one node's sequent, at seeded nodes."""
    rng = random.Random(10)
    reasons: Counter = Counter()
    for name, proof in proofs:
        paths = [path for path, _ in iter_nodes(proof)]
        for target in rng.sample(paths, min(4, len(paths))):
            ours, reference = verdicts(_tamper(proof, (), target))
            assert ours == reference, (name, target)
            reasons[ours[2]] += 1
    assert reasons["schema-mismatch"] > 100, reasons


def test_swapped_witnesses_agree(proofs):
    """The witness of a quantifier step replaced by ``c1``, the first
    constant the translator introduces, at seeded steps."""
    rng = random.Random(30)
    reasons: Counter = Counter()
    for name, proof in proofs:
        steps = [(path, node) for path, node in iter_nodes(proof)
                 if node.rule is not None and node.rule.witness is not None]
        for path, node in rng.sample(steps, min(4, len(steps))):
            bad = GsProof(node.sequent, GsRule(node.rule.name, const("c1")), node.principal,
                          node.children)
            ours, reference = verdicts(replace_at(proof, path, bad))
            assert ours == reference, (name, path)
            reasons[ours[2]] += 1
    assert reasons["freshness-violation"] > 5 and reasons["schema-mismatch"] > 10, reasons


def test_mutated_proof_files_that_read_agree(proofs):
    """Records changed by the file mutation test's ``mutate`` that still
    read; one that unfolds to too large a tree is skipped."""
    rng = random.Random(20)
    texts = [proof_to_json(proof) for name, proof in proofs if not name.endswith("read back")]
    compared, reasons = 0, Counter()
    for _ in range(3_000):
        record = json.loads(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            mutate(record, rng)
        try:
            proof = proof_from_json(json.dumps(record))
        except FormatError:
            continue
        if unfolded_size(proof) > MAX_UNFOLDED:
            continue
        ours, reference = verdicts(proof)
        assert ours == reference, record
        compared += 1
        reasons[ours[2]] += 1
    assert compared > 200 and len(reasons) >= 3, (compared, reasons)


P, NOT_P = parse("P(a)"), parse("~P(a)")


def quantifier_step(principal, name: str, witness, *side) -> GsProof:
    """The one-step proof of ``principal``, next to the ``side`` formulas,
    by the quantifier rule ``name`` with ``witness``, its premise the
    conclusion plus what the rule adds."""
    _, (added,) = schema(name, principal, witness)
    return GsProof((principal, *side), GsRule(name, witness), principal,
                   (GsProof((principal, *side, *added)),))


# Hand-built faults at the root, each with the detail ``check`` gives: schema
# mismatches, then witnesses that are not fresh, each found only below the
# top of a side formula.
GAPS = [
    ("axiom given a premise", GsProof((P, NOT_P), GsRule("axiom"), P, (GsProof((P, NOT_P)),)),
     "axiom with premises"),
    ("rule-less node with children", GsProof((P,), None, None, (GsProof((P,)),)),
     "rule-less node has children"),
    ("unknown rule cut", GsProof((P, NOT_P), GsRule("cut"), P, (GsProof((P, NOT_P)),)),
     "unknown rule 'cut'"),
    ("forall, bound variable", quantifier_step(parse("forall x. P(x)"), "forall", Var("x")),
     "witness must be a ground term"),
    ("forall, metavariable", quantifier_step(parse("forall x. P(x)"), "forall", Meta("X1")),
     "witness must be a ground term"),
    ("not_forall, bound variable",
     quantifier_step(parse("~(forall x. P(x))"), "not_forall", Var("x")),
     "witness must be a ground term"),
    ("not_forall, metavariable",
     quantifier_step(parse("~(forall x. P(x))"), "not_forall", Meta("X1")),
     "witness must be a ground term"),
    ("not_forall, fresh g(a)",
     quantifier_step(parse("~(forall x. P(x))"), "not_forall", App("g", (const("a"),))),
     "existential witness must be a constant"),
]
STALE_WITNESSES = [
    ("not_forall, c nested in a term",
     quantifier_step(parse("~(forall x. P(x))"), "not_forall", const("c"), parse("P(f(g(c)))")),
     "witness c occurs in the conclusion sequent"),
    ("exists, c in a sibling under a quantifier",
     quantifier_step(parse("exists x. P(x)"), "exists", const("c"),
                     parse("forall y. (Q(y) | ~R(h(y, c)))")),
     "witness c occurs in the conclusion sequent"),
    ("not_forall, c under nested quantifiers",
     quantifier_step(parse("~(forall x. P(x))"), "not_forall", const("c"), P,
                     parse("exists y. forall z. R(y, f(z, g(c)))")),
     "witness c occurs in the conclusion sequent"),
]


@pytest.mark.parametrize(
    "proof,reason,detail",
    [(proof, "schema-mismatch", detail) for _, proof, detail in GAPS]
    + [(proof, "freshness-violation", detail) for _, proof, detail in STALE_WITNESSES],
    ids=[gap[0] for gap in GAPS + STALE_WITNESSES])
def test_hand_built_faults_agree(proof, reason, detail):
    """Faults that no translation or file mutation makes: both checkers
    reject them at the root, and ``check`` says why."""
    result = check(proof)
    assert (result.accepted, result.path, result.reason) == reference_check(proof) == (
        False, (), reason)
    assert result.detail == detail

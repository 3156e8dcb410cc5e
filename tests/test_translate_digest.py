"""Pin what the translator makes: for a fixed set of goals, the ``.gs3``
text of each translated proof and the number of inferences of the tree it
unfolds to, whatever objects the translator builds that tree from."""

import hashlib

from tabseq import gs3
from tabseq.formula import Not
from tabseq.problems import corpus, generated_goals, growth_goal
from tabseq.tableau import ClosedTableau, prove
from tabseq.translate import translate

# sha256 over one line per goal, in input order.
DIGEST = "37f9fe3eee8e2fa66791fc006c39fafa7e2ac7f8f23d919974032e190a368500"


def inputs():
    """(name, goal, audit): the growth family k=1..4, the last one without
    audits, a seeded corpus and generated goals."""
    out = [(f"growth-{k}", growth_goal(k), k < 4) for k in range(1, 5)]
    out += [(name, goal, True) for name, goal in corpus(200, 7)]
    out += [(name, goal, True) for name, goal in generated_goals(300, 5)]
    return out


def proof_lines():
    for name, goal, audit in inputs():
        ct = prove([Not(goal)])
        assert isinstance(ct, ClosedTableau), name
        proof = translate(ct, audit=audit)
        text = gs3.proof_to_json(proof)
        yield f"{name} {gs3.inference_count(proof)} {hashlib.sha256(text.encode()).hexdigest()}"


def test_translated_proofs_are_pinned():
    digest = hashlib.sha256("\n".join(proof_lines()).encode()).hexdigest()
    assert digest == DIGEST

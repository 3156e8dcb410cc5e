"""Pin what the translator makes: for a fixed set of goals, the number of
inferences of the tree each translated proof unfolds to and
``test_output_digest.proof_digest`` of that tree, whatever objects the
translator builds it from and whatever file format holds it."""

import hashlib

from tabseq import gs3
from tabseq.formula import Not
from tabseq.problems import corpus, generated_goals, growth_goal
from tabseq.tableau import ClosedTableau, prove
from tabseq.translate import translate

from test_output_digest import proof_digest

# sha256 over one line per goal, in input order.
DIGEST = "c40415fbd06baca162fedab42cfdb6e54080c539e004ec9694b001041c5043e0"


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
        yield f"{name} {gs3.inference_count(proof)} {proof_digest(proof)}"


def test_translated_proofs_are_pinned():
    digest = hashlib.sha256("\n".join(proof_lines()).encode()).hexdigest()
    assert digest == DIGEST

"""Pin the bytes both proof files hold for a large goal set, one digest per
file kind, and the proof the ``.gs3`` file holds, in a digest of its own.
Per goal, the ``.tab`` digest takes the ``.tab`` text; the ``.gs3`` digest
takes the ``.gs3`` text of the unaudited translation, the ``.gs3`` text of
the proof read back from it, and the checker's verdict on that read-back
proof; the proof digest takes ``proof_digest`` of the read-back proof.  A
change that means to keep a file format must keep its digest; a change of
one format leaves the other's digest as it is, and a change of the
``.gs3`` format that keeps the proofs keeps the proof digest."""

import hashlib

from tabseq import gs3
from tabseq.formula import Not, parse, print_formula, print_term
from tabseq.problems import corpus, growth_goal
from tabseq.tableau import ClosedTableau, prove, tableau_to_json
from tabseq.translate import translate
from tabseq.tree import postorder

# sha256 over one line per goal, in input order, per file kind.
DIGEST_TAB = "796fdc2efa09b75a41a0422505126c7a646ab364cb4f5d5892dc8738b6563cb1"
DIGEST_GS3 = "bbba6337059e88a9cf79de34381890f4e64a2ebc0eae584ecb36113a9f37962a"
DIGEST_PROOF = "f2da40a756030ab5a83067ab2d11d4e4ae03ecdb3264615f25cbfb394cc34f88"


def inputs():
    """(name, goal): the benchmark's corpus at seed 4, the growth family
    k=1..5 and the wide family at six widths."""
    out = list(corpus(2000, 4))
    out += [(f"growth-{k}", growth_goal(k)) for k in range(1, 6)]
    for n in (8, 12, 16, 20, 40, 60):
        conj = " & ".join(f"P{i}" for i in range(n))
        out.append((f"wide-{n}", parse(f"({conj}) => ({conj})")))
    return out


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def proof_digest(root: gs3.GsProof) -> str:
    """The sha256 of the tree ``root`` unfolds to, in preorder: per node,
    its sequent as its printed formulas sorted, its rule name, its printed
    principal and witness, then its children's digests.  Each node object
    is digested once, so a shared proof costs its objects, not its tree."""
    digests: dict[gs3.GsProof, str] = {}
    for node in postorder(root):
        rule = node.rule
        line = "\n".join([
            " , ".join(sorted(map(print_formula, node.sequent))),
            "-" if rule is None else rule.name,
            "-" if node.principal is None else print_formula(node.principal),
            "-" if rule is None or rule.witness is None else print_term(rule.witness),
            *[digests[child] for child in node.children]])
        digests[node] = sha(line)
    return digests[root]


def output_lines():
    """(``.tab`` line, ``.gs3`` line, proof line) per goal."""
    for name, goal in inputs():
        ct = prove([Not(goal)])
        assert isinstance(ct, ClosedTableau), name
        text = gs3.proof_to_json(translate(ct, audit=False))
        back = gs3.proof_from_json(text)
        yield (f"{name} {sha(tableau_to_json(ct))}",
               f"{name} {sha(text)} {sha(gs3.proof_to_json(back))} {gs3.check(back).describe()}",
               f"{name} {proof_digest(back)}")


def test_output_files_are_pinned():
    tab_lines, gs3_lines, proof_lines = zip(*output_lines())
    assert len(gs3_lines) == 2033
    assert all(line.endswith(" Accepted") for line in gs3_lines)
    assert sha("\n".join(proof_lines)) == DIGEST_PROOF
    assert sha("\n".join(gs3_lines)) == DIGEST_GS3
    assert sha("\n".join(tab_lines)) == DIGEST_TAB

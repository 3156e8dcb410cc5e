"""Pin the bytes both proof files hold for a large goal set: per goal, the
``.tab`` text, the ``.gs3`` text of the unaudited translation, the ``.gs3``
text of the proof read back from it, and the checker's verdict on that
read-back proof.  A change that means to keep both file formats must keep
this digest."""

import hashlib

from tabseq import gs3
from tabseq.formula import Not, parse
from tabseq.problems import corpus, growth_goal
from tabseq.tableau import ClosedTableau, prove, tableau_to_json
from tabseq.translate import translate

# sha256 over one line per goal, in input order.
DIGEST = "340a0be1f0e186cdb1a779b5d94c1da1fbb72cc553b417c52cb688e2469c3b14"


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


def output_lines():
    for name, goal in inputs():
        ct = prove([Not(goal)])
        assert isinstance(ct, ClosedTableau), name
        text = gs3.proof_to_json(translate(ct, audit=False))
        back = gs3.proof_from_json(text)
        yield (f"{name} {sha(tableau_to_json(ct))} {sha(text)} "
               f"{sha(gs3.proof_to_json(back))} {gs3.check(back).describe()}")


def test_output_files_are_pinned():
    lines = list(output_lines())
    assert len(lines) == 2033
    assert all(line.endswith(" Accepted") for line in lines)
    assert sha("\n".join(lines)) == DIGEST

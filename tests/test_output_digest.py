"""Pin the bytes both proof files hold for a large goal set, one digest per
file kind.  Per goal, the ``.tab`` digest takes the ``.tab`` text; the
``.gs3`` digest takes the ``.gs3`` text of the unaudited translation, the
``.gs3`` text of the proof read back from it, and the checker's verdict on
that read-back proof.  A change that means to keep a file format must keep
its digest; a change of one format leaves the other's digest as it is."""

import hashlib

from tabseq import gs3
from tabseq.formula import Not, parse
from tabseq.problems import corpus, growth_goal
from tabseq.tableau import ClosedTableau, prove, tableau_to_json
from tabseq.translate import translate

# sha256 over one line per goal, in input order, per file kind.
DIGEST_TAB = "796fdc2efa09b75a41a0422505126c7a646ab364cb4f5d5892dc8738b6563cb1"
DIGEST_GS3 = "78e3f3f40af11504fd26f838fe16aee01fe063b436e53470322fdff52310beb5"


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
    """(``.tab`` line, ``.gs3`` line) per goal."""
    for name, goal in inputs():
        ct = prove([Not(goal)])
        assert isinstance(ct, ClosedTableau), name
        text = gs3.proof_to_json(translate(ct, audit=False))
        back = gs3.proof_from_json(text)
        yield (f"{name} {sha(tableau_to_json(ct))}",
               f"{name} {sha(text)} {sha(gs3.proof_to_json(back))} {gs3.check(back).describe()}")


def test_output_files_are_pinned():
    tab_lines, gs3_lines = zip(*output_lines())
    assert len(gs3_lines) == 2033
    assert all(line.endswith(" Accepted") for line in gs3_lines)
    assert sha("\n".join(gs3_lines)) == DIGEST_GS3
    assert sha("\n".join(tab_lines)) == DIGEST_TAB

"""Pin the text ``tabseq prove --pretty`` prints for each tableau, which
``render_tableau`` makes: one digest over the output digest's goals, each
rendered as proved and as read back from its ``.tab`` text.  A change that
means to keep that text must keep the digest."""

from tabseq.formula import Not
from tabseq.tableau import ClosedTableau, prove, render_tableau, tableau_from_json, tableau_to_json

from test_output_digest import inputs, sha

# sha256 over one line per goal, in input order.
DIGEST_RENDER = "7833d335ba333358b27cc870313296f7343435576ff51a3243094e94f10e8cd7"


def test_rendered_tableaux_are_pinned():
    lines = []
    for name, goal in inputs():
        ct = prove([Not(goal)])
        assert isinstance(ct, ClosedTableau), name
        back = tableau_from_json(tableau_to_json(ct))
        lines.append(f"{name} {sha(render_tableau(ct))} {sha(render_tableau(back))}")
    assert len(lines) == 2033
    assert sha("\n".join(lines)) == DIGEST_RENDER

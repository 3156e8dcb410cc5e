"""Pin what the tableau search does, not only the files it writes: for a
fixed set of goals and limits, the verdict, the Exhausted reason, the step
count and the bytes of the ``.tab`` file of every ``prove`` call."""

import hashlib
import random

from tabseq.formula import Not, parse
from tabseq.problems import corpus, generated_goals
from tabseq.tableau import ClosedTableau, Exhausted, prove, rule_count, tableau_to_json

# (gamma_limit, depth_limit): the defaults, and three that exhaust on some
# goals, by the gamma limit, by the depth limit or by both.
LIMITS = ((2, 200), (1, 200), (2, 6), (3, 12))

# sha256 over one line per prove call, in input order.
DIGEST = "06ea032c9b5d884bc0338c9869ecdf49fbba9f4f9ab18ab8b50e638aa7d92e03"


def inputs():
    """Named formula lists to refute: a seeded corpus sample, generated
    goals, the wide family, and some goals left un-negated, which mostly
    exhaust."""
    sample = random.Random(9).sample(corpus(), 40)
    out = [(name, [Not(goal)]) for name, goal in sample]
    out += [(name, [Not(goal)]) for name, goal in generated_goals(60, 5)]
    for n in (8, 16, 40):
        conj = " & ".join(f"P{i}" for i in range(n))
        out.append((f"wide-{n}", [Not(parse(f"({conj}) => ({conj})"))]))
    out += [(name + "-unnegated", [goal]) for name, goal in sample[:20]]
    return out


def outcome_lines():
    for name, formulas in inputs():
        for gamma_limit, depth_limit in LIMITS:
            result = prove(formulas, gamma_limit, depth_limit)
            if isinstance(result, Exhausted):
                yield f"{name} {gamma_limit} {depth_limit} exhausted {result.steps} {result.reason}"
            else:
                assert isinstance(result, ClosedTableau)
                tab = hashlib.sha256(tableau_to_json(result).encode()).hexdigest()
                yield f"{name} {gamma_limit} {depth_limit} closed {rule_count(result.root)} {tab}"


def test_search_outcomes_are_pinned():
    lines = list(outcome_lines())
    verdicts = [line.split()[3] for line in lines]
    assert "exhausted" in verdicts and "closed" in verdicts
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST

"""Output correctness gate, applied to every goal the benchmark runs.

A goal passes only when the checker accepts its sequent proof, the proof's
root sequent is exactly the negated goal, the proof read back from its
file re-serializes to the bytes that were written, and its sizes repeat
exactly on every pass.  On the growth family the inference-to-rule ratio
must also rise strictly with k.  The checker alone would accept a valid
proof of some other sequent, so the root-sequent test is part of the gate.
"""

from __future__ import annotations

from tabseq import gs3
from tabseq.formula import Formula, Not


def proof_failure(goal: Formula, accepted: bool, verdict: str, read_back: gs3.GsProof | None,
                  written: str) -> str | None:
    """Why the proof of ``goal`` fails the gate, or None when it passes.

    ``accepted`` and ``verdict`` are the checker's result on the proof,
    ``read_back`` is the proof parsed from the file holding ``written``.
    """
    if not accepted:
        return f"checker did not accept the proof: {verdict}"
    if read_back is None:
        return "no proof was read back"
    if read_back.sequent != (Not(goal),):
        return "root sequent is not the negated goal"
    if gs3.proof_to_json(read_back) != written:
        return "proof read back differs from the proof written"
    return None


class Repeats:
    """Remembers each goal's sizes from its first pass and flags a change."""

    def __init__(self) -> None:
        self.first: dict[str, tuple] = {}

    def failure(self, goal_id: str, sizes: tuple) -> str | None:
        expected = self.first.setdefault(goal_id, sizes)
        if sizes != expected:
            return f"sizes {sizes} differ from the first pass {expected}"
        return None


def tree_size(root) -> int:
    """Number of nodes in a tableau or sequent-proof tree."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def tree_depth(root) -> int:
    """Edges on the longest root-to-leaf path of a tableau or proof tree."""
    deepest, stack = 0, [(root, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node.children)
    return deepest


def ratio_failure(ratios: list[float]) -> str | None:
    """None when the inference-to-rule ratios rise strictly, input by input."""
    for before, after in zip(ratios, ratios[1:]):
        if not after > before:
            return f"inference/rule ratio does not rise: {before:.3f} then {after:.3f}"
    return None

"""A deliberately plain sequent-proof checker, the oracle that
``gs3.check`` must agree with.

It walks the tree a proof unfolds to, every node as often as a path
reaches it, and counts every sequent with ``Counter``.  It tests a
witness's freshness by a full walk of each formula of the conclusion and
keeps no cache or memo.  It writes the eleven decomposition schemas out
again and imports nothing from the package but the formula constructors
and ``subst_var``, so that a fault in the package's rule table cannot hide
in both checkers.

``reference_check`` returns ``(accepted, path, reason)``: the first
rejection in preorder, with the reasons ``gs3.check`` gives.
"""

from __future__ import annotations

from collections import Counter

from tabseq.formula import And, App, Atom, Exists, Forall, Implies, Meta, Not, Or, Var, subst_var

SCHEMA_MISMATCH = "schema-mismatch"
FRESHNESS = "freshness-violation"
BAD_AXIOM = "bad-axiom"
OPEN_LEAF = "open-leaf"


def parts_below(x):
    """``x`` and every formula and term below it."""
    stack = [x]
    while stack:
        y = stack.pop()
        yield y
        if isinstance(y, (Atom, App)):
            stack.extend(y.args)
        elif isinstance(y, (Not, Forall, Exists)):
            stack.append(y.body)
        elif isinstance(y, (And, Or, Implies)):
            stack.extend((y.left, y.right))


def schema(name, principal, witness):
    """The group of the rule ``name`` and what each of its premises adds
    when it decomposes ``principal`` with ``witness``; None if the rule
    does not apply."""
    p = principal
    body = p.body if isinstance(p, Not) else None
    if name == "not_not" and isinstance(body, Not):
        return "alpha", [[body.body]]
    if name == "not_implies" and isinstance(body, Implies):
        return "alpha", [[body.left, Not(body.right)]]
    if name == "and" and isinstance(p, And):
        return "alpha", [[p.left, p.right]]
    if name == "not_or" and isinstance(body, Or):
        return "alpha", [[Not(body.left), Not(body.right)]]
    if name == "implies" and isinstance(p, Implies):
        return "beta", [[Not(p.left)], [p.right]]
    if name == "not_and" and isinstance(body, And):
        return "beta", [[Not(body.left)], [Not(body.right)]]
    if name == "or" and isinstance(p, Or):
        return "beta", [[p.left], [p.right]]
    if witness is None:
        return None
    if name == "exists" and isinstance(p, Exists):
        return "delta", [[subst_var(p.body, p.var, witness)]]
    if name == "not_forall" and isinstance(body, Forall):
        return "delta", [[Not(subst_var(body.body, body.var, witness))]]
    if name == "forall" and isinstance(p, Forall):
        return "gamma", [[subst_var(p.body, p.var, witness)]]
    if name == "not_exists" and isinstance(body, Exists):
        return "gamma", [[Not(subst_var(body.body, body.var, witness))]]
    return None


def reject_reason(node) -> str | None:
    """Why the inference at ``node`` is wrong, or None if it is right."""
    conclusion = Counter(node.sequent)
    if any(isinstance(y, Meta) for f in node.sequent for y in parts_below(f)):
        return SCHEMA_MISMATCH
    if node.rule is None:
        return SCHEMA_MISMATCH if node.children else OPEN_LEAF
    name, witness, principal = node.rule.name, node.rule.witness, node.principal
    if principal is None or conclusion[principal] == 0:
        return SCHEMA_MISMATCH
    if name == "axiom":
        if node.children:
            return SCHEMA_MISMATCH
        return None if conclusion[Not(principal)] > 0 else BAD_AXIOM
    if name == "weaken":
        if len(node.children) != 1:
            return SCHEMA_MISMATCH
        rest = conclusion - Counter([principal])
        return None if Counter(node.children[0].sequent) == rest else SCHEMA_MISMATCH
    found = schema(name, principal, witness)
    if found is None:
        return SCHEMA_MISMATCH
    group, added = found
    if len(node.children) != len(added):
        return SCHEMA_MISMATCH
    if group in ("delta", "gamma"):
        if any(isinstance(y, (Var, Meta)) for y in parts_below(witness)):
            return SCHEMA_MISMATCH
        if group == "delta":
            if not isinstance(witness, App) or witness.args:
                return SCHEMA_MISMATCH
            if any(isinstance(y, App) and y.symbol == witness.symbol
                   for f in node.sequent for y in parts_below(f)):
                return FRESHNESS
    for child, extra in zip(node.children, added):
        if Counter(child.sequent) != conclusion + Counter(extra):
            return SCHEMA_MISMATCH
    return None


def reference_check(proof) -> tuple[bool, tuple[int, ...], str]:
    """Check every node of the tree ``proof`` unfolds to, in preorder."""
    stack = [((), proof)]
    while stack:
        path, node = stack.pop()
        reason = reject_reason(node)
        if reason is not None:
            return False, path, reason
        for bit in reversed(range(len(node.children))):
            stack.append((path + (bit,), node.children[bit]))
    return True, (), ""

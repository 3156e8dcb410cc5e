"""Compile a closed tableau with its ground unifier into a sequent proof.

The sequent proof is grown from the root by replaying tableau rules one at
a time.  A link lists, for each tableau node on the fringe of the rules
replayed so far, the open sequent leaves that mirror its branch, with the
invariant that the sigma-instances of the branch's formulas are contained
in each such leaf's sequent.  Alpha, beta, gamma and
closure rules replay directly on all linked leaves.  An existential rule
cannot be replayed in place (its Skolem witness is generally stale there),
so it is grafted instead: clone the current proof, weaken the affected
leaves down to the root sequent plus the principal, apply the existential
rule there while it is still fresh, then regrow the saved proof on top of
the graft, carrying the new Skolem formula along as a side formula.  After
the last rule the Skolem terms are globally fresh and are replaced by
fresh constants, which yields a strictly rule-conforming proof.

Each inference is made by ``build_step``, which tests it against its rule
schema as it is made, reading an existential step's freshness for Skolem
witnesses; only ``gs3.check`` judges the finished proof.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import gs3
from .formula import (
    App,
    Formula,
    Not,
    Term,
    apply_subst,
    is_ground_term,
    is_subterm,
    outermost_skolem_terms,
    print_formula,
    print_term,
    rebuild,
    symbols_of,
)
from .gs3 import BAD_AXIOM, FRESHNESS, RULE_GROUPS, SCHEMA_MISMATCH, GsProof, GsRule, rule_name
from .tableau import CLOSURE, ClosedTableau, TableauNode, audit_closed_tableau
from .tree import path_of, preorder


class TranslateError(AssertionError):
    """An internal invariant of the construction failed; unreachable from a
    valid closed tableau."""


class StepError(ValueError):
    """A construction step violated its rule schema."""

    def __init__(self, reason: str, message: str):
        super().__init__(f"{reason}: {message}")
        self.reason = reason


@dataclass
class TranslateStats:
    """What a translation did: rules replayed, grafts, the template nodes of
    each graft case (a node several leaves share counts once), audits run,
    and per graft the rank of its Skolem term and the size of its template."""

    steps: int = 0
    grafts: int = 0
    graft_case_iii: int = 0
    graft_case_iv: int = 0
    graft_case_v: int = 0
    link_audits: int = 0
    bilink_audits: int = 0
    measures: list[tuple[int, int]] = field(default_factory=list)


# ------------------------------------------------------------- build steps


def build_step(
    node: GsProof,
    rule: GsRule,
    principal: Formula,
    *,
    additions: tuple[tuple[Formula, ...], ...] | None = None,
    outermost_skolems: Callable[[Formula], set[App]] | None = None,
) -> None:
    """Extend an open leaf by one inference, validating the schema eagerly.

    The leaf is extended in place: it gets its rule, principal and fresh
    premise leaves.  A refused step raises StepError and changes nothing.

    A builder that has computed ``gs3.premise_additions(rule, principal)``
    passes the result as ``additions``; one that remembers
    ``outermost_skolem_terms`` of each formula passes that lookup as
    ``outermost_skolems``.  Both are trusted to be exactly what they stand
    for.

    During tableau translation the existential witnesses are still Skolem
    terms; those are accepted here with the corresponding relaxed freshness
    reading (the witness term must not occur outermost in the conclusion),
    which coincides with the checker's constant freshness after the final
    Skolem-to-constant replacement.
    """
    if not node.is_open:
        raise StepError(SCHEMA_MISMATCH, "node is not an open leaf")
    if principal not in node.sequent:
        raise StepError(SCHEMA_MISMATCH,
                        f"principal {print_formula(principal)} not in sequent")

    if rule.name == "axiom":
        if Not(principal) not in node.sequent:
            raise StepError(BAD_AXIOM, f"no complement for {print_formula(principal)}")
        children: tuple[GsProof, ...] = ()
    elif rule.name == "weaken":
        remaining = list(node.sequent)
        remaining.remove(principal)
        children = (GsProof(tuple(remaining)),)
    else:
        if additions is None:
            additions = gs3.premise_additions(rule, principal)
        if additions is None:
            raise StepError(SCHEMA_MISMATCH,
                            f"{rule.name} does not apply to {print_formula(principal)}")
        group = RULE_GROUPS.get(rule.name)
        if group in ("delta", "gamma"):
            w = rule.witness
            if w is None or not is_ground_term(w):
                raise StepError(SCHEMA_MISMATCH, "witness must be a ground term")
            if group == "delta":
                if isinstance(w, App) and w.is_skolem:
                    if outermost_skolems is None:
                        outermost_skolems = outermost_skolem_terms
                    if any(w in outermost_skolems(f) for f in node.sequent):
                        raise StepError(FRESHNESS,
                                        f"witness {print_term(w)} occurs in the conclusion")
                elif isinstance(w, App) and not w.args:
                    if any(w.symbol in symbols_of(f) for f in node.sequent):
                        raise StepError(FRESHNESS,
                                        f"witness {w.symbol} occurs in the conclusion")
                else:
                    raise StepError(SCHEMA_MISMATCH,
                                    "existential witness must be a constant or Skolem term")
        children = tuple(GsProof(node.sequent + extra) for extra in additions)
    node.rule, node.principal, node.children = rule, principal, children


def skolem_ranks(ct: ClosedTableau) -> dict[App, int]:
    """Well-founded order on the instantiated Skolem terms of a tableau.

    A term depends on every Skolem term occurring outermost in its rule's
    premise formula, and on the outermost Skolem terms of its own
    arguments.  A graft of one term can only ever force a graft of a term
    it depends on (a copy of that term's rule would put its witness into
    the conclusion), so the rank of the grafted term strictly decreases
    across graft recursions.  The occurs check keeps this relation acyclic
    for any unifier of a closed tableau.
    """
    sigma = ct.unifier
    edges: dict[App, set[App]] = {}
    for n in preorder(ct.root):
        rule = n.rule
        if rule is None or rule.kind != "delta":
            continue
        term = apply_subst(sigma, rule.witness)
        assert isinstance(term, App)
        deps = outermost_skolem_terms(apply_subst(sigma, rule.introduced[0][0]))
        for arg in term.args:
            deps |= outermost_skolem_terms(arg)
        deps.discard(term)
        edges.setdefault(term, set()).update(deps)

    ranks: dict[App, int] = {}
    visiting: set[App] = set()

    def rank(t: App) -> int:
        if t in ranks:
            return ranks[t]
        if t in visiting:
            raise TranslateError(f"cyclic Skolem dependency through {print_term(t)}")
        visiting.add(t)
        r = 1 + max((rank(d) for d in edges.get(t, ()) if d in edges), default=0)
        visiting.discard(t)
        ranks[t] = r
        return r

    for t in edges:
        rank(t)
    return ranks


class _Builder:
    """What the steps of one translation share.

    The proof being grown and its count of open leaves, the statistics,
    the audit switch and the Skolem ranks.  The sigma-instance of each
    tableau formula, the premise additions of each (rule, principal) pair,
    the outermost Skolem terms of each formula, which the existential
    freshness tests read, and the text of each formula a graft weakens
    are computed once.

    ``link`` lists, for each tableau node on the fringe of the rules
    replayed so far, the open sequent leaves linked to it; a node leaves it
    when its rule is replayed.  With audits on, ``targets`` holds the count
    of the sigma-instances of each fringe node's formulas.

    The steps record what they make, which the grafts and the Skolem
    replacement read instead of walking the proof: ``nodes``, every node
    object in creation order; ``formulas``, the root's formulas and what
    each premise adds; ``witnesses``, the rules' witnesses.  A node is made
    when its parent steps, and a leaf that shares a step existed before
    the premises it shares, so ``nodes`` lists each node after all its
    parents.  A (rule, principal) pair's formulas and witness are recorded
    at its first step, when its additions are computed.
    """

    def __init__(self, ct: ClosedTableau, audit: bool = True) -> None:
        self.sigma = ct.unifier
        self.tableau = ct.root
        self.audit = audit
        self.stats = TranslateStats()
        self.ranks = skolem_ranks(ct)
        self._instances: dict[Formula, Formula] = {}
        self._additions: dict[tuple[GsRule, Formula], tuple | None] = {}
        self._skolems: dict[Formula, set[App]] = {}
        self._texts: dict[Formula, str] = {}
        self.proof = GsProof(tuple(self.instance(f) for f in ct.root.formulas))
        self.nodes: list[GsProof] = [self.proof]
        self.formulas: set[Formula] = set(self.proof.sequent)
        self.witnesses: set[Term] = set()
        self.open = 1  # the proof's open leaves, kept up to date by ``step``
        self.link: dict[TableauNode, list[GsProof]] = {ct.root: [self.proof]}
        self.targets: dict[TableauNode, Counter] = {}
        if audit:
            self.targets[ct.root] = Counter(self.proof.sequent)

    def instance(self, f: Formula) -> Formula:
        out = self._instances.get(f)
        if out is None:
            out = self._instances[f] = apply_subst(self.sigma, f)
        return out

    def additions(self, rule: GsRule, principal: Formula) -> tuple | None:
        key = (rule, principal)
        if key not in self._additions:
            out = self._additions[key] = gs3.premise_additions(rule, principal)
            for extra in out or ():
                self.formulas.update(extra)
            if rule.witness is not None:
                self.witnesses.add(rule.witness)
        return self._additions[key]

    def skolems(self, f: Formula) -> set[App]:
        out = self._skolems.get(f)
        if out is None:
            out = self._skolems[f] = outermost_skolem_terms(f)
        return out

    def text(self, f: Formula) -> str:
        out = self._texts.get(f)
        if out is None:
            out = self._texts[f] = print_formula(f)
        return out

    def step(self, leaf: GsProof, rule: GsRule, principal: Formula) -> tuple[GsProof, ...]:
        """``build_step`` at an open leaf; records and returns its premises."""
        additions = None
        if rule.name not in ("axiom", "weaken"):
            additions = self.additions(rule, principal)
        build_step(leaf, rule, principal, additions=additions, outermost_skolems=self.skolems)
        self.nodes += leaf.children
        self.open += len(leaf.children) - 1
        return leaf.children

    def shares(self, first: dict, key, leaf: GsProof) -> bool:
        """Whether ``leaf`` takes the step an earlier leaf of its waiting
        list took: the first leaf with its key (the sequent, in a graft with
        the held status), as ``first``, the list's dict, records.  A leaf's
        future depends only on those and its target, so the leaf gets that
        leaf's rule, principal and premise objects, and the proof is a DAG
        that unfolds to the tree the steps would have made."""
        like = first.setdefault(key, leaf)
        if like is leaf:
            return False
        if not leaf.is_open or like.rule is None or leaf.sequent != like.sequent:
            raise TranslateError(f"{path_of(self.proof, leaf)} cannot share a step")
        leaf.rule, leaf.principal, leaf.children = like.rule, like.principal, like.children
        self.open -= 1
        return True


# ------------------------------------------------------------- delta graft


def delta_graft(
    B: list[GsProof],
    delta_term: Term,
    delta_formula: Formula,
    principal: Formula,
    builder: _Builder,
) -> tuple[dict[GsProof, list[GsProof]], set[GsProof]]:
    """Graft ``principal``'s existential step over the open leaves ``B`` of
    theta, the builder's proof, and regrow every rule of theta on top of it.

    Theta's open leaves are extended in place, so theta becomes the grown
    tree.  Returns the bilink, which lists for each open leaf theta had the
    open leaves now linked to it (a leaf outside ``B`` lists itself too),
    and the set of leaves that carry the Skolem formula as an extra side
    occurrence.  Held leaves are linked into ``B``.  A leaf linked into
    ``B`` either holds that extra occurrence or sits below a reused equal
    existential step whose target already accounts for it; all other
    leaves agree with their target exactly.

    ``builder`` is the translation's shared state, whose ``nodes`` are
    theta's node objects, parents first.
    """
    theta = builder.proof
    # Theta's rules are the template that is regrown, in creation order,
    # and its open leaves are the link targets.
    template: list[GsProof] = []
    leaves: list[GsProof] = []
    for n in builder.nodes:
        (leaves if n.rule is None else template).append(n)
    theta_open = set(leaves)
    in_B = set(B)
    if not in_B <= theta_open:
        raise TranslateError("graft leaves must be open leaves of the target tree")
    over_B = set(in_B)  # the nodes with a B leaf below them, B included
    for n in reversed(template):
        if not over_B.isdisjoint(n.children):
            over_B.add(n)

    stats = builder.stats
    stats.grafts += 1
    stats.measures.append((builder.ranks[delta_term], len(template)))

    # ``waiting`` lists, for each node of theta, the leaves linked to it;
    # each template rule pops its own.  ``clones`` are the leaves that copy
    # one of theta's open leaves outside B exactly, that leaf included.
    waiting: defaultdict[GsProof, list[GsProof]] = defaultdict(list)
    for q in leaves:
        if q not in in_B:
            waiting[q].append(q)
    clones = set(waiting)
    held: set[GsProof] = set()

    # Base graft: at each B leaf weaken down to the root sequent plus the
    # principal, apply the existential rule (legal there: the root formulas
    # contain no Skolem symbols), then weaken the principal away again if
    # it was an extra copy.  Only open leaves grow, so theta's rules stay
    # readable as the template that is regrown below.
    delta_rule = GsRule(rule_name(principal), delta_term)
    target = Counter(theta.sequent)
    extra_principal = principal not in target
    if extra_principal:
        target[principal] = 1
    first: dict = {}
    for s in B:
        if builder.shares(first, s.sequent, s):
            continue
        here = Counter(s.sequent)
        drops = here - target
        if here - drops != target:
            raise TranslateError("graft leaf does not contain the root sequent")
        for f in sorted(drops.elements(), key=builder.text):
            (s,) = builder.step(s, GsRule("weaken"), f)
        (s,) = builder.step(s, delta_rule, principal)
        if extra_principal:
            (s,) = builder.step(s, GsRule("weaken"), principal)
        waiting[theta].append(s)
        held.add(s)

    # Regrow theta's rules root-first, each node object once after all its
    # parents (creation order is a topological order) on the leaves they
    # all sent it, adapting around the grafted branches.  ``held`` leaves
    # carry one occurrence of the Skolem formula beyond their target; a reused equal
    # existential step absorbs that occurrence into the target content, and
    # a later weakening of the Skolem formula is then skipped on such
    # leaves, which releases the occurrence again.
    for b in template:
        rule, rule_principal = b.rule, b.principal
        group = RULE_GROUPS.get(rule.name)
        S = waiting.pop(b, [])
        prefix = b in over_B
        first = {}

        if rule.name == "weaken" and prefix and rule_principal == delta_formula:
            for s in S:
                if s in held:
                    held.discard(s)
                    (s,) = builder.step(s, rule, rule_principal)
                # else an absorbed leaf: the target loses its Skolem-formula
                # occurrence here, ours becomes the side copy again.
                waiting[b.children[0]].append(s)
                held.add(s)
            continue

        if group == "delta" and prefix:
            eps = rule.witness
            if eps == delta_term:
                # The same existential step again: its premise formula is
                # the Skolem formula these leaves already hold, so reuse
                # the held occurrence and retarget below the rule.
                stats.graft_case_iv += 1
                for s in S:
                    if s not in held:
                        raise TranslateError(
                            "reused existential step on a leaf without the side formula"
                        )
                    held.discard(s)
                    waiting[b.children[0]].append(s)
                continue
            if is_subterm(eps, delta_term) or eps in builder.skolems(delta_formula):
                # The witness is stale over the grafted region (it sits
                # inside the term being grafted, or occurs in the Skolem
                # formula these leaves carry); recursively graft it over
                # these leaves, with the current tree as its own target.
                stats.graft_case_v += 1
                e_formula = builder.additions(rule, rule_principal)[0][0]
                if not builder.ranks[eps] < builder.ranks[delta_term]:
                    raise TranslateError("graft recursion measure did not decrease")
                bilink, held2 = delta_graft(S, eps, e_formula, rule_principal, builder)
                if sum(map(len, bilink.values())) != builder.open:
                    raise TranslateError("bilink does not cover a grafted leaf")
                linked_to = {s: q for q, leaves in waiting.items() for s in leaves}
                waiting, old_held, old_clones = defaultdict(list), held, clones
                held, clones = set(), set()
                in_S = set(S)
                for s, leaves in bilink.items():
                    if s in in_S:
                        if not held2.issuperset(leaves):
                            raise TranslateError(
                                "recursive graft lost the inner Skolem side formula"
                            )
                        q = b.children[0]
                    elif s in linked_to:
                        q = linked_to[s]
                    else:
                        raise TranslateError("grafted leaf maps outside both links")
                    waiting[q].extend(leaves)
                    if s in old_held:
                        held.update(leaves)
                    elif s in old_clones:
                        clones.update(leaves)
                continue
            # Incomparable witness, or one containing the grafted term: it
            # is still fresh over the side formula, copy the rule.
            stats.graft_case_iii += 1

        for s in S:
            was_held = s in held
            held.discard(s)
            if builder.shares(first, (s.sequent, was_held), s):
                continue
            for child_s, child_b in zip(builder.step(s, rule, rule_principal), b.children):
                child_held = was_held
                if group == "beta" and prefix and child_b not in over_B and was_held:
                    # This side leaves the grafted region; drop the held
                    # Skolem side formula.
                    (child_s,) = builder.step(child_s, GsRule("weaken"), delta_formula)
                    child_held = False
                waiting[child_b].append(child_s)
                if child_held:
                    held.add(child_s)

    if builder.audit:
        _audit_graft(waiting, theta_open, in_B, delta_formula, held, clones, builder)
    return waiting, held


def _audit_graft(
    bilink: Mapping[GsProof, list[GsProof]],
    theta_open: set[GsProof],
    B: set[GsProof],
    delta_formula: Formula,
    held: set[GsProof],
    clones: set[GsProof],
    builder: _Builder,
) -> None:
    """Check the leaves a graft made against the open leaves of theta they
    are linked to, whose sequents the graft left as they were; a leaf of
    theta that lists itself is unchanged.  Totality is a count."""
    listed: set[GsProof] = set()
    for q, leaves in bilink.items():
        if q not in theta_open:
            raise TranslateError("a leaf is linked outside the target tree")
        there = Counter(q.sequent)
        for s in leaves:
            if s in listed:
                raise TranslateError("bilink domains overlap")
            listed.add(s)
            if s is q:
                continue
            here = Counter(s.sequent)
            if s in clones:
                if q in B:
                    raise TranslateError("a leaf is linked into the grafted region")
                if s in held:
                    raise TranslateError("a cloned leaf claims to hold the side formula")
                if here != there:
                    raise TranslateError("a cloned leaf does not match its target")
            elif s in held:
                if q not in B:
                    raise TranslateError("a held leaf is not linked over the grafted region")
                if here != there + Counter([delta_formula]):
                    raise TranslateError(
                        "a held leaf does not carry exactly the Skolem side formula"
                    )
            else:
                if here != there:
                    raise TranslateError("a regrown leaf does not match its target")
                if q in B and there[delta_formula] < 1:
                    raise TranslateError(
                        "a grafted leaf lost its Skolem formula occurrence"
                    )
    if len(listed) != builder.open:
        raise TranslateError("bilink domains do not cover the open leaves")
    builder.stats.bilink_audits += 1


# ------------------------------------------------------- parallel extension


def parallel_extend(node: TableauNode, builder: _Builder) -> None:
    """Replay the rule of the tableau node ``node`` on every sequent leaf
    the builder links to it.

    The keys of ``builder.link`` are the fringe of the rules replayed so
    far, the initial part, each with the open leaves of the proof linked to
    it.  ``node`` must be on the fringe; its entry is replaced by entries
    for its children, so a replayed node is on it no more, and the proof's
    open leaves are extended in place.  The containment invariant
    (instances of the linked branch's formulas inside each leaf sequent)
    is checked on the leaves the replay made.
    """
    link = builder.link
    if node not in link:
        raise TranslateError(f"{path_of(builder.tableau, node)} is not a fringe leaf")
    rule = node.rule
    if rule is None:
        raise TranslateError(
            f"tableau node {path_of(builder.tableau, node)} has no rule to replay")
    S = link.pop(node)
    for child in node.children:
        link[child] = []
    kept = builder.open - len(S)
    # (target, leaf, the leaf it was made on by one step or None) per new leaf
    made: list[tuple[TableauNode, GsProof, GsProof | None]] = []
    stats = builder.stats
    stats.steps += 1

    if rule.kind == CLOSURE:  # the axiom on the instance of its positive literal
        principal, gs_rule = builder.instance(rule.closure_pair[0]), GsRule("axiom")
    else:
        principal = builder.instance(rule.principal)
        witness = None if rule.witness is None else apply_subst(builder.sigma, rule.witness)
        gs_rule = GsRule(rule_name(principal), witness)

    if rule.kind == "delta":
        if S:
            d_delta = builder.instance(rule.introduced[0][0])
            bilink, _held = delta_graft(S, witness, d_delta, principal, builder)
            for target, leaves in link.items():
                grown = []
                for q in leaves:  # each lists itself and its copies
                    grown += bilink[q]
                    made.extend((target, s, None) for s in bilink[q] if s is not q)
                link[target] = grown
            (child,) = node.children
            link[child] = grafted = [s for q in S for s in bilink.get(q, ())]
            made.extend((child, s, None) for s in grafted)

    else:
        first: dict = {}
        for s in S:
            if builder.shares(first, s.sequent, s):
                continue
            for premise, child in zip(builder.step(s, gs_rule, principal), node.children):
                link[child].append(premise)
                made.append((child, premise, s))

    if builder.audit:
        _audit_link(node, made, kept, builder)


def _audit_link(
    node: TableauNode,
    made: list[tuple[TableauNode, GsProof, GsProof | None]],
    kept: int,
    builder: _Builder,
) -> None:
    """Totality over open leaves, as a count of the ``kept`` leaves the
    replay of ``node`` left alone and the leaves it ``made``, plus the
    containment invariant on the leaves it made, each of whose targets
    must be on the builder's fringe.  The target count of each child of
    ``node`` is its parent's plus the sigma-instances of what the rule
    introduced there.

    A leaf made by one step on a leaf linked to ``node``, whose tuple is
    that leaf's followed by those instances, holds its target: the leaf it
    was made on passed this test against the target of ``node`` when it
    was made.  That is one tuple compare; any other leaf is counted."""
    there = builder.targets.pop(node)
    introduced: dict[TableauNode, tuple[Formula, ...]] = {}  # child -> the instances added there
    for i, (child, extra) in enumerate(zip(node.children, node.rule.introduced)):
        introduced[child] = tuple(map(builder.instance, extra))
        count = there if i == len(node.children) - 1 else there.copy()
        count.update(introduced[child])
        builder.targets[child] = count
    if kept + len(made) != builder.open or not all(s.is_open for _, s, _ in made):
        raise TranslateError("link is not total on the open sequent leaves")
    for q, s, on in made:
        if q not in builder.link:
            raise TranslateError("link target is not a fringe leaf")
        if on is not None and s.sequent == on.sequent + introduced[q]:
            continue
        if builder.targets[q] - Counter(s.sequent):
            raise TranslateError(
                f"containment invariant broken at sequent leaf {path_of(builder.proof, s)}"
            )
    builder.stats.link_audits += 1


# -------------------------------------------------- skolem term replacement


def replace_skolem_terms(nodes: list[GsProof], formulas: set[Formula],
                         witnesses: set[Term]) -> GsProof:
    """Replace each (now globally fresh) Skolem term by a distinct fresh
    constant, turning relaxed existential witnesses into strict ones.

    ``nodes`` are the node objects of a proof, each once, its root first;
    ``formulas`` are the distinct formulas of their sequents and
    ``witnesses`` the distinct witnesses of their rules, as the builder
    records them.  If none of these holds a Skolem term (their
    ``has_skolem`` flag), the proof is returned as it is, before any
    formula is walked.  Else the symbols in use are read from the
    formulas' ``symbols`` slots (see ``formula.symbols_of``), and a walk of
    the subtrees that hold a Skolem term, each distinct one once, collects
    each Skolem symbol's argument vector.  Only the formulas and witnesses
    that hold a Skolem term are rewritten, each distinct one once, and the
    nodes are updated in place.  The proof's root is returned.
    """
    proof = nodes[0]
    met = {x for x in (*formulas, *witnesses) if x.has_skolem}
    if not met:
        return proof

    # The symbols of the sequent formulas are taken, not those of a witness
    # that occurs in none of them.
    taken: set[str] = set().union(*map(symbols_of, formulas))
    vectors: dict[str, tuple[Term, ...]] = {}
    stack = list(met)
    while stack:
        x = stack.pop()
        if type(x) is App and x.is_skolem:
            if vectors.setdefault(x.symbol, x.args) != x.args:
                raise TranslateError(f"skolem symbol {x.symbol} used with two argument vectors")
        for part in x.parts:
            if part.has_skolem and part not in met:
                met.add(part)
                stack.append(part)

    constants: dict[str, App] = {}
    counter = 0
    for symbol in sorted(vectors, key=lambda s: int(s[3:])):
        while True:
            counter += 1
            candidate = f"c{counter}"
            if candidate not in taken:
                taken.add(candidate)
                constants[symbol] = App(candidate, ())
                break

    def by(x: Formula | Term) -> Formula | Term | None:
        """A node with no Skolem term below kept whole, a Skolem term's
        constant, or None for a node to rebuild from its parts."""
        if not x.has_skolem:
            return x
        return constants.get(x.symbol) if type(x) is App else None

    rewritten = {x: rebuild(x, by) if x.has_skolem else x for x in (*formulas, *witnesses)}
    new = rewritten.__getitem__
    for node in nodes:
        node.sequent = tuple(map(new, node.sequent))
        rule = node.rule
        if rule is not None:
            node.principal = new(node.principal)
            if rule.witness is not None and rule.witness.has_skolem:
                node.rule = GsRule(rule.name, new(rule.witness))
    return proof


# --------------------------------------------------------------- top level


def translate_detailed(
    ct: ClosedTableau, *, audit: bool = True
) -> tuple[GsProof, TranslateStats]:
    """Translate a closed tableau, returning the proof and step statistics."""
    if audit:
        audit_closed_tableau(ct)
    builder = _Builder(ct, audit)

    # Replay in the tableau's preorder: each rule's node is then on the
    # fringe of the rules replayed before it.
    for node in preorder(ct.root):
        if node.rule is not None:
            parallel_extend(node, builder)

    if builder.open:
        raise TranslateError("open sequent leaves remain after the last tableau rule")
    proof = replace_skolem_terms(builder.nodes, builder.formulas, builder.witnesses)
    if audit:
        result = gs3.check(proof)
        if not result:
            raise TranslateError(f"translated proof fails the checker: {result.describe()}")
    return proof, builder.stats


def translate(ct: ClosedTableau, *, audit: bool = True) -> GsProof:
    """Build a sequent proof of the unifier-instantiated root multiset."""
    proof, _ = translate_detailed(ct, audit=audit)
    return proof

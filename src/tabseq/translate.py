"""Compile a closed tableau with its ground unifier into a sequent proof.

The sequent proof is grown from the root by replaying tableau rules one at
a time.  A link maps every open sequent leaf to the tableau branch it
mirrors, with the invariant that the sigma-instances of the branch's
formulas are contained in the leaf's sequent.  Alpha, beta, gamma and
closure rules replay directly on all linked leaves.  An existential rule
cannot be replayed in place (its Skolem witness is generally stale there),
so it is grafted instead: clone the current proof, weaken the affected
leaves down to the root sequent plus the principal, apply the existential
rule there while it is still fresh, then regrow the saved proof on top of
the graft, carrying the new Skolem formula along as a side formula.  After
the last rule the Skolem terms are globally fresh and are replaced by
fresh constants, which yields a strictly rule-conforming proof.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Mapping

from . import gs3
from .formula import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Term,
    formula_terms,
    is_subterm,
    outermost_skolem_terms,
    print_formula,
    print_term,
)
from .gs3 import DELTA_RULES, GsProof, GsRule, build_step
from .tableau import CLOSURE, ClosedTableau, TableauNode, audit_closed_tableau
from .tree import Path, PathError, format_path, iter_nodes, node_at
from .unify import Substitution


class TranslateError(AssertionError):
    """An internal invariant of the construction failed; unreachable from a
    valid closed tableau."""


def _on_fringe(marks: set[Path], path: Path) -> bool:
    """Whether ``path`` is unmarked with every proper prefix marked: the
    fringe of the prefix-closed set of replayed rules, tested without
    walking the tree."""
    return path not in marks and all(path[:i] in marks for i in range(len(path)))


@dataclass
class TranslateStats:
    steps: int = 0
    by_kind: Counter = field(default_factory=Counter)
    grafts: int = 0
    graft_case_iii: int = 0
    graft_case_iv: int = 0
    graft_case_v: int = 0
    graft_leaf_growth: list[tuple[int, int]] = field(default_factory=list)
    link_audits: int = 0
    bilink_audits: int = 0
    measures: list[tuple[int, int]] = field(default_factory=list)


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
    for _, n in iter_nodes(ct.root):
        rule = n.rule
        if rule is None or rule.skolem is None:
            continue
        term = sigma.apply_term(rule.skolem)
        assert isinstance(term, App)
        deps = outermost_skolem_terms(sigma.apply(rule.introduced[0][0]))
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


def _gs_rule_name(principal: Formula) -> str:
    if isinstance(principal, And):
        return "and"
    if isinstance(principal, Or):
        return "or"
    if isinstance(principal, Implies):
        return "implies"
    if isinstance(principal, Exists):
        return "exists"
    if isinstance(principal, Forall):
        return "forall"
    if isinstance(principal, Not):
        body = principal.body
        if isinstance(body, Not):
            return "not_not"
        if isinstance(body, And):
            return "not_and"
        if isinstance(body, Or):
            return "not_or"
        if isinstance(body, Implies):
            return "not_implies"
        if isinstance(body, Forall):
            return "not_forall"
        if isinstance(body, Exists):
            return "not_exists"
    raise TranslateError(f"no sequent rule for {print_formula(principal)}")


def _prefixes(paths: frozenset[Path]) -> set[Path]:
    """Every prefix of every path, each path included."""
    return {p[:i] for p in paths for i in range(len(p) + 1)}


class _Builder:
    """What the steps of one translation share.

    The sigma-instance of each tableau formula, the premise additions of
    each (rule, principal) pair and the outermost Skolem terms of each
    formula, which the existential freshness tests read, are computed once.
    ``leaves`` holds the open leaves of the proof being grown, by path, so
    that no step walks from the root; the caller enters the root.
    """

    def __init__(self, sigma: Substitution) -> None:
        self.sigma = sigma
        self.leaves: dict[Path, GsProof] = {}
        self._instances: dict[Formula, Formula] = {}
        self._additions: dict[tuple[GsRule, Formula], tuple | None] = {}
        self._skolems: dict[Formula, set[App]] = {}

    def instance(self, f: Formula) -> Formula:
        out = self._instances.get(f)
        if out is None:
            out = self._instances[f] = self.sigma.apply(f)
        return out

    def additions(self, rule: GsRule, principal: Formula) -> tuple | None:
        key = (rule, principal)
        if key not in self._additions:
            self._additions[key] = gs3.premise_additions(rule, principal)
        return self._additions[key]

    def skolems(self, f: Formula) -> set[App]:
        out = self._skolems.get(f)
        if out is None:
            out = self._skolems[f] = outermost_skolem_terms(f)
        return out

    def step(self, leaf: Path, rule: GsRule, principal: Formula) -> None:
        """``build_step`` at an open leaf, then track its premises."""
        node = self.leaves.get(leaf)
        if node is None:
            raise TranslateError(f"{format_path(leaf)} is not an open leaf")
        additions = None
        if rule.name not in ("axiom", "weaken"):
            additions = self.additions(rule, principal)
        build_step(node, rule, principal, additions=additions, outermost_skolems=self.skolems)
        del self.leaves[leaf]
        for bit, child in enumerate(node.children):
            self.leaves[leaf + (bit,)] = child


# ------------------------------------------------------------- delta graft


def delta_graft(
    theta: GsProof,
    B: frozenset[Path],
    delta_term: Term,
    delta_formula: Formula,
    principal: Formula,
    stats: TranslateStats,
    audit: bool,
    ranks: Mapping[App, int],
    builder: _Builder,
) -> tuple[dict[Path, Path], dict[Path, Path], set[Path]]:
    """Graft ``principal``'s existential step over the leaves ``B`` of theta
    and regrow every rule of theta on top of it.

    Theta's open leaves are extended in place, so theta becomes the grown
    tree.  Returns the two halves of the bilink (a map into the regrown
    rules' fringe and a map into theta's remaining open leaves), and the
    set of leaves that carry the Skolem formula as an extra side
    occurrence.  The second map sends no leaf into ``B``.  Leaves mapped
    over a prefix of ``B``, ``B`` included, either hold that extra
    occurrence or sit below a reused equal existential step whose target
    already accounts for it; all other leaves agree with their target
    exactly.

    ``builder`` is the translation's shared state, whose ``leaves`` must be
    theta's open leaves.
    """
    # One walk over theta: its rules are the template that is regrown, and
    # its nodes are the link targets.
    theta_nodes = dict(gs3.iter_nodes(theta))
    theta_open = [p for p, n in theta_nodes.items() if n.is_open]
    if not B <= set(theta_open):
        raise TranslateError("graft leaves must be open leaves of the target tree")
    template = [(p, n) for p, n in theta_nodes.items() if n.rule is not None]
    over_B = _prefixes(B)
    root_gamma = Counter(theta.sequent)

    stats.grafts += 1
    stats.measures.append((ranks[delta_term], len(template)))
    leaves_before = len(theta_open)

    # ``mu_part`` maps each regrown leaf to its template node; ``waiting``
    # indexes it by template node, so each template rule finds its leaves
    # without a scan.
    mu_theta: dict[Path, Path] = {p: p for p in theta_open if p not in B}
    mu_part: dict[Path, Path] = {}
    waiting: defaultdict[Path, list[Path]] = defaultdict(list)
    held: set[Path] = set()

    def link(s: Path, q: Path) -> None:
        mu_part[s] = q
        waiting[q].append(s)

    # Base graft: at each B leaf weaken down to the root sequent plus the
    # principal, apply the existential rule (legal there: the root formulas
    # contain no Skolem symbols), then weaken the principal away again if
    # it was an extra copy.  Only open leaves grow, so theta's rules stay
    # readable as the template that is regrown below.
    delta_rule = GsRule(_gs_rule_name(principal), delta_term)
    for b in sorted(B):
        leaf = theta_nodes[b]
        target = root_gamma.copy()
        extra_principal = target[principal] == 0
        if extra_principal:
            target[principal] = 1
        drops = Counter(leaf.sequent) - target
        if Counter(leaf.sequent) - drops != target:
            raise TranslateError("graft leaf does not contain the root sequent")
        s = b
        for f in sorted(drops.elements(), key=print_formula):
            builder.step(s, GsRule("weaken"), f)
            s += (0,)
        builder.step(s, delta_rule, principal)
        s += (0,)
        if extra_principal:
            builder.step(s, GsRule("weaken"), principal)
            s += (0,)
        link(s, ())
        held.add(s)

    # Regrow theta's rules root-first (theta's preorder is the
    # lexicographic order of paths, a topological order), adapting around
    # the grafted branches.  ``held`` leaves carry one occurrence of the
    # Skolem formula beyond their target; a reused equal existential step
    # absorbs that occurrence into the target content, and a later
    # weakening of the Skolem formula is then skipped on such leaves, which
    # releases the occurrence again.
    for b, node_th in template:
        rule, rule_principal = node_th.rule, node_th.principal
        S = sorted(waiting.pop(b, ()))
        prefix = b in over_B

        if rule.name == "axiom":
            for s in S:
                builder.step(s, rule, rule_principal)
                del mu_part[s]
                held.discard(s)
            continue

        if rule.name == "weaken" and prefix and rule_principal == delta_formula:
            for s in S:
                del mu_part[s]
                if s in held:
                    builder.step(s, rule, rule_principal)
                    link(s + (0,), b + (0,))
                    held.discard(s)
                    held.add(s + (0,))
                else:
                    # Absorbed leaf: the target loses its Skolem-formula
                    # occurrence here, ours becomes the side copy again.
                    link(s, b + (0,))
                    held.add(s)
            continue

        if rule.name in DELTA_RULES and prefix:
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
                    link(s, b + (0,))
                continue
            if is_subterm(eps, delta_term) or eps in builder.skolems(delta_formula):
                # The witness is stale over the grafted region (it sits
                # inside the term being grafted, or occurs in the Skolem
                # formula these leaves carry); recursively graft it over
                # these leaves, with the current tree as its own target.
                stats.graft_case_v += 1
                e_formula = builder.additions(rule, rule_principal)[0][0]
                B_b = frozenset(S)
                if not ranks[eps] < ranks[delta_term]:
                    raise TranslateError("graft recursion measure did not decrease")
                mu1, mu2, held2 = delta_graft(
                    theta, B_b, eps, e_formula, rule_principal, stats, audit, ranks, builder)
                old_part = mu_part
                new_theta: dict[Path, Path] = {}
                new_held: set[Path] = set()
                mu_part, waiting = {}, defaultdict(list)
                for s2 in builder.leaves:  # the regrown tree's open leaves
                    if s2 in mu1:
                        q = mu1[s2]
                    elif s2 in mu2:
                        q = mu2[s2]
                    else:
                        raise TranslateError("bilink does not cover a grafted leaf")
                    if q in B_b:
                        if s2 not in held2:
                            raise TranslateError(
                                "recursive graft lost the inner Skolem side formula"
                            )
                        link(s2, b + (0,))
                    elif q in old_part:
                        link(s2, old_part[q])
                    elif q in mu_theta:
                        new_theta[s2] = mu_theta[q]
                        continue
                    else:
                        raise TranslateError("grafted leaf maps outside both links")
                    if q in held:
                        new_held.add(s2)
                mu_theta, held = new_theta, new_held
                continue
            # Incomparable witness, or one containing the grafted term: it
            # is still fresh over the side formula, copy the rule.
            stats.graft_case_iii += 1

        for s in S:
            was_held = s in held
            held.discard(s)
            builder.step(s, rule, rule_principal)
            del mu_part[s]
            for bit in range(len(node_th.children)):
                child_s = s + (bit,)
                child_b = b + (bit,)
                child_held = was_held
                if (
                    rule.name in gs3.BETA_RULES
                    and prefix
                    and child_b not in over_B
                    and was_held
                ):
                    # This side leaves the grafted region; drop the held
                    # Skolem side formula.
                    builder.step(child_s, GsRule("weaken"), delta_formula)
                    child_s += (0,)
                    child_held = False
                link(child_s, child_b)
                if child_held:
                    held.add(child_s)

    if audit:
        _audit_graft(theta, theta_nodes, B, over_B, delta_formula, mu_part, mu_theta, held, stats)
    stats.graft_leaf_growth.append((leaves_before, len(builder.leaves)))
    return mu_part, mu_theta, held


def _audit_graft(
    proof: GsProof,
    theta_nodes: Mapping[Path, GsProof],
    B: frozenset[Path],
    over_B: set[Path],
    delta_formula: Formula,
    mu_part: dict[Path, Path],
    mu_theta: dict[Path, Path],
    held: set[Path],
    stats: TranslateStats,
) -> None:
    """``proof`` is the grown tree; ``theta_nodes`` indexes, by path, the
    nodes it had before the graft, whose sequents are the link targets."""
    leaves = {p: n for p, n in gs3.iter_nodes(proof) if n.is_open}
    if mu_part.keys() & mu_theta.keys():
        raise TranslateError("bilink domains overlap")
    if mu_part.keys() | mu_theta.keys() != leaves.keys():
        raise TranslateError("bilink domains do not cover the open leaves")
    stats.bilink_audits += 1

    def target(q: Path) -> Counter:
        node = theta_nodes.get(q)
        if node is None:
            raise TranslateError("a leaf is linked outside the target tree")
        return Counter(node.sequent)

    for s, q in mu_theta.items():
        if q in B:
            raise TranslateError("a leaf is linked into the grafted region")
        if s in held:
            raise TranslateError("a cloned leaf claims to hold the side formula")
        if Counter(leaves[s].sequent) != target(q):
            raise TranslateError("a cloned leaf does not match its target")
    for s, q in mu_part.items():
        here = Counter(leaves[s].sequent)
        there = target(q)
        if s in held:
            if q not in over_B:
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


# ------------------------------------------------------- parallel extension


def parallel_extend(
    proof: GsProof,
    link: dict[Path, Path],
    marks: set[Path],
    ct: ClosedTableau,
    leaf: Path,
    node: TableauNode,
    stats: TranslateStats,
    audit: bool,
    ranks: Mapping[App, int],
    builder: _Builder,
) -> None:
    """Replay the rule of the tableau node ``node``, at path ``leaf``, on
    every linked sequent leaf.

    ``link`` maps each open leaf of the proof to its tableau node, and
    ``marks`` holds the tableau nodes whose rules are replayed, a
    prefix-closed set with ``leaf`` on its fringe; both are updated in
    place, and the proof's open leaves are extended in place.  The
    containment invariant (instances of the linked branch's formulas
    inside each leaf sequent) is re-checked afterwards.  ``builder`` is
    the translation's shared state, whose ``leaves`` must be the proof's
    open leaves.
    """
    if leaf in marks:
        raise TranslateError(f"{format_path(leaf)} already marked")
    if not _on_fringe(marks, leaf):
        raise TranslateError(f"{format_path(leaf)} is not a fringe leaf")
    sigma = ct.unifier
    rule = node.rule
    if rule is None:
        raise TranslateError(f"tableau node {format_path(leaf)} has no rule to replay")
    S = sorted(s for s, q in link.items() if q == leaf)
    stats.steps += 1
    stats.by_kind[rule.kind] += 1

    if rule.kind == CLOSURE:
        pos, _neg = rule.closure_pair
        principal = builder.instance(pos)
        for s in S:
            builder.step(s, GsRule("axiom"), principal)
            del link[s]

    elif rule.kind == "delta":
        if S:
            delta_sigma = sigma.apply_term(rule.skolem)
            d_delta = builder.instance(rule.introduced[0][0])
            principal = builder.instance(rule.principal)
            B = frozenset(S)
            mu_part, mu_theta, _held = delta_graft(
                proof, B, delta_sigma, d_delta, principal, stats, audit, ranks, builder)
            grown: dict[Path, Path] = {}
            for s2 in builder.leaves:  # the grown proof's open leaves
                q = mu_part.get(s2)
                if q is None:
                    q = mu_theta[s2]
                grown[s2] = leaf + (0,) if q in B else link[q]
            link.clear()
            link.update(grown)

    else:
        principal = builder.instance(rule.principal)
        name = _gs_rule_name(principal)
        witness = sigma.apply_term(rule.meta) if rule.kind == "gamma" else None
        gs_rule = GsRule(name, witness)
        for s in S:
            builder.step(s, gs_rule, principal)
            del link[s]
            for bit in range(len(node.children)):
                link[s + (bit,)] = leaf + (bit,)

    marks.add(leaf)
    if audit:
        _audit_link(proof, link, marks, ct, stats, builder)


def _audit_link(
    proof: GsProof,
    link: dict[Path, Path],
    marks: set[Path],
    ct: ClosedTableau,
    stats: TranslateStats,
    builder: _Builder,
) -> None:
    """Totality over open leaves plus the containment invariant."""
    leaves = {p: n for p, n in gs3.iter_nodes(proof) if n.is_open}
    if link.keys() != leaves.keys():
        raise TranslateError("link is not total on the open sequent leaves")
    instances: dict[Path, Counter] = {}
    for s, q in link.items():
        if q not in instances:
            try:
                target = node_at(ct.root, q)
            except PathError:
                target = None
            if target is None or not _on_fringe(marks, q):
                raise TranslateError("link target is not a fringe leaf")
            instances[q] = Counter(builder.instance(f) for f in target.formulas)
        if instances[q] - Counter(leaves[s].sequent):
            raise TranslateError(
                f"containment invariant broken at sequent leaf {format_path(s)}"
            )
    stats.link_audits += 1


# -------------------------------------------------- skolem term replacement


def replace_skolem_terms(proof: GsProof) -> GsProof:
    """Replace each (now globally fresh) Skolem term by a distinct fresh
    constant, turning relaxed existential witnesses into strict ones.

    One iterative walk collects the nodes and the distinct formulas; each
    distinct formula is scanned for symbols and rewritten once, formulas
    without Skolem terms are kept, and the nodes are updated in place.
    The proof is returned.
    """
    nodes: list[GsProof] = []
    distinct: set[Formula] = set()  # a rule's principal is in its sequent
    stack = [proof]
    while stack:
        node = stack.pop()
        nodes.append(node)
        distinct.update(node.sequent)
        stack.extend(node.children)

    vectors: dict[str, tuple[Term, ...]] = {}
    taken: set[str] = set()

    def scan(t: Term) -> bool:
        """Record t's Skolem argument vector, if it is a Skolem term."""
        if not (isinstance(t, App) and t.is_skolem):
            return False
        if vectors.setdefault(t.symbol, t.args) != t.args:
            raise TranslateError(f"skolem symbol {t.symbol} used with two argument vectors")
        return True

    with_skolems: list[Formula] = []
    for f in distinct:
        found = False
        for t in formula_terms(f):
            if isinstance(t, App):
                taken.add(t.symbol)
                found = scan(t) or found
        if found:
            with_skolems.append(f)
    witnesses = {n.rule.witness for n in nodes if n.rule is not None and n.rule.witness is not None}
    for w in witnesses:
        terms = [w]
        while terms:
            t = terms.pop()
            scan(t)
            if isinstance(t, App):
                terms.extend(t.args)
    if not vectors:
        return proof

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

    def term(t: Term) -> Term:
        if isinstance(t, App):
            if t.symbol in constants:
                return constants[t.symbol]
            if t.args:
                return App(t.symbol, tuple(term(a) for a in t.args))
        return t

    def formula(f: Formula) -> Formula:
        if isinstance(f, Atom):
            return Atom(f.predicate, tuple(term(a) for a in f.args))
        if isinstance(f, Not):
            return Not(formula(f.body))
        if isinstance(f, And):
            return And(formula(f.left), formula(f.right))
        if isinstance(f, Or):
            return Or(formula(f.left), formula(f.right))
        if isinstance(f, Implies):
            return Implies(formula(f.left), formula(f.right))
        if isinstance(f, Forall):
            return Forall(f.var, formula(f.body))
        return Exists(f.var, formula(f.body))

    rewritten = {f: f for f in distinct}
    for f in with_skolems:
        rewritten[f] = formula(f)
    new = rewritten.__getitem__
    for node in nodes:
        node.sequent = tuple(map(new, node.sequent))
        rule = node.rule
        if rule is not None:
            node.principal = new(node.principal)
            if rule.witness is not None:
                node.rule = GsRule(rule.name, term(rule.witness))
    return proof


# --------------------------------------------------------------- top level


def translate_detailed(
    ct: ClosedTableau, *, audit: bool = True
) -> tuple[GsProof, TranslateStats]:
    """Translate a closed tableau, returning the proof and step statistics."""
    if audit:
        audit_closed_tableau(ct)
    stats = TranslateStats()
    ranks = skolem_ranks(ct)
    builder = _Builder(ct.unifier)
    proof = GsProof(tuple(builder.instance(f) for f in ct.root.formulas))
    builder.leaves[()] = proof
    link: dict[Path, Path] = {(): ()}
    marks: set[Path] = set()

    # Replay in the tableau's preorder: each rule's node is then on the
    # fringe of the rules replayed before it, the least such path.
    for leaf, node in iter_nodes(ct.root):
        if node.rule is not None:
            parallel_extend(proof, link, marks, ct, leaf, node, stats, audit, ranks, builder)

    if link:
        raise TranslateError("open sequent leaves remain after the last tableau rule")
    proof = replace_skolem_terms(proof)
    if audit:
        result = gs3.check(proof)
        if not result:
            raise TranslateError(f"translated proof fails the checker: {result.describe()}")
    return proof, stats


def translate(ct: ClosedTableau, *, audit: bool = True) -> GsProof:
    """Build a sequent proof of the unifier-instantiated root multiset."""
    proof, _ = translate_detailed(ct, audit=audit)
    return proof

"""Refutation prover with free-variable tableaux, plus a compiler from
closed tableaux to ground one-sided sequent proofs and an independent
checker for the latter.

The package imports none of its modules, so that ``import tabseq.gs3``
runs only the checker's trusted base: ``gs3``, ``formula`` and ``tree``."""

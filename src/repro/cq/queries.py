"""Conjunctive queries over instances with labelled nulls.

A conjunctive query (CQ) is ``q(x̄) :- φ(x̄, ȳ)`` — a conjunction of
atoms with distinguished answer variables.  Two evaluation semantics
matter for chase-produced instances:

* **naive answers** — homomorphic matches, nulls treated as values;
* **certain answers** — answers containing no nulls; over a universal
  model (a terminating chase result) these are exactly the answers
  true in *every* model of D and Σ, which is the standard argument for
  computing certain answers via the chase (§1 of the paper).

Evaluation runs on the int-native query subsystem
(:mod:`repro.query`): the body is cost-planned from the instance's
columnar statistics, answers are projected and deduplicated as term-id
tuples (no ``Term``-tuple dedup sets — the set holds small-int tuples
and only yielded answers ever materialize as objects), and certain
answers filter nulls by a memoized id-kind check.  The property tests
hold the answer sets to the ``naive_homomorphisms``-derived oracle.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Set, Tuple

from ..model import (
    Atom,
    Instance,
    Term,
    Variable,
)
from ..query import CompiledQuery


class ConjunctiveQuery:
    """``answers(X1,...,Xn) :- atom, atom, ...``.

    The user-facing query object: parse one with
    :func:`repro.parser.parse_query`, then evaluate it against any
    chased instance (or snapshot) ::

        query = parse_query("q(X) :- works(X, D), dept(D)")
        naive = list(query.answers(result.instance))
        certain = query.certain_answers(result.instance)
        if parse_query("works(X, D)").holds_in(result.instance): ...

    ``answers`` yields one tuple per homomorphism image (nulls
    included); ``certain_answers`` keeps only null-free tuples, which
    over a *terminated* chase are exactly the answers true in every
    model of D ∧ Σ.  A query with no answer variables is boolean —
    evaluate it with ``holds_in``.  Evaluation delegates to the
    (cached, per kernel) :class:`repro.query.CompiledQuery`.

    ``name`` is the answer predicate's display name (what the parser
    saw before ``:-``; what the CLI prints answers under) — pure
    presentation, excluded from equality and hashing.
    """

    __slots__ = ("answer_variables", "atoms", "name", "_hash", "_compiled")

    def __init__(
        self,
        answer_variables: Sequence[Variable],
        atoms: Sequence[Atom],
        name: str = "q",
    ):
        self.answer_variables = tuple(answer_variables)
        self.atoms = tuple(atoms)
        self.name = name
        if not self.atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        body_vars: Set[Variable] = set()
        for atom in self.atoms:
            body_vars |= atom.variables()
        for var in self.answer_variables:
            if var not in body_vars:
                raise ValueError(
                    f"answer variable {var} does not occur in the query body"
                )
        self._hash = hash((self.answer_variables, self.atoms))
        self._compiled: dict = {}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and self.answer_variables == other.answer_variables
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.answer_variables)
        body = ", ".join(str(a) for a in self.atoms)
        return f"CQ(({head}) :- {body})"

    def is_boolean(self) -> bool:
        """True iff the query has no answer variables."""
        return not self.answer_variables

    def compiled(self, kernel: str = "tuple") -> CompiledQuery:
        """The (cached) int-native compiled form under execution
        ``kernel``: ``"tuple"``, ``"vector"`` or ``"auto"`` (see
        :data:`repro.query.kernels.KERNELS`; any other value raises
        ``ValueError``).  The kernel changes speed, never answers."""
        compiled = self._compiled.get(kernel)
        if compiled is None:
            compiled = CompiledQuery(
                self.answer_variables, self.atoms, kernel=kernel
            )
            self._compiled[kernel] = compiled
        return compiled

    # -- evaluation -----------------------------------------------------

    def answers(
        self,
        instance: Instance,
        kernel: str = "tuple",
        budget=None,
    ) -> Iterator[Tuple[Term, ...]]:
        """Naive answers: one tuple per homomorphism image,
        deduplicated in id space (only yielded answers materialize)."""
        return self.compiled(kernel).answers(instance, budget=budget)

    def certain_answers(
        self,
        instance: Instance,
        kernel: str = "tuple",
        budget=None,
    ) -> List[Tuple[Term, ...]]:
        """Null-free answers, sorted for determinism.

        When ``instance`` is a universal model of (D, Σ), these are the
        certain answers of the query under Σ.
        """
        return self.compiled(kernel).certain_answers(
            instance, budget=budget
        )

    def holds_in(
        self,
        instance: Instance,
        kernel: str = "tuple",
        budget=None,
    ) -> bool:
        """Boolean evaluation: does any match exist?"""
        return self.compiled(kernel).holds_in(instance, budget=budget)

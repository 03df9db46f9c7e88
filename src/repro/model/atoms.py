"""Predicates, positions, and atoms.

An :class:`Atom` is a predicate applied to a tuple of terms.  Atoms over
constants and nulls populate instances; atoms over variables (possibly
mixed with constants) form rule bodies and heads.

A :class:`Position` is a (predicate, index) pair — the vertices of the
dependency graphs used by weak/rich acyclicity (§3.1 of the paper).
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, Sequence, Set, Tuple

from .terms import Constant, Null, Term, Variable, is_ground


class Predicate:
    """A relation name with a fixed arity."""

    __slots__ = ("name", "arity", "_hash")

    def __init__(self, name: str, arity: int):
        if arity < 0:
            raise ValueError(f"negative arity for predicate {name!r}: {arity}")
        self.name = name
        self.arity = arity
        self._hash = hash(("Predicate", name, arity))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Predicate)
            and self.name == other.name
            and self.arity == other.arity
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the lock-guarded intern table: the cached
        # ``_hash`` is only valid under the pickling interpreter's hash
        # randomization (see :mod:`repro.model.terms`).
        return (intern_predicate, (self.name, self.arity))

    def __lt__(self, other: "Predicate") -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return (self.name, self.arity) < (other.name, other.arity)

    def __repr__(self) -> str:
        return f"Predicate({self.name!r}, {self.arity})"

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"

    def positions(self) -> Tuple["Position", ...]:
        """All positions of this predicate, in argument order."""
        return tuple(Position(self, i) for i in range(self.arity))


class Position:
    """Position ``i`` of predicate ``p`` — written ``p[i]`` (0-based)."""

    __slots__ = ("predicate", "index", "_hash")

    def __init__(self, predicate: Predicate, index: int):
        if not 0 <= index < predicate.arity:
            raise ValueError(
                f"position index {index} out of range for {predicate}"
            )
        self.predicate = predicate
        self.index = index
        self._hash = hash(("Position", predicate, index))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Position)
            and self.predicate == other.predicate
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Position, (self.predicate, self.index))

    def __lt__(self, other: "Position") -> bool:
        if not isinstance(other, Position):
            return NotImplemented
        return (self.predicate.name, self.predicate.arity, self.index) < (
            other.predicate.name,
            other.predicate.arity,
            other.index,
        )

    def __repr__(self) -> str:
        return f"Position({self.predicate!r}, {self.index})"

    def __str__(self) -> str:
        return f"{self.predicate.name}[{self.index}]"


class Atom:
    """A predicate applied to terms.

    Immutable and hashable; the same class is used for schema-level
    atoms (with variables) and instance-level facts (constants/nulls).
    """

    __slots__ = ("predicate", "terms", "_hash")

    def __init__(self, predicate: Predicate, terms: Sequence[Term]):
        terms = tuple(terms)
        if len(terms) != predicate.arity:
            raise ValueError(
                f"{predicate} applied to {len(terms)} terms: {terms}"
            )
        self.predicate = predicate
        self.terms = terms
        self._hash = hash(("Atom", predicate, terms))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self.predicate == other.predicate
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Atom, (self.predicate, self.terms))

    def __repr__(self) -> str:
        return f"Atom({self.predicate.name!r}, {list(self.terms)!r})"

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate.name}({inner})"

    # -- schema-level helpers -------------------------------------------------

    def variables(self) -> Set[Variable]:
        """The set of variables occurring in this atom."""
        return {t for t in self.terms if isinstance(t, Variable)}

    def constants(self) -> Set[Constant]:
        """The set of constants occurring in this atom."""
        return {t for t in self.terms if isinstance(t, Constant)}

    def nulls(self) -> Set[Null]:
        """The set of labelled nulls occurring in this atom."""
        return {t for t in self.terms if isinstance(t, Null)}

    def is_ground(self) -> bool:
        """True iff the atom contains no variables (a fact)."""
        return all(is_ground(t) for t in self.terms)

    def positions_of(self, term: Term) -> Tuple[Position, ...]:
        """All positions at which ``term`` occurs in this atom."""
        return tuple(
            Position(self.predicate, i)
            for i, t in enumerate(self.terms)
            if t == term
        )

    def has_repeated_variables(self) -> bool:
        """True iff some variable occurs more than once."""
        seen: Set[Variable] = set()
        for t in self.terms:
            if isinstance(t, Variable):
                if t in seen:
                    return True
                seen.add(t)
        return False

    def substitute(self, mapping: Dict[Term, Term]) -> "Atom":
        """Apply ``mapping`` to the atom's terms (identity where absent)."""
        return Atom(self.predicate, [mapping.get(t, t) for t in self.terms])


def atoms_predicates(atoms: Iterable[Atom]) -> FrozenSet[Predicate]:
    """The set of predicates appearing in ``atoms``."""
    return frozenset(a.predicate for a in atoms)


# -- predicate interning ---------------------------------------------------

_PREDICATE_INTERN: Dict[Tuple[str, int], Predicate] = {}
_PREDICATE_LOCK = threading.Lock()


def intern_predicate(name: str, arity: int) -> Predicate:
    """The canonical :class:`Predicate` for ``(name, arity)``
    (thread-safe); unpickling funnels through this so schema objects
    stay deduplicated across pickle round-trips."""
    key = (name, arity)
    pred = _PREDICATE_INTERN.get(key)
    if pred is None:
        with _PREDICATE_LOCK:
            pred = _PREDICATE_INTERN.get(key)
            if pred is None:
                pred = Predicate(name, arity)
                _PREDICATE_INTERN[key] = pred
    return pred

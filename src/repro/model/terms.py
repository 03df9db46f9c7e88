"""Terms of the logical language: constants, variables, and labelled nulls.

The chase manipulates three kinds of terms:

* :class:`Constant` — values from the active domain of a database.
* :class:`Variable` — placeholders occurring in rule bodies and heads.
* :class:`Null` — labelled nulls invented by the chase for existentially
  quantified variables.  Nulls carry a monotonically increasing index so
  that "born earlier/later" comparisons (used by the termination
  machinery and by tests) are well defined.

All terms are immutable, hashable, and totally ordered within their own
kind, which keeps instances and homomorphisms deterministic.

Pickling (checkpoints and stores persist terms that another
interpreter reads back) deliberately does **not** use the default
slot-state protocol: every term caches its hash, and a cached ``_hash`` computed
under one interpreter's hash randomization is garbage under another's —
an unpickled term would be internally consistent but never collide with
an equal term built on the receiving side, silently breaking every
dict/set lookup.  Instead each class defines ``__reduce__`` to rebuild
through its constructor (recomputing the hash locally); constants and
variables additionally round-trip through ``threading.Lock``-guarded
intern tables, so unpickling N copies of the same name yields one
object.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Union


class Constant:
    """A constant value from the domain of a database.

    Constants compare equal iff their names are equal.  The name may be
    any hashable printable value; strings are the common case.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: object):
        self.name = name
        self._hash = hash(("Constant", name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Interned reconstruction: recomputes the hash on the receiving
        # interpreter and dedups repeated names.  Subclasses carrying
        # extra state (SkolemTerm) override this.
        return (intern_constant, (self.name,))

    def __lt__(self, other: "Constant") -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        return str(self.name) < str(other.name)

    def __repr__(self) -> str:
        return f"Constant({self.name!r})"

    def __str__(self) -> str:
        return str(self.name)


class Variable:
    """A universally or existentially quantified rule variable."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("Variable", name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (intern_variable, (self.name,))

    def __lt__(self, other: "Variable") -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name < other.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Null:
    """A labelled null invented by a chase step.

    ``index`` orders nulls by creation time; the chase engines guarantee
    that a null created later has a strictly larger index.  ``origin``
    optionally records which rule invented the null (for diagnostics).
    """

    __slots__ = ("index", "origin", "_hash")

    def __init__(self, index: int, origin: str = ""):
        self.index = index
        self.origin = origin
        self._hash = hash(("Null", index))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null) and self.index == other.index

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Not interned: nulls are per-run and their indices unbounded.
        return (Null, (self.index, self.origin))

    def __lt__(self, other: "Null") -> bool:
        if not isinstance(other, Null):
            return NotImplemented
        return self.index < other.index

    def __repr__(self) -> str:
        return f"Null({self.index})"

    def __str__(self) -> str:
        return f"z{self.index}"


Term = Union[Constant, Variable, Null]


# -- intern tables ---------------------------------------------------------
#
# Unpickling funnels through these so that N pickled copies of the same
# constant/variable collapse to one object per interpreter.  The tables
# are lock-guarded: the query server's worker threads may deserialize
# or parse at once, and check-then-set on a plain dict could hand out
# two distinct "canonical" objects.
# Only the canonical base classes are interned — subclasses (e.g. the
# MFA machinery's SkolemTerm) define their own ``__reduce__`` and never
# route here.

_CONSTANT_INTERN: Dict[object, Constant] = {}
_VARIABLE_INTERN: Dict[str, Variable] = {}
_INTERN_LOCK = threading.Lock()


def intern_constant(name: object) -> Constant:
    """The canonical :class:`Constant` for ``name`` (thread-safe)."""
    table = _CONSTANT_INTERN
    term = table.get(name)
    if term is None:
        with _INTERN_LOCK:
            term = table.get(name)
            if term is None:
                term = Constant(name)
                table[name] = term
    return term


def intern_variable(name: str) -> Variable:
    """The canonical :class:`Variable` for ``name`` (thread-safe)."""
    table = _VARIABLE_INTERN
    term = table.get(name)
    if term is None:
        with _INTERN_LOCK:
            term = table.get(name)
            if term is None:
                term = Variable(name)
                table[name] = term
    return term


class NullFactory:
    """Thread-safe factory handing out fresh :class:`Null` terms.

    Each chase run owns its own factory so null indices are reproducible
    run-to-run (the global chase never shares factories between runs).
    """

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def fresh(self, origin: str = "") -> Null:
        """Return a null with the next unused index.

        ``next()`` on an :mod:`itertools` counter is atomic under
        CPython, so the hot path takes no lock; the lock is kept for
        :meth:`reserve`-style extensions and documents the contract.
        """
        return Null(next(self._counter), origin)

    def fresh_many(self, n: int, origin: str = "") -> list:
        """Return ``n`` fresh nulls, ordered by index."""
        return [self.fresh(origin) for _ in range(n)]


def is_constant(term: Term) -> bool:
    """True iff ``term`` is a :class:`Constant`."""
    return isinstance(term, Constant)


def is_variable(term: Term) -> bool:
    """True iff ``term`` is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_null(term: Term) -> bool:
    """True iff ``term`` is a labelled :class:`Null`."""
    return isinstance(term, Null)


def is_ground(term: Term) -> bool:
    """True iff ``term`` may appear in an instance (constant or null)."""
    return isinstance(term, (Constant, Null))

"""Pretty-printing of rules, programs, instances, and answers.

The printed form round-trips through :mod:`repro.parser.parser` for
rules and databases (nulls print as ``z<i>`` and are not re-parseable,
which matches the usual convention that databases are null-free).

One quoting rule (:func:`term_text`) serves both renderers:
:func:`atom_to_text` over :class:`Atom` objects, and
:func:`id_rows_to_text` over answer rows of term ids, which reads each
term's text from the symbol table's append-only ``texts`` cache and so
never decodes an atom.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..model import Atom, Constant, Instance, TGD
from ..model.symbols import SymbolTable


def term_text(term: object) -> str:
    """One term as the parser reads it back: a constant that would not
    re-parse bare (empty, upper-case or ``_`` initial, or a character
    other than a letter, digit, ``_`` or ``-``) is single-quoted; any
    other term prints as ``str(term)``."""
    text = str(term)
    if isinstance(term, Constant) and (
        not text
        or text[0].isupper()
        or text[0] == "_"
        or not all(ch.isalnum() or ch in "_-" for ch in text)
    ):
        return f"'{text}'"
    return text


def atom_to_text(atom: Atom) -> str:
    """Render one atom, quoting constants that would not re-parse bare."""
    return f"{atom.predicate.name}({', '.join(map(term_text, atom.terms))})"


def id_rows_to_text(
    name: str, rows: Iterable[Sequence[int]], symbols: SymbolTable
) -> Iterator[str]:
    """``name(t1, ..., tn)`` for each row of term ids, in order: the
    text :func:`atom_to_text` gives the decoded atom, byte for byte.

    Each id's text comes from ``symbols.texts``, filled here on first
    sight.  The cache is shared by an instance and all its snapshots
    and is safe to fill from concurrent readers (see
    :class:`~repro.model.symbols.SymbolTable`).
    """
    texts = symbols.texts
    text_of = texts.__getitem__
    head = name + "("
    for ids in rows:
        try:
            body = ", ".join(map(text_of, ids))
        except KeyError:
            obj = symbols.obj
            for tid in ids:
                if tid not in texts:
                    texts[tid] = term_text(obj(tid))
            body = ", ".join(map(text_of, ids))
        yield head + body + ")"


def rule_to_text(rule: TGD) -> str:
    """Render one rule in the parser's syntax."""
    body = ", ".join(atom_to_text(a) for a in rule.body)
    head = ", ".join(atom_to_text(a) for a in rule.head)
    if rule.existential_variables:
        ex = ", ".join(sorted(v.name for v in rule.existential_variables))
        return f"{body} -> exists {ex} . {head}"
    return f"{body} -> {head}"


def program_to_text(rules: Iterable[TGD]) -> str:
    """Render a program, one rule per line."""
    return "\n".join(rule_to_text(r) for r in rules)


def instance_to_text(instance: Instance) -> str:
    """Render an instance, one fact per line, sorted for stability."""
    return "\n".join(sorted(atom_to_text(f) for f in instance))

"""The id-level answer renderer against the atom-level one.

``ConjunctiveQuery.answer_texts`` renders answers straight from term
ids through the symbol table's text cache; every line must equal
``atom_to_text`` of the decoded answer atom, over any mix of nulls and
constants that do or do not need quotes, and certain answers must keep
``certain_answers``' order.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.model import Atom, Constant, Instance, Null, Predicate
from repro.parser import atom_to_text, parse_database, parse_query
from repro.query.kernels import KERNELS

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Names that re-parse bare and names that need quotes: upper-case or
# "_" initial, empty, spaces, "-", digits, non-ASCII letters.
NAME_ALPHABET = "abzAZ_09 -.,()éßΩж"
constant_names = st.one_of(
    st.sampled_from(["", "a", "Abc", "_x", "a b", "a-b", "-a", "0", "42",
                     "é", "Ωmega", "naïve", "x_1", "it's"]),
    st.text(alphabet=NAME_ALPHABET, max_size=6),
)
terms = st.one_of(
    constant_names.map(Constant),
    st.integers(min_value=1, max_value=5).map(Null),
)


@st.composite
def instances_and_queries(draw):
    arity = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.lists(
        st.lists(terms, min_size=arity, max_size=arity),
        min_size=1, max_size=8,
    ))
    instance = Instance()
    predicate = Predicate("r", arity)
    for row in rows:
        instance.add(Atom(predicate, row))
    body = [f"X{i}" for i in range(arity)]
    head = draw(st.lists(st.sampled_from(body), min_size=1, max_size=3))
    name = draw(st.sampled_from(["q", "ans", "Q_1"]))
    query = parse_query(f"{name}({', '.join(head)}) :- "
                        f"r({', '.join(body)})")
    return instance, query


def atom_lines(query, answers):
    return [atom_to_text(Atom(Predicate(query.name, len(answer)), answer))
            for answer in answers]


@SETTINGS
@given(case=instances_and_queries())
def test_id_renderer_equals_atom_to_text(case):
    instance, query = case
    for kernel in KERNELS:
        naive = atom_lines(query, query.answers(instance, kernel=kernel))
        assert list(query.answer_texts(instance, kernel=kernel)) == naive
        certain = atom_lines(
            query, query.certain_answers(instance, kernel=kernel)
        )
        assert list(query.answer_texts(
            instance, certain=True, kernel=kernel
        )) == certain


@SETTINGS
@given(case=instances_and_queries(), more=st.lists(terms, max_size=4))
def test_snapshots_share_the_text_cache(case, more):
    instance, query = case
    snapshot = instance.snapshot()
    assert snapshot.symbols.texts is instance.symbols.texts
    before = list(query.answer_texts(snapshot))
    arity = len(query.atoms[0].terms)
    for term in more:
        instance.add(Atom(Predicate("r", arity), [term] * arity))
    # The cache filled over the snapshot serves the grown base, and the
    # snapshot still renders its own watermark.
    assert list(query.answer_texts(snapshot)) == before
    assert list(query.answer_texts(instance)) == atom_lines(
        query, query.answers(instance)
    )


def test_certain_answers_keep_str_order_not_text_order():
    # By str, "0" sorts before "A"; by rendered text, "'A'" sorts
    # before "0" (the quote is below the digits).
    instance = parse_database("r('A')\nr(0)")
    query = parse_query("q(X) :- r(X)")
    assert [str(a[0]) for a in query.certain_answers(instance)] == ["0", "A"]
    assert list(query.answer_texts(instance, certain=True)) == [
        "q(0)", "q('A')",
    ]
    assert sorted(query.answer_texts(instance)) == ["q('A')", "q(0)"]

"""Dependency graphs and the weak/rich acyclicity tests (§3.1).

* The **dependency graph** of Fagin, Kolaitis, Miller & Popa: vertices
  are the positions of the schema; for every TGD and every *frontier*
  variable ``x`` at body position ``p``:

  - a *regular* edge ``p -> q`` for every head position ``q`` of ``x``;
  - a *special* edge ``p => q`` for every head position ``q`` of every
    existential variable.

  **Weak acyclicity** (WA): no cycle goes through a special edge.

* The **extended dependency graph** of Hernich & Schweikardt differs in
  the special edges only: they start from the body positions of *every*
  universally quantified variable, not just frontier variables.

  **Rich acyclicity** (RA): no cycle of the extended graph goes through
  a special edge.  Since the extended graph has a superset of edges,
  RA ⊆ WA — exactly the inclusion the paper states.

Both tests return an optional :class:`DangerousCycle` witness; the
termination theorems for SL consume these directly (Theorem 1).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..model import Position, TGD
from .digraph import Digraph, Edge


class EdgeKind:
    """Edge labels of the (extended) dependency graph."""

    REGULAR = "regular"
    SPECIAL = "special"


class DependencyEdgeLabel:
    """Provenance of one dependency-graph edge: kind + originating rule."""

    __slots__ = ("kind", "rule")

    def __init__(self, kind: str, rule: TGD):
        self.kind = kind
        self.rule = rule

    def __repr__(self) -> str:
        return f"DependencyEdgeLabel({self.kind}, {self.rule})"


class DangerousCycle:
    """A cycle through at least one special edge — a WA/RA violation.

    ``edges`` is the cycle's edge list (target of the last edge equals
    the source of the first); ``special`` is one special edge on it.
    """

    __slots__ = ("edges", "special")

    def __init__(self, edges: Sequence[Edge], special: Edge):
        self.edges = tuple(edges)
        self.special = special

    def positions(self) -> Tuple[Position, ...]:
        """The positions visited by the cycle, in order."""
        return tuple(e.source for e in self.edges)

    def rules(self) -> Tuple[TGD, ...]:
        """The rules contributing the cycle's edges, in order."""
        return tuple(e.label.rule for e in self.edges)

    def __repr__(self) -> str:
        steps = " -> ".join(str(p) for p in self.positions())
        return f"DangerousCycle({steps} -> {self.edges[0].source})"


def dependency_graph(rules: Iterable[TGD]) -> Digraph:
    """The dependency graph of ``rules`` (weak-acyclicity graph)."""
    return _build(rules, extended=False)


def extended_dependency_graph(rules: Iterable[TGD]) -> Digraph:
    """The extended dependency graph of ``rules`` (rich-acyclicity
    graph)."""
    return _build(rules, extended=True)


def _build(rules: Iterable[TGD], extended: bool) -> Digraph:
    graph: Digraph = Digraph()
    # Nodes and edges are added in rule order, never in frozenset
    # order: the dangerous-cycle search returns the first cycle it
    # meets, so a hash-ordered build would vary the witness per process.
    for rule in rules:
        for atom in rule.body + rule.head:
            for pos in atom.predicate.positions():
                graph.add_node(pos)
        existential_positions: List[Position] = []
        for var in rule.existentials_sorted:
            existential_positions.extend(rule.head_positions_of(var))
        for var in sorted(rule.body_variables):
            body_positions = rule.body_positions_of(var)
            in_head = var in rule.frontier
            for p in body_positions:
                if in_head:
                    for q in rule.head_positions_of(var):
                        graph.add_edge(
                            p, q, DependencyEdgeLabel(EdgeKind.REGULAR, rule)
                        )
                if in_head or extended:
                    for q in existential_positions:
                        graph.add_edge(
                            p, q, DependencyEdgeLabel(EdgeKind.SPECIAL, rule)
                        )
    return graph


def find_dangerous_cycle(graph: Digraph) -> Optional[DangerousCycle]:
    """A cycle through a special edge, or ``None`` if none exists.

    A special edge lies on a cycle iff both endpoints are in the same
    strongly connected component; the witness path is completed by a
    BFS inside that component.
    """
    components = graph.strongly_connected_components()
    component_of = {}
    for comp in components:
        for node in comp:
            component_of[node] = frozenset(comp)
    for edge in graph.edges():
        if edge.label.kind != EdgeKind.SPECIAL:
            continue
        comp = component_of.get(edge.source)
        if comp is None or edge.target not in comp:
            continue
        if edge.target == edge.source:
            return DangerousCycle([edge], edge)
        back = graph.shortest_path(edge.target, edge.source, allowed=set(comp))
        if back is not None:
            return DangerousCycle([edge] + back, edge)
    return None


def is_weakly_acyclic(rules: Iterable[TGD]) -> bool:
    """Weak acyclicity test (Fagin et al.)."""
    return find_dangerous_cycle(dependency_graph(rules)) is None


def is_richly_acyclic(rules: Iterable[TGD]) -> bool:
    """Rich acyclicity test (Hernich & Schweikardt)."""
    return find_dangerous_cycle(extended_dependency_graph(rules)) is None


def weak_acyclicity_witness(rules: Iterable[TGD]) -> Optional[DangerousCycle]:
    """The dangerous cycle refuting weak acyclicity, if any."""
    return find_dangerous_cycle(dependency_graph(rules))


def rich_acyclicity_witness(rules: Iterable[TGD]) -> Optional[DangerousCycle]:
    """The dangerous cycle refuting rich acyclicity, if any."""
    return find_dangerous_cycle(extended_dependency_graph(rules))

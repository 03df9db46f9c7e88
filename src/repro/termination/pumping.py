"""Pumpable-cycle detection on the type-transition graph.

The semantic criterion (DESIGN.md §3.2–3.3): the (semi-)oblivious
chase of the critical instance is infinite iff the transition graph
admits an infinite walk every one of whose steps fires a *new* trigger.
An edge can repeat forever only if, each round, its trigger image
contains a *renewing* null — one re-created at bounded distance by an
existential on the walk itself; triggers whose images are eventually
constant re-fire an already-applied trigger, which the chase refuses.

The search runs per strongly connected component:

1. **Alive-edge fixpoint** — start with every intra-SCC edge; compute
   the classes renewable through alive edges (least fixpoint seeded by
   FRESH flow entries); kill edges whose trigger reads no renewable
   class; repeat until stable.  Every edge of the limit set of a real
   infinite walk survives this pruning, so an empty/acyclic result is
   a sound termination certificate.
2. **Exact walk verification** — a candidate cyclic walk is verified
   by tracing, for every step, the backward value flow of the trigger
   classes around the (infinitely repeated) walk: the step is live iff
   some trigger class reaches a FRESH source in finitely many steps.
   A fully live walk manufactures a round-fresh null in every trigger
   image; since nulls are globally unique, every round's triggers are
   distinct from all previous ones, on this path and on every other
   branch — an airtight non-termination witness.

Candidates: the shortest alive cycle, plus closed walks covering the
whole alive sub-SCC (compositions of cycles are needed in general —
two individually non-pumpable loops can sustain each other; see
``tests/test_pumping.py::test_mutually_sustaining_loops``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .abstraction import FRESH, BagType
from .saturation import ChildEdge
from .transitions import TransitionGraph


class PumpingWitness:
    """A cyclic walk witnessing non-termination.

    ``verified`` reports whether the exact per-walk flow analysis
    succeeded on this walk.  The alive-edge fixpoint alone already
    implies the existence of a pumpable composition; verification
    pins a concrete one (it succeeds on every input the test-suite and
    benchmarks exercise).
    """

    __slots__ = ("walk", "variant", "verified")

    def __init__(self, walk: Sequence[ChildEdge], variant: str, verified: bool):
        self.walk = list(walk)
        self.variant = variant
        self.verified = verified

    def rules(self) -> List:
        """The rules fired around the witness walk, in order."""
        return [edge.rule for edge in self.walk]

    def describe(self) -> str:
        """A printable summary of the witness."""
        steps = " ; ".join(
            edge.rule.label or f"rule{edge.rule_index}" for edge in self.walk
        )
        status = "verified" if self.verified else "fixpoint-only"
        return (
            f"non-termination witness ({self.variant}, {status}): "
            f"pump [{steps}]"
        )

    def __repr__(self) -> str:
        return f"PumpingWitness({self.describe()})"


def renewable_classes(
    edges: Sequence[ChildEdge],
) -> Dict[BagType, Set[int]]:
    """Least fixpoint of renewal through ``edges``: a class is
    renewable at a node if some edge flows FRESH into it, or flows a
    renewable class of the edge's source into it."""
    renewable: Dict[BagType, Set[int]] = {}
    changed = True
    while changed:
        changed = False
        for edge in edges:
            source_classes = renewable.get(edge.source, set())
            target_classes = renewable.setdefault(edge.target, set())
            for child_cls, src in edge.flow.items():
                if child_cls in target_classes:
                    continue
                if src == FRESH or src in source_classes:
                    target_classes.add(child_cls)
                    changed = True
    return renewable


def alive_edge_fixpoint(
    edges: Sequence[ChildEdge], variant: str
) -> List[ChildEdge]:
    """Iteratively remove edges whose trigger reads no renewable class
    until stable.  The surviving edges over-approximate the limit set
    of any infinite chase walk within the component."""
    alive = list(edges)
    while True:
        renewal = renewable_classes(alive)
        kept = [
            edge
            for edge in alive
            if edge.trigger_classes(variant) & renewal.get(edge.source, set())
        ]
        if len(kept) == len(alive):
            return kept
        alive = kept


def verify_cyclic_walk(
    walk: Sequence[ChildEdge], variant: str, num_constants: int
) -> bool:
    """Exact pumpability of a type-consistent cyclic walk.

    Position ``i`` is ``walk[i].source``; the walk must close up
    (``walk[i].target == walk[(i+1) % m].source``).  Returns True iff
    every step's trigger reads a class whose backward value flow around
    the repeated walk reaches a FRESH source.
    """
    m = len(walk)
    if m == 0:
        return False
    for i in range(m):
        if walk[i].target != walk[(i + 1) % m].source:
            raise ValueError("walk is not a closed, type-consistent cycle")

    def reaches_fresh(position: int, cls: int) -> bool:
        seen: Set[Tuple[int, int]] = set()
        pos, cur = position, cls
        while True:
            if cur < num_constants:
                return False
            if (pos, cur) in seen:
                return False
            seen.add((pos, cur))
            incoming = walk[(pos - 1) % m]
            src = incoming.flow.get(cur)
            if src is None:
                # A class of this bag that the incoming edge did not
                # create — impossible for type-consistent walks.
                return False
            if src == FRESH:
                return True
            pos = (pos - 1) % m
            cur = src

    for i, edge in enumerate(walk):
        trigger = edge.trigger_classes(variant)
        if not any(
            reaches_fresh(i, cls) for cls in trigger if cls >= num_constants
        ):
            return False
    return True


def _find_cycle(edges: Sequence[ChildEdge]) -> Optional[List[ChildEdge]]:
    """A shortest cycle among ``edges`` (BFS per edge), or ``None``."""
    out: Dict[BagType, List[ChildEdge]] = {}
    for edge in edges:
        out.setdefault(edge.source, []).append(edge)
    best: Optional[List[ChildEdge]] = None
    for edge in edges:
        if edge.target == edge.source:
            return [edge]
        path = _shortest_edge_path(out, edge.target, edge.source)
        if path is not None and (best is None or len(path) + 1 < len(best)):
            best = [edge] + path
    return best


def _shortest_edge_path(
    out: Dict[BagType, List[ChildEdge]],
    source: BagType,
    target: BagType,
) -> Optional[List[ChildEdge]]:
    if source == target:
        return []
    parents: Dict[BagType, ChildEdge] = {}
    seen: Set[BagType] = {source}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        for edge in out.get(node, ()):
            child = edge.target
            if child == target:
                path = [edge]
                back = node
                while back != source:
                    prev = parents[back]
                    path.append(prev)
                    back = prev.source
                path.reverse()
                return path
            if child not in seen:
                seen.add(child)
                parents[child] = edge
                queue.append(child)
    return None


def _covering_walks(
    edges: Sequence[ChildEdge], anchor: BagType
) -> List[List[ChildEdge]]:
    """Closed walks from ``anchor`` covering every edge at least once.

    Two edge orderings are produced (forward and reversed greedy),
    since pumpability of a composition can depend on the interleaving.
    """
    walks: List[List[ChildEdge]] = []
    for ordering in (list(edges), list(reversed(edges))):
        out: Dict[BagType, List[ChildEdge]] = {}
        for edge in ordering:
            out.setdefault(edge.source, []).append(edge)
        uncovered: Set[int] = set(range(len(ordering)))
        index_of = {id(edge): i for i, edge in enumerate(ordering)}
        walk: List[ChildEdge] = []
        current = anchor
        ok = True
        while uncovered:
            direct = next(
                (
                    edge
                    for edge in out.get(current, ())
                    if index_of[id(edge)] in uncovered
                ),
                None,
            )
            if direct is not None:
                walk.append(direct)
                uncovered.discard(index_of[id(direct)])
                current = direct.target
                continue
            hop: Optional[List[ChildEdge]] = None
            for target_idx in list(uncovered):
                candidate = ordering[target_idx]
                path = _shortest_edge_path(out, current, candidate.source)
                if path is not None:
                    hop = path + [candidate]
                    uncovered.discard(target_idx)
                    break
            if hop is None:
                ok = False
                break
            for edge in hop:
                uncovered.discard(index_of.get(id(edge), -1))
            walk.extend(hop)
            current = hop[-1].target
        if not ok:
            continue
        closing = _shortest_edge_path(out, current, anchor)
        if closing is None:
            continue
        walk.extend(closing)
        if walk:
            walks.append(walk)
    return walks


def find_pumping_witness(
    graph: TransitionGraph, variant: str
) -> Optional[PumpingWitness]:
    """Search every SCC for a pumpable cyclic walk.

    Returns a verified witness when possible; a fixpoint-only witness
    when the alive subgraph is cyclic but no enumerated candidate
    passed exact verification; ``None`` when every SCC's alive
    subgraph is acyclic (the termination case).
    """
    num_constants = graph.analysis.num_constants
    fallback: Optional[PumpingWitness] = None
    # Graph order, not set order: the witness search below tries
    # candidates in edge order, so a hash-ordered walk of a component
    # would print a different witness per process.
    position = {node: i for i, node in enumerate(graph.nodes)}
    for component in graph.strongly_connected_components():
        internal = [
            edge
            for node in sorted(component, key=position.__getitem__)
            for edge in graph.out_edges(node)
            if edge.target in component
        ]
        if not internal:
            continue
        alive = alive_edge_fixpoint(internal, variant)
        if not alive:
            continue
        cycle = _find_cycle(alive)
        if cycle is None:
            continue
        if verify_cyclic_walk(cycle, variant, num_constants):
            return PumpingWitness(cycle, variant, verified=True)
        anchor = cycle[0].source
        for candidate in _covering_walks(alive, anchor):
            if verify_cyclic_walk(candidate, variant, num_constants):
                return PumpingWitness(candidate, variant, verified=True)
        if fallback is None:
            fallback = PumpingWitness(cycle, variant, verified=False)
    return fallback

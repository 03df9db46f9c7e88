"""A minimal directed multigraph with labelled edges.

Self-contained (no third-party dependency) because the acyclicity tests
need only SCC computation and witness-path extraction, and keeping the
graph type local lets edges carry rule provenance for certificates.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

N = TypeVar("N", bound=Hashable)


class Edge(Generic[N]):
    """A directed edge with an opaque label (rule provenance etc.)."""

    __slots__ = ("source", "target", "label")

    def __init__(self, source: N, target: N, label: object = None):
        self.source = source
        self.target = target
        self.label = label

    def __repr__(self) -> str:
        return f"Edge({self.source!r} -> {self.target!r}, {self.label!r})"


class Digraph(Generic[N]):
    """Directed multigraph with deterministic iteration order."""

    def __init__(self) -> None:
        self._succ: Dict[N, List[Edge[N]]] = {}
        self._nodes: Dict[N, None] = {}

    def add_node(self, node: N) -> None:
        if node not in self._nodes:
            self._nodes[node] = None
            self._succ.setdefault(node, [])

    def add_edge(self, source: N, target: N, label: object = None) -> Edge[N]:
        self.add_node(source)
        self.add_node(target)
        edge = Edge(source, target, label)
        self._succ[source].append(edge)
        return edge

    def nodes(self) -> Tuple[N, ...]:
        return tuple(self._nodes)

    def edges(self) -> Iterator[Edge[N]]:
        for out in self._succ.values():
            yield from out

    def out_edges(self, node: N) -> Tuple[Edge[N], ...]:
        return tuple(self._succ.get(node, ()))

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # -- algorithms ----------------------------------------------------------

    def strongly_connected_components(self) -> List[Set[N]]:
        """Tarjan's algorithm, iterative (safe for deep graphs)."""
        index: Dict[N, int] = {}
        lowlink: Dict[N, int] = {}
        on_stack: Set[N] = set()
        stack: List[N] = []
        components: List[Set[N]] = []
        counter = 0

        for root in self._nodes:
            if root in index:
                continue
            work: List[Tuple[N, int]] = [(root, 0)]
            while work:
                node, edge_idx = work.pop()
                if edge_idx == 0:
                    index[node] = counter
                    lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                out = self._succ.get(node, [])
                for i in range(edge_idx, len(out)):
                    child = out[i].target
                    if child not in index:
                        work.append((node, i + 1))
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if recurse:
                    continue
                if lowlink[node] == index[node]:
                    component: Set[N] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return components

    def shortest_path(
        self,
        source: N,
        target: N,
        allowed: Optional[Set[N]] = None,
    ) -> Optional[List[Edge[N]]]:
        """BFS edge-path from ``source`` to ``target`` restricted to the
        ``allowed`` node set (both endpoints must be allowed)."""
        if allowed is not None and (source not in allowed or target not in allowed):
            return None
        parents: Dict[N, Edge[N]] = {}
        seen: Set[N] = {source}
        queue: deque = deque([source])
        while queue:
            node = queue.popleft()
            for edge in self._succ.get(node, ()):
                child = edge.target
                if allowed is not None and child not in allowed:
                    continue
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

    def reachable_from(self, sources: Iterable[N]) -> Set[N]:
        """All nodes reachable from ``sources`` (inclusive)."""
        seen: Set[N] = set()
        queue: deque = deque()
        for node in sources:
            if node in self._nodes and node not in seen:
                seen.add(node)
                queue.append(node)
        while queue:
            node = queue.popleft()
            for edge in self._succ.get(node, ()):
                if edge.target not in seen:
                    seen.add(edge.target)
                    queue.append(edge.target)
        return seen

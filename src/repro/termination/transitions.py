"""The type-transition graph of the guarded chase.

Nodes are saturated bag types reachable from the critical instance's
root bag; edges are bag-creating rule applications
(:class:`~repro.termination.saturation.ChildEdge`).  Non-termination
analysis (see :mod:`repro.termination.pumping`) happens on this finite
graph.

The graph is read off the saturation's worklist memo: the edges out
of a node are the children its last saturation pass built, in join
order, so building the graph runs no pattern join.  Nodes are visited
breadth first from the root and edges keep that order, which the
golden record ``tests/data/saturation_golden.json`` pins.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Set, Tuple

from .abstraction import BagType
from .saturation import ChildEdge, TypeAnalysis


class TransitionGraph:
    """Reachable saturated types + bag-creating transitions."""

    def __init__(self, analysis: TypeAnalysis):
        self.analysis = analysis
        self.root = analysis.root
        self.nodes: List[BagType] = []
        self.edges: List[ChildEdge] = []
        self._out: Dict[BagType, List[ChildEdge]] = {}
        self._build()

    def _build(self) -> None:
        self.analysis.saturate()
        seen: Set[BagType] = {self.root}
        queue: deque = deque([self.root])
        order: List[BagType] = []
        while queue:
            bag_type = queue.popleft()
            order.append(bag_type)
            out = self.analysis.child_edges(bag_type)
            self._out[bag_type] = out
            for edge in out:
                self.edges.append(edge)
                if edge.target not in seen:
                    seen.add(edge.target)
                    queue.append(edge.target)
        self.nodes = order

    def out_edges(self, bag_type: BagType) -> Sequence[ChildEdge]:
        """Transitions out of ``bag_type``."""
        return self._out.get(bag_type, ())

    def __len__(self) -> int:
        return len(self.nodes)

    # -- structure -------------------------------------------------------

    def strongly_connected_components(self) -> List[Set[BagType]]:
        """Tarjan over the transition graph (iterative)."""
        index: Dict[BagType, int] = {}
        lowlink: Dict[BagType, int] = {}
        on_stack: Set[BagType] = set()
        stack: List[BagType] = []
        components: List[Set[BagType]] = []
        counter = 0
        for root in self.nodes:
            if root in index:
                continue
            work: List[Tuple[BagType, int]] = [(root, 0)]
            while work:
                node, edge_idx = work.pop()
                if edge_idx == 0:
                    index[node] = counter
                    lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                out = self._out.get(node, [])
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
                    component: Set[BagType] = set()
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

    def stats(self) -> Dict[str, int]:
        """Size statistics for certificates and benchmarks.

        ``pattern_joins`` counts the body-vs-cloud joins the underlying
        saturation executed (edge discovery reuses them) — the work the
        worklist keeps from repeating.
        """
        return {
            "types": len(self.nodes),
            "edges": len(self.edges),
            "table_types": len(self.analysis.table),
            "constants": self.analysis.num_constants,
            "pattern_joins": self.analysis.pattern_joins,
        }

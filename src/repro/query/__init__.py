"""The unified query subsystem: cost-based, int-native planning and
execution for conjunctive queries, entailment, and chase discovery.

``repro.query`` owns the cost join order
(:func:`~repro.query.planner.order_for`) that CQ evaluation, head
probes and pattern joins use, and the int-native evaluation surface
(:class:`~repro.query.compiled.CompiledQuery`).  The object-level
:func:`repro.model.homomorphisms` API is unchanged and remains the
compatibility surface and differential-test oracle.
"""

from .compiled import CompiledQuery
from .kernels import KERNELS, choose_kernel, is_cyclic, numpy_active
from .planner import estimate_extension, order_atoms_cost, order_for

__all__ = [
    "KERNELS",
    "CompiledQuery",
    "choose_kernel",
    "estimate_extension",
    "is_cyclic",
    "numpy_active",
    "order_atoms_cost",
    "order_for",
]

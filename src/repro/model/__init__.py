"""The logical model: terms, atoms, rules, schemas, instances, and
homomorphisms.

Everything else in the library is built on these types.  The public
names re-exported here form the stable surface of the model layer.
"""

from .atoms import (
    Atom,
    Position,
    Predicate,
    atoms_predicates,
    intern_predicate,
)
from .homomorphism import (
    Assignment,
    apply_assignment,
    has_homomorphism,
    homomorphisms,
    instance_homomorphism,
    is_homomorphically_equivalent,
    match_atom,
    naive_homomorphisms,
)
from .instances import Database, Instance, union
from .joinplan import order_atoms
from .rules import (
    TGD,
    program_constants,
    program_predicates,
    validate_program,
)
from .schema import Schema
from .symbols import SymbolTable
from .terms import (
    Constant,
    Null,
    NullFactory,
    Term,
    Variable,
    intern_constant,
    intern_variable,
    is_constant,
    is_ground,
    is_null,
    is_variable,
)

__all__ = [
    "Assignment",
    "Atom",
    "Constant",
    "Database",
    "Instance",
    "Null",
    "NullFactory",
    "Position",
    "Predicate",
    "Schema",
    "SymbolTable",
    "TGD",
    "Term",
    "Variable",
    "apply_assignment",
    "atoms_predicates",
    "has_homomorphism",
    "homomorphisms",
    "instance_homomorphism",
    "intern_constant",
    "intern_predicate",
    "intern_variable",
    "is_constant",
    "is_ground",
    "is_homomorphically_equivalent",
    "is_null",
    "is_variable",
    "match_atom",
    "naive_homomorphisms",
    "order_atoms",
    "program_constants",
    "program_predicates",
    "union",
    "validate_program",
]

"""coisolab: a numerical laboratory for coisotropic deformations of the
zero section in the contact manifold T^5 x R^2.

Layers, bottom up: exact sparse Fourier-polynomial fields (`fields`), the
Cartan calculus of the trivialized line bundle (`dercalc`), the explicit
contact structure with its Jacobi bracket and flows (`contact`), the
coisotropicity PDE with obstruction functional and prolongation solver
(`coisotropy`), and characteristic-leaf tracing and classification
(`foliation`).  `verify` bundles the randomized identity suites and `cli`
exposes everything on the command line.
"""

from .fields import Field, Space, VectorField, ShapeError
from .dercalc import AtiyahForm, Derivation, Form, is_basic, pullback_reduction
from .contact import (ContactData, NondegeneracyError, PointDerivation,
                      contact_vector_field, flow_contact, hamiltonian_derivation,
                      hamiltonian_field, jacobi_bracket, jacobi_bracket_field,
                      omega_flat_matrix, standard_contact)
from .coisotropy import (PreconditionError, ProlongOptions, Section,
                         SolverReport, base_space, family_section, kuranishi,
                         linearized_residual, prolong, residual, xy_frame)
from .foliation import (CharFrame, LeafClass, LeafTrace, characteristic_frame,
                        classify_leaf_linear, integrality_scan,
                        involutivity_defect, trace_leaf)
from .integrate import StepSizeError

__version__ = "0.1.0"

__all__ = [
    "AtiyahForm", "CharFrame", "ContactData", "Derivation",
    "Field", "Form", "LeafClass", "LeafTrace", "NondegeneracyError",
    "PointDerivation", "PreconditionError", "ProlongOptions", "Section",
    "ShapeError", "SolverReport", "Space", "StepSizeError",
    "VectorField", "base_space",
    "characteristic_frame", "classify_leaf_linear", "contact_vector_field",
    "family_section", "flow_contact", "hamiltonian_derivation",
    "hamiltonian_field", "integrality_scan", "involutivity_defect",
    "is_basic", "jacobi_bracket", "jacobi_bracket_field", "kuranishi",
    "linearized_residual", "omega_flat_matrix", "prolong",
    "pullback_reduction", "residual", "standard_contact", "trace_leaf",
    "xy_frame",
]

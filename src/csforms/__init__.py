"""Transgression forms for characteristic classes on associated bundles.

Exact rational coefficient families, matrix Lie algebra splits, invariant
polynomials, point-evaluated exterior calculus, principal-bundle chart
models, and a bundle zoo with numerical verification of the transgression
identities d TP = P(Omega) and d PhiP = P(Omega) - P(Psi).
"""

from .rationals import (
    CoefficientTable,
    ConsistencyError,
    build_table_by_recursion,
    cs_coefficient,
    fiber_constant,
    phi_coefficient,
    verify_linear_relations,
)
from .liealg import (
    MatrixLieAlgebra,
    ReductiveSplit,
    so,
    so4_ideal_split,
    standard_split,
    u,
)
from .invariants import (
    InvariantPolynomial,
    invariance_identity_residual,
    make_polynomial,
    pfaffian,
    polarize_eval,
)
from .calculus import (
    FormField,
    ParametrizedChain,
    exterior_derivative,
    integrate,
    wedge,
)
from .bundles import (
    BundleChart,
    FiberModel,
    Section,
    bianchi_residuals,
    fiber_integral,
    heterotic_residual,
    obstruction_identity_check,
    phi_p_form,
)
from .zoo import (
    NamedBundle,
    PrecisionError,
    flat_bundle,
    frame_bundle_s4,
    frame_sphere,
    get_bundle,
    hopf_u1,
    quaternionic_section_degrees,
    twisted_u2,
    unit_tangent_s2,
    winding_degree,
)

__version__ = "0.1.0"

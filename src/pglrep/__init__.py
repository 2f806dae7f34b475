"""Exact invariants of surface-group representations in PGL(n, R).

Everything is computed over the rationals: Clifford-algebra lifts, matrix
certificates, finite-group orbit classification and integer polynomial
series.  See the README for the command-line surface.
"""

from .clifford import (
    CliffordElement,
    KernelElement,
    commutator_product,
    lift_factors,
    lift_orthogonal,
    spinor_commutator,
    twisted_conjugation_matrix,
    volume_element,
)
from .classify import (
    ComponentReport,
    FinAbGroup,
    GroupAction,
    LiftTarget,
    TwistedClass,
    classify_bundles,
    component_count,
    components_per_class,
    egl_component_counts,
    gamma_subgroup,
    invariant_classes,
    lifts_to,
    moduli_dimension,
    po_bundle_data,
    project_twisted,
    tensor_by_line_bundle,
    z0,
)
from .construct import PairKind, PairSpec, build_representation, catalogue_matrix, pair_for
from .linalg import OrthComponent, RatMatrix, commutator, component, reflection_vectors
from .poincare import IntPolynomial, poly_divexact, pt_sl3, pt_so3
from .surfrep import (
    InvariantClass,
    Mu2Value,
    RelationSign,
    SurfaceRep,
    delta1,
    delta2,
    invariants,
    tilde_delta,
)

__version__ = "0.1.0"

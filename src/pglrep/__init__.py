"""Exact invariants of surface-group representations in PGL(n, R).

Everything is computed over the rationals: Clifford-algebra lifts, matrix
certificates, finite-group orbit classification and integer polynomial
series.  See the README for the command-line surface.

Every CLI command is a new interpreter, so importing the package runs no
layer.  Each of the six library layers is registered in `sys.modules` and
set as an attribute here through `importlib.util.LazyLoader`, and is
compiled and run when one of its attributes is first read.  The names
below re-export layer attributes; `__getattr__` looks each one up in its
layer when it is asked for.  `Frozen`, the base of the value classes, is
in `pglrep.frozen`.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

_EXPORTS = {
    "clifford": (
        "CliffordElement",
        "KernelElement",
        "commutator_product",
        "lift_factors",
        "lift_orthogonal",
        "spinor_commutator",
        "twisted_conjugation_matrix",
        "volume_element",
    ),
    "classify": (
        "ComponentReport",
        "FinAbGroup",
        "GroupAction",
        "LiftTarget",
        "TwistedClass",
        "classify_bundles",
        "component_count",
        "components_per_class",
        "egl_component_counts",
        "gamma_subgroup",
        "invariant_classes",
        "lifts_to",
        "moduli_dimension",
        "po_bundle_data",
        "project_twisted",
        "tensor_by_line_bundle",
        "z0",
    ),
    "construct": ("PairKind", "build_representation", "catalogue_matrix", "pair_for"),
    "linalg": ("OrthComponent", "RatMatrix", "commutator", "component", "reflection_vectors"),
    "poincare": ("IntPolynomial", "poly_divexact", "pt_sl3", "pt_so3"),
    "surfrep": (
        "InvariantClass",
        "Mu2Value",
        "RelationSign",
        "SurfaceRep",
        "delta1",
        "delta2",
        "invariants",
        "tilde_delta",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = sorted(_LAYER_OF)


def _register(layer):
    spec = find_spec(f"{__name__}.{layer}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


linalg = _register("linalg")
clifford = _register("clifford")
surfrep = _register("surfrep")
construct = _register("construct")
classify = _register("classify")
poincare = _register("poincare")


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


__version__ = "0.1.0"

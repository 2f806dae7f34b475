"""Exact invariants of surface-group representations in PGL(n, R).

Everything is computed over the rationals: Clifford-algebra lifts, matrix
certificates, finite-group orbit classification and integer polynomial
series.  See the README for the command-line surface.

Every CLI command is a new interpreter, so importing the package runs no
layer.  Each of the seven library layers is registered in `sys.modules` and
set as an attribute here through `importlib.util.LazyLoader`, and is
compiled and run when one of its attributes is first read.  Each public name
has one import path, `pglrep.<layer>.<name>`; `Frozen`, the base of the
value classes, is in `pglrep.frozen`.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec


def _register(layer):
    spec = find_spec(f"{__name__}.{layer}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


linalg = _register("linalg")
spin = _register("spin")
clifford = _register("clifford")
surfrep = _register("surfrep")
construct = _register("construct")
classify = _register("classify")
poincare = _register("poincare")

__version__ = "0.1.0"

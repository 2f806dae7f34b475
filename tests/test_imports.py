"""What `import pglrep.cli` loads and which layers a CLI command runs: every
command is a new interpreter, so the import graph is most of its cost."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pglrep

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
LAYERS = ("linalg", "clifford", "surfrep", "construct", "classify", "poincare", "cli")


def test_cli_import_graph():
    # -S keeps site-packages and their .pth hooks out of the module set
    code = "import sys, json, pglrep.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    assert not loaded & {"dataclasses", "inspect", "typing"}
    # the benchmark's tracer reads every layer from sys.modules after this import
    assert {f"pglrep.{layer}" for layer in LAYERS} <= loaded


# the names the package re-exported when it imported every layer eagerly
EXPORTS = {
    "clifford": (
        "CliffordElement", "KernelElement", "commutator_product", "lift_factors",
        "lift_orthogonal", "spinor_commutator", "twisted_conjugation_matrix", "volume_element",
    ),
    "classify": (
        "ComponentReport", "FinAbGroup", "GroupAction", "LiftTarget", "TwistedClass",
        "classify_bundles", "component_count", "components_per_class", "egl_component_counts",
        "gamma_subgroup", "invariant_classes", "lifts_to", "moduli_dimension", "po_bundle_data",
        "project_twisted", "tensor_by_line_bundle", "z0",
    ),
    "construct": ("PairKind", "build_representation", "catalogue_matrix", "pair_for"),
    "linalg": ("OrthComponent", "RatMatrix", "commutator", "component", "reflection_vectors"),
    "poincare": ("IntPolynomial", "poly_divexact", "pt_sl3", "pt_so3"),
    "surfrep": (
        "InvariantClass", "Mu2Value", "RelationSign", "SurfaceRep", "delta1", "delta2",
        "invariants", "tilde_delta",
    ),
}

# Prints, as its last line, the modules of the package whose code ran: the
# audit hook sees each module body as it is passed to exec.
EXECUTED = """
import json, os, sys
ran = set()
def hook(event, args):
    if event == "exec" and os.path.dirname(getattr(args[0], "co_filename", "")) == {package!r}:
        ran.add(os.path.basename(args[0].co_filename).removesuffix(".py"))
sys.addaudithook(hook)
{body}
print(json.dumps(sorted(ran)))
"""


def executed_modules(body, *argv, cwd=None):
    """The module stems of src/pglrep whose code ran in `python -S -c body argv`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = EXECUTED.format(package=str(SRC / "pglrep"), body=body)
    out = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        env=env, cwd=cwd, capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


BASE = {"__init__", "cli", "frozen"}
COUNTING = BASE | {"surfrep", "classify"}
INVARIANTS = BASE | {"linalg", "clifford", "surfrep"}


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["--help"], {"__init__", "cli"}),
        (["poincare", "--w2", "1", "--genus", "2"], BASE | {"poincare"}),
        # an error row of cli._ERRORS names its class without running another layer
        (["poincare", "--w2", "0", "--genus", "2"], BASE | {"poincare"}),
        (["classify", "--genus", "2", "--n", "4"], COUNTING),
        (["components", "--genus", "2", "--n", "4"], COUNTING),
        (["egl-components", "--deg", "1", "--genus", "2", "--n", "6"], COUNTING),
        (["lift-check", "--mu1", "0000", "--mu2", "1"], COUNTING),
        (["bundle-classify", "--n", "6", "--mu1", "1000"], COUNTING),
        (["invariants", str(FIXTURES / "conjugated_omega.json")], INVARIANTS),
        (["construct", "--genus", "2", "--n", "4", "--mu1", "0110", "--mu2", "omega", "--out",
          "rep.json"], INVARIANTS | {"construct"}),
    ],
    ids=[
        "help", "poincare", "poincare-error", "classify", "components", "egl-components",
        "lift-check", "bundle-classify", "invariants", "construct",
    ],
)
def test_subcommand_executes_only_its_layers(tmp_path, argv, expected):
    body = "from pglrep import cli\ncli.main(sys.argv[1:])"
    assert executed_modules(body, *argv, cwd=tmp_path) == expected


def test_bare_import_executes_no_layer():
    # every library layer is registered all the same
    body = f"import pglrep\nassert all('pglrep.' + m in sys.modules for m in {tuple(EXPORTS)!r})"
    assert executed_modules(body) == {"__init__"}


@pytest.mark.parametrize("layer", sorted(EXPORTS))
def test_public_names_resolve_to_their_layer(layer):
    namespace = {}
    exec(f"from pglrep import {', '.join(EXPORTS[layer])}", namespace)
    module = importlib.import_module(f"pglrep.{layer}")
    for name in EXPORTS[layer]:
        assert namespace[name] is getattr(module, name), name


def test_all_lists_exactly_the_public_names():
    assert sorted(pglrep.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pglrep.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from pglrep import no_such_name", {})


def test_startup_times_script():
    # the start-up table of the README, run as shipped with one run per command
    script = SRC.parent / "scripts" / "startup_times.py"
    done = subprocess.run(
        [sys.executable, str(script), "--runs", "1"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.startswith("median wall ms of 1 fresh runs each") and len(rows) == 9
    (poincare,) = (row for row in rows if row.startswith("poincare "))
    assert poincare.endswith("  cli frozen poincare")
    (invariants,) = (row for row in rows if row.startswith("invariants "))
    assert invariants.endswith("  cli clifford frozen linalg surfrep")

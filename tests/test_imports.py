"""What `import pglrep.cli` loads and which layers a CLI command runs: every
command is a new interpreter, so the import graph is most of its cost."""

import importlib
import json
import os
import re
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
INVARIANTS = BASE | {"linalg", "spin", "surfrep"}


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
        # mu1 = 0: the spin obstruction runs, and the multivector algebra does not
        (["invariants", str(FIXTURES / "conjugated_omega.json")], INVARIANTS),
        (["construct", "--genus", "2", "--n", "4", "--mu1", "0000", "--mu2", "1", "--out",
          "rep.json"], INVARIANTS | {"construct"}),
        # mu1 != 0: the spin obstruction, the one use of spin, is not computed
        (["construct", "--genus", "2", "--n", "4", "--mu1", "0110", "--mu2", "omega", "--out",
          "rep.json"], INVARIANTS - {"spin"} | {"construct"}),
    ],
    ids=[
        "help", "poincare", "poincare-error", "classify", "components", "egl-components",
        "lift-check", "bundle-classify", "invariants", "construct-mu1-zero", "construct",
    ],
)
def test_subcommand_executes_only_its_layers(tmp_path, argv, expected):
    body = "from pglrep import cli\ncli.main(sys.argv[1:])"
    assert executed_modules(body, *argv, cwd=tmp_path) == expected


# certifies one representation through the library, without the CLI
CATALOGUE = """
from pglrep.construct import build_representation
from pglrep.surfrep import InvariantClass, Mu2Value
target = InvariantClass(tuple(map(int, sys.argv[1])), Mu2Value(sys.argv[2]))
assert build_representation(2, 4, target).invariant_class == target
"""
FROM_FILE = """
from pglrep.linalg import RatMatrix
from pglrep.surfrep import SurfaceRep
with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)
rep = SurfaceRep(doc["genus"], doc["n"], tuple(RatMatrix(rows) for rows in doc["generators"]))
assert (rep.invariant_class.mu1_string(), rep.invariant_class.mu2.value) == tuple(sys.argv[2:])
"""
CERTIFIED = {"__init__", "frozen", "linalg", "surfrep"}


@pytest.mark.parametrize(
    "body,argv,expected",
    [
        (CATALOGUE, ["0000", "1"], CERTIFIED | {"construct", "spin"}),
        (FROM_FILE, [str(FIXTURES / "conjugated_omega.json"), "0000", "omega"], CERTIFIED | {"spin"}),
        # mu1 != 0: neither the spinor walk nor the multivector algebra
        (CATALOGUE, ["0110", "omega"], CERTIFIED | {"construct"}),
    ],
    ids=["catalogue-mu1-zero", "conjugated-omega", "catalogue-mu1-nonzero"],
)
def test_certification_runs_spin_and_never_clifford(body, argv, expected):
    assert executed_modules(body, *argv) == expected


def test_bare_import_executes_no_layer():
    # every library layer is registered all the same
    layers = ("linalg", "spin", "clifford", "surfrep", "construct", "classify", "poincare")
    body = f"import pglrep\nassert all('pglrep.' + m in sys.modules for m in {layers!r})"
    assert executed_modules(body) == {"__init__"}


def test_each_name_has_one_import_path():
    # a public name is imported from its layer, never from the package
    with pytest.raises(ImportError, match="RatMatrix"):
        exec("from pglrep import RatMatrix", {})
    namespace = {}
    exec("from pglrep import surfrep\nfrom pglrep.linalg import RatMatrix", namespace)
    assert namespace["surfrep"] is importlib.import_module("pglrep.surfrep")
    assert namespace["RatMatrix"] is importlib.import_module("pglrep.linalg").RatMatrix


def test_readme_library_example():
    # the one documented use of the package namespace, run as written
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^## Library example\n\n```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(example, "README.md", "exec"), {})


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
    assert invariants.endswith("  cli frozen linalg spin surfrep")
    (construct,) = (row for row in rows if row.startswith("construct "))
    assert construct.endswith("  cli construct frozen linalg spin surfrep")

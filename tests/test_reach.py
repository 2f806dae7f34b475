"""Every `def` in src/pglrep is reached by a command, an acceptance criterion
or the benchmark, or has a written reason to stay.

DRIVE runs the nine acceptance criteria, the golden CLI runs, one `construct`
-> `invariants` round trip, `--help` and two of the CLI's error paths (a bad
argument and a rep file with a bad entry) in a fresh `python -S` interpreter,
with a `sys.settrace` hook installed before `import pglrep`, so neither warm
memos nor the order of the tests can change what it sees.  The hook is called
on each Python call only, and returns no local tracer.  Each code object it
saw is named by the AST qualified name of its `def`, from the module, the
first line and the name (`co_qualname` is new in Python 3.11).  A `def` that the
drive never enters must be in ALLOWED, with a one-line reason; an entry that
the drive does reach, or a reason left empty, fails the test too.  The methods
that the benchmark's tracer wraps by name (`_NAMED` in perfbench/spans.py)
need no entry of their own, but must still exist.

To keep a function that nothing reaches, add `"<module>.<qualname>": "<why>"`
to ALLOWED; otherwise delete it.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pglrep"
SPANS = ROOT / "perfbench" / "spans.py"

ALLOWED = {
    "frozen.Frozen.__setattr__": "the immutable-value idiom: refuses assignment",
    "frozen.Frozen.__delattr__": "the immutable-value idiom: refuses deletion",
    "frozen.Frozen.__repr__": "the immutable-value idiom: the default repr",
    "frozen.Frozen.__reduce__": "the immutable-value idiom: pickle and copy",
    "linalg.RatMatrix.__reduce__": "pickle and copy rebuild a matrix through _of",
    "clifford.CliffordElement.__reduce__": "pickle and copy rebuild an element through _of",
    "clifford.CliffordElement.terms": "the Fraction view that the tests and perfbench's clifford hook read",
    "linalg.RatMatrix.__repr__": "one of the three arithmetic reprs",
    "clifford.CliffordElement.__repr__": "one of the three arithmetic reprs",
    "poincare.IntPolynomial.__repr__": "one of the three arithmetic reprs",
    "poincare.IntPolynomial.degree": "criterion 8 reads it once pt_so3(0, g) has a source",
    "poincare.IntPolynomial.__call__": "criterion 8 reads it once pt_so3(0, g) has a source",
    "classify.tensor_by_line_bundle": "Stiefel-Whitney classes of V (x) L; ROADMAP item 15",
    "classify.moduli_dimension": "the Higgs moduli dimension 2 n^2 (g - 1) + 2; ROADMAP item 13",
    "classify.project_twisted": "the paper's projection of twisted classes; tested onto invariant_classes",
}

# Prints, as its last line, [module, first line, name] of every code object of
# src/pglrep that ran, and the criteria that failed.  The hook keeps every code
# object it sees, which is cheaper than testing each one's file as it runs.
DRIVE = r"""
import contextlib, io, json, os, sys
import hypothesis  # randmat's, loaded before the hook: it is not pglrep

entered = set()

def hook(frame, event, arg):
    # a global trace function sees only "call" events
    entered.add(frame.f_code)

sys.settrace(hook)
import pglrep.cli
import test_acceptance

package, fixtures = sys.argv[1:3]
failed = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for name in sorted(vars(test_acceptance)):
        if name.startswith("test_criterion_"):
            try:
                getattr(test_acceptance, name)()
            except Exception:
                failed.append(name)
    with open(os.path.join(fixtures, "cli_golden.json")) as fh:
        golden = json.load(fh)
    for record in golden:
        pglrep.cli.main([os.path.join(fixtures, a) if a.endswith(".json") else a
                         for a in record["argv"]])
    pglrep.cli.main(["construct", "--genus", "2", "--n", "4", "--mu1", "0000",
                     "--mu2", "omega", "--out", "rep.json"])
    pglrep.cli.main(["invariants", "rep.json"])
    pglrep.cli.main(["--help"])
    pglrep.cli.main(["classify", "--genus", "x"])
    with open("bad.json", "w") as fh:
        json.dump({"n": 4, "genus": 2, "generators": [[[1.5] * 4] * 4] * 4}, fh)
    pglrep.cli.main(["invariants", "bad.json"])
sys.settrace(None)
ran = sorted({(os.path.basename(c.co_filename)[:-3], c.co_firstlineno, c.co_name)
              for c in entered if os.path.dirname(c.co_filename) == package})
print(json.dumps({"entered": ran, "failed": failed}))
"""


def _defs(tree, prefix=""):
    """(qualified name, first line, name) of every def under tree; the first
    line of a decorated def's code object is that of its first decorator."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield name, first, node.name
            yield from _defs(node, name + ".")
        else:
            yield from _defs(node, prefix)


def _named():
    """The (layer, attribute) pairs of perfbench/spans.py's _NAMED, read from
    its source so that the benchmark is neither imported nor changed."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_NAMED"]:
            return [(layer, attr) for layer, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py has no _NAMED")


def _run_drive(tmp_path):
    # -S keeps site-packages off sys.path; the directory that holds hypothesis,
    # which randmat imports, goes back on it without its .pth files being run
    site = str(Path(hypothesis.__file__).resolve().parent.parent)
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"), site])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-S", "-c", DRIVE, str(PACKAGE), str(ROOT / "tests" / "fixtures")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_def_is_reached_or_has_a_reason(tmp_path):
    result = _run_drive(tmp_path)
    assert set(result["failed"]) <= {"test_criterion_8_poincare_series"}, result["failed"]
    entered = {tuple(x) for x in result["entered"]}
    never = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, first, name in _defs(ast.parse(path.read_text())):
            if (path.stem, first, name) not in entered:
                never.add(f"{path.stem}.{qualname}")
    named = {f"{layer}.{attr}" for layer, attr in _named()}
    assert [k for k, why in ALLOWED.items() if not why.strip()] == []
    assert sorted(never - named - ALLOWED.keys()) == [], "reached by nothing, with no reason"
    assert sorted(ALLOWED.keys() - never) == [], "allowed, but reached"


def test_benchmark_targets_exist():
    # the tracer reads each one from its owner's __dict__
    for layer, attr in _named():
        owner = importlib.import_module(f"pglrep.{layer}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert name in vars(owner), f"perfbench/spans.py names {layer}.{attr}"

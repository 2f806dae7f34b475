"""What `import pglrep.cli` loads: every CLI command is a new interpreter, so
the import graph is most of its cost."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
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

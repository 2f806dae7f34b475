#!/usr/bin/env python3
"""Subprocess wall time of CLI commands, and the pglrep modules each one runs.

Every pglrep command is a new interpreter, so its start-up is most of its
cost.  For each command below this starts `python -m pglrep.cli` fresh k
times, round-robin over the commands so that a slow spell of the host is
spread over all of them, and prints the median wall time in ms, from
process start to exit.  One further, untimed run of each command, with an
audit hook that sees every module body passed to exec, lists the pglrep
modules whose code ran (the package's own `__init__` is left out).  The
commands run in a temporary directory: `construct` writes the file that
`invariants` then reads.  Standard library only; run from anywhere:

    python3 scripts/startup_times.py --runs 31
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = (
    ("--help",),
    ("poincare", "--w2", "1", "--genus", "2"),
    ("classify", "--genus", "3", "--n", "6"),
    ("components", "--genus", "2", "--n", "4"),
    ("egl-components", "--deg", "1", "--genus", "2", "--n", "6"),
    ("lift-check", "--mu1", "0000", "--mu2", "1"),
    ("bundle-classify", "--n", "6", "--mu1", "1000"),
    ("construct", "--genus", "2", "--n", "6", "--mu1", "0000", "--mu2", "1", "--out", "rep.json"),
    ("invariants", "rep.json"),
)

# runs cli.main on sys.argv[1:], then prints the modules of the package whose
# code ran as its last line of stdout
PROBE = """
import json, os, sys
ran = set()
def hook(event, args):
    if event == "exec" and os.path.dirname(getattr(args[0], "co_filename", "")) == {package!r}:
        ran.add(os.path.basename(args[0].co_filename).removesuffix(".py"))
sys.addaudithook(hook)
from pglrep import cli
cli.main(sys.argv[1:])
print(json.dumps(sorted(ran - {{"__init__"}})))
"""


def run(argv, cwd, env):
    """Wall seconds of one child, which must exit 0, and its stdout."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited with {done.returncode}: {done.stderr}")
    return wall, done.stdout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=11, help="timed runs of each command")
    runs = parser.parse_args().runs
    if runs < 1:
        parser.error("--runs must be at least 1")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = PROBE.format(package=str(SRC / "pglrep"))
    walls = {command: [] for command in COMMANDS}
    with tempfile.TemporaryDirectory() as cwd:
        for _ in range(runs):
            for command in COMMANDS:
                wall, _ = run([sys.executable, "-m", "pglrep.cli", *command], cwd, env)
                walls[command].append(wall)
        modules = {}
        for command in COMMANDS:
            _, out = run([sys.executable, "-c", probe, *command], cwd, env)
            modules[command] = json.loads(out.splitlines()[-1])
    print(f"median wall ms of {runs} fresh runs each, Python {sys.version.split()[0]}")
    width = max(len(" ".join(command)) for command in COMMANDS)
    for command in COMMANDS:
        median_ms = statistics.median(walls[command]) * 1000
        print(f"{' '.join(command):{width}s} {median_ms:7.1f}  {' '.join(modules[command])}")


if __name__ == "__main__":
    main()

"""The three workloads: how each item is run against pglrep and how it is checked.

Each workload has

* ``generate(seed, workdir, limit)``: plain inputs from the seed (untimed);
* ``setup(inputs, root, workdir)``: the timed set-up that turns the inputs
  into program objects or files; it returns the list of items;
* ``call(item)``: the timed call into pglrep, returning its raw result;
* ``check(item, result)``: True when the result equals the answer the
  benchmark knows independently of pglrep.

pglrep is imported inside ``setup`` and looked up as a module attribute on
every call, so set-up time includes the import and a traced run sees the
wrapped functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import gen

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"
CHILD_TIMEOUT_S = 120


def _scaled_mix(mix, limit):
    if limit is None:
        return mix
    total = sum(count for *_, count in mix)
    return tuple((*head, max(1, count * limit // total)) for *head, count in mix)


# ---------------------------------------------------------------------------
# realize_all: build_representation, then invariants, for every class
# ---------------------------------------------------------------------------


class RealizeAll:
    name = "realize_all"

    def generate(self, seed, workdir, limit=None):
        return gen.realize_items(seed)[:limit]

    def setup(self, inputs, root, workdir):
        from pglrep import surfrep

        return [
            (g, n, surfrep.InvariantClass(mu1, surfrep.Mu2Value(mu2)), mu1, mu2)
            for g, n, mu1, mu2 in inputs
        ]

    def call(self, item):
        from pglrep import construct, surfrep

        g, n, target, _, _ = item
        return surfrep.invariants(construct.build_representation(g, n, target))

    def check(self, item, result):
        _, _, _, mu1, mu2 = item
        return tuple(result.mu1) == tuple(mu1) and result.mu2.value == mu2


# ---------------------------------------------------------------------------
# generic_invariants: invariants of seeded representations off the catalogue
# ---------------------------------------------------------------------------


class GenericInvariants:
    name = "generic_invariants"

    def generate(self, seed, workdir, limit=None):
        return gen.generic_items(seed, _scaled_mix(gen.GENERIC_MIX, limit))[:limit]

    def setup(self, inputs, root, workdir):
        from pglrep import linalg

        return [
            (g, n, tuple(linalg.RatMatrix(m) for m in gens), mu1, mu2)
            for g, n, gens, mu1, mu2 in inputs
        ]

    def call(self, item):
        from pglrep import surfrep

        g, n, mats, _, _ = item
        return surfrep.invariants(surfrep.SurfaceRep(g, n, mats))

    check = RealizeAll.check


# ---------------------------------------------------------------------------
# cli_session: sequential `python -m pglrep.cli` commands
# ---------------------------------------------------------------------------


class CliResult:
    __slots__ = ("code", "stdout", "stderr", "maxrss_kb")

    def __init__(self, code, stdout, stderr, maxrss_kb=0):
        self.code, self.stdout, self.stderr, self.maxrss_kb = code, stdout, stderr, maxrss_kb


class _ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _ChildTimeout()


class CliSession:
    """Runs each command as a fresh subprocess, or in-process when traced."""

    name = "cli_session"

    def __init__(self, in_process=False):
        self.in_process = in_process

    def generate(self, seed, workdir, limit=None):
        return gen.cli_session(seed, workdir, limit)

    def setup(self, inputs, root, workdir):
        files, commands = inputs
        (root / workdir / "cli").mkdir(parents=True, exist_ok=True)
        for path, text in files.items():
            (root / path).write_text(text, encoding="utf-8")
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.out_path = root / workdir / "cli" / f"stdout-{os.getpid()}"
        self.err_path = root / workdir / "cli" / f"stderr-{os.getpid()}"
        self.digests = json.loads(DIGESTS.read_text())
        if self.in_process:
            if str(root / "src") not in sys.path:
                sys.path.insert(0, str(root / "src"))
            import pglrep.cli  # noqa: F401
        return commands

    def call(self, item):
        if self.in_process:
            return self._call_in_process(item["argv"])
        return self.run_child([sys.executable, "-m", "pglrep.cli", *item["argv"]])

    def _call_in_process(self, argv):
        from pglrep import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliResult(code, out.getvalue().encode(), err.getvalue().encode())

    def run_child(self, argv):
        """Run argv from the checkout root, the working directory of every run.

        os.wait4 reports the child's own peak RSS, which subprocess drops.
        """
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            previous = signal.signal(signal.SIGALRM, _alarm)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _ChildTimeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return CliResult(proc.returncode, out.read(), err.read(), usage.ru_maxrss)

    def check(self, item, result):
        if result.code != item["expect"] or b"Traceback" in result.stderr:
            return False
        if self.digests is not None and self.digests.get(item["key"]) != digest(result.stdout):
            return False
        if item["check"] is None:
            return True
        kind, *params = item["check"]
        if kind == "construct":
            return (self.root / params[0]).is_file()
        try:
            return CLOSED_FORMS[kind](_parse(result.stdout, item["argv"]), *params)
        except (KeyError, ValueError, IndexError):
            return False


def digest(stdout):
    return hashlib.sha256(stdout).hexdigest()


def _parse(stdout, argv):
    """The command's output as a dict: the JSON payload, or `key: value` /
    `key = value` lines of the text format."""
    text = stdout.decode("utf-8")
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return json.loads(text)
    fields = {}
    for line in text.splitlines():
        for sep in (" = ", ": "):
            if sep in line:
                key, value = line.split(sep, 1)
                fields[key] = value
                break
    return fields


# ---------------------------------------------------------------------------
# Closed forms the benchmark computes itself
# ---------------------------------------------------------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poincare_numerator(g, w2=1):
    """(1 + t^3)^2g - (1 + t)^2g t^(2g + 2 - 2 w2), coefficients by degree."""
    first = _poly_pow([1, 0, 0, 1], 2 * g)
    second = [0] * (2 * g + 2 - 2 * w2) + _poly_pow([1, 1], 2 * g)
    size = max(len(first), len(second))
    first += [0] * (size - len(first))
    second += [0] * (size - len(second))
    return _trim(x - y for x, y in zip(first, second))


def _coeffs(value):
    return [int(c) for c in value.split()] if isinstance(value, str) else [int(c) for c in value]


def check_poincare(out, g):
    so3, sl3 = _coeffs(out["so3"]), _coeffs(out["sl3"])
    times_den = _poly_mul(_poly_mul(so3, [1, 0, -1]), [1, 0, 0, 0, -1])
    return _trim(times_den) == poincare_numerator(g) and so3 == sl3


def check_classify(out, g):
    want = 2 ** (2 * g + 1) + 1
    if "count" in out:
        return out["count"] == want and len(out["classes"]) == want
    return int(out["classes"]) == want


def check_components(out, g):
    return int(out["total"]) == 2 ** (2 * g + 1) + 2


def check_egl(out, g, deg):
    if deg == 0:
        want = (2 ** (2 * g) + 2, 2 ** (2 * g + 1) + 1)
    else:
        want = (2 ** (2 * g), 2 ** (2 * g))
    return (int(out["total"]), int(out["fibre_total"])) == want


def check_lift(out, mu1, mu2):
    if "0" * len(mu1) == mu1:
        want = {"SO": mu2 in ("0", "1"), "Spin": mu2 == "0"}
    else:
        want = {"O": mu2 == "0", "Pin": mu2 == "0"}
    got = out["lifts"] if "lifts" in out else {k: out[k] == "yes" for k in want}
    return got == want


def check_invariants(out, mu1, mu2):
    return out["mu1"] == mu1 and out["mu2"] == mu2


CLOSED_FORMS = {
    "poincare": check_poincare,
    "classify": check_classify,
    "components": check_components,
    "egl": check_egl,
    "lift": check_lift,
    "invariants": check_invariants,
}

WORKLOADS = {w.name: w for w in (RealizeAll, GenericInvariants, CliSession)}

"""Command-line interface with machine-readable, byte-stable output.

Representation files are JSON documents with keys n, genus and generators;
matrix entries are integers or exact "p/q" strings (floats are rejected, the
boundary stays exact).  Exit codes: 1 parse error, bad arguments or an
output file that cannot be written, 2 a generator is not orthogonal, 3 the
surface relation fails, 4 an invalid invariant class was requested.  Errors
reach an exit code only through the table _ERRORS, read by main.

Each command runs the library layers it uses and no other: nothing here
reads a layer attribute at import time, and the package registers its
layers lazily, so a layer runs only when a command first reads from it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from . import classify, construct, linalg, poincare, surfrep

EXIT_PARSE = 1
EXIT_NOT_ORTHOGONAL = 2
EXIT_RELATION = 3
EXIT_INVALID_CLASS = 4

# the spin obstruction works mod p^(v+1), where p^v divides the product of
# the reflection norms, so crafted n = 16 files whose every norm p^3 divides
# take 0.85 s at genus 32, 2.4 s at genus 48 and 4.9 s at genus 64; construct
# refuses a larger genus too, so every file it writes can be read back
MAX_FILE_GENUS = 32


class CliError(ValueError):
    """A parse or usage error whose message carries its own prefix."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the documented code is 1
    def error(self, message):
        raise CliError(f"{self.prog}: error: {message}")


# ---------------------------------------------------------------------------
# Representation files
# ---------------------------------------------------------------------------


def _check_entry(value: object, where: str) -> None:
    if isinstance(value, bool):
        raise CliError(f"parse error: boolean entry in {where}")
    if not isinstance(value, (int, str)):
        raise CliError(f"parse error: entry in {where} must be an integer or 'p/q' string")
    try:
        linalg.RatMatrix([[value]])
    except (ValueError, ZeroDivisionError):
        raise CliError(f"parse error: bad rational {value!r} in {where}") from None


def _fraction_to_entry(value) -> int | str:
    return int(value) if value.denominator == 1 else str(value)


def read_rep_file(path: str) -> surfrep.SurfaceRep:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"parse error: cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # also bad UTF-8, integers past the digit limit and deep nesting
        raise CliError(f"parse error: {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise CliError("parse error: top-level document must be an object")
    n, genus, generators = (doc.get(key) for key in ("n", "genus", "generators"))
    # bool is a subclass of int; a float such as 4.5 is refused, not truncated
    if "generators" not in doc or any(
        not isinstance(v, int) or isinstance(v, bool) for v in (n, genus)
    ):
        raise CliError("parse error: need integer keys n, genus and a generators array")
    if n > linalg.MAX_DIM:
        raise CliError(f"parse error: n = {n} exceeds the supported maximum {linalg.MAX_DIM}")
    if genus > MAX_FILE_GENUS:
        raise CliError(f"parse error: genus = {genus} exceeds the supported maximum {MAX_FILE_GENUS}")
    surfrep.check_genus_and_n(genus, n)
    if not isinstance(generators, list) or len(generators) != 2 * genus:
        raise CliError(f"parse error: expected {2 * genus} generator matrices")
    matrices = []
    for k, rows in enumerate(generators):
        label = surfrep.generator_label(k)
        if not isinstance(rows, list) or len(rows) != n or any(
            not isinstance(row, list) or len(row) != n for row in rows
        ):
            raise CliError(f"parse error: generator {label} is not {n}x{n}")
        try:
            matrices.append(linalg.RatMatrix(rows))
        except (TypeError, ValueError, ZeroDivisionError):
            # of the entries JSON can hold, RatMatrix takes just the ones
            # _check_entry passes (ints and "p/q" strings) and stops at the
            # first other one; walk the rows again to name it
            for row in rows:
                for x in row:
                    _check_entry(x, f"generator {label}")
            raise
    return surfrep.SurfaceRep(genus, n, tuple(matrices))


def write_rep_file(path: str, rep: surfrep.SurfaceRep) -> None:
    # one matrix row per line keeps the files reviewable by eye
    blocks = []
    for m in rep.gens:
        rows = ",\n   ".join(
            json.dumps([_fraction_to_entry(x) for x in row]) for row in m.rows
        )
        blocks.append(f"  [\n   {rows}\n  ]")
    body = ",\n".join(blocks)
    text = (
        "{\n"
        f' "n": {rep.n},\n'
        f' "genus": {rep.genus},\n'
        f' "generators": [\n{body}\n ]\n'
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Shared argument helpers
# ---------------------------------------------------------------------------


def _parse_mu1(text: str, genus: int | None = None) -> tuple[int, ...]:
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"mu1 must be a bit string, got {text!r}")
    bits = tuple(int(c) for c in text)
    if genus is not None and len(bits) != 2 * genus:
        raise ValueError(f"mu1 must have length {2 * genus} for genus {genus}")
    if genus is None:
        surfrep.check_mu1_length(ValueError, bits)
    return bits


# the values of surfrep.Mu2Value, copied so that importing the CLI runs no layer
_MU2_TOKENS = ("0", "1", "omega")


def _emit(args, payload: dict, text_lines: list[str]) -> int:
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        for line in text_lines:
            print(line)
    return 0


def _table(rows: list[dict], footer: dict) -> list[str]:
    """A header of the row keys, one line of values per row, then the footer."""
    lines = [" ".join(rows[0])]
    lines += [" ".join("-" if v is None else str(v) for v in row.values()) for row in rows]
    return lines + [f"{key}: {value}" for key, value in footer.items()]


def _joined(payload: dict, *keys: str) -> list[str]:
    return [f"{key}: " + " ".join(str(v) for v in payload[key]) for key in keys]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> int:
    rep = read_rep_file(args.path)
    d1 = surfrep.delta1(rep)
    cls = surfrep.invariants(rep)
    payload = {"delta1": "".join(str(b) for b in d1), "delta2": surfrep.delta2(rep).value}
    if not any(d1):
        # with delta1 = 0, mu2 is tilde_delta itself
        payload["tilde_delta"] = cls.mu2.value
    payload["mu1"] = cls.mu1_string()
    payload["mu2"] = cls.mu2.value
    return _emit(args, payload, [f"{key} = {value}" for key, value in payload.items()])


def cmd_construct(args) -> int:
    surfrep.check_genus(ValueError, args.genus)
    if args.genus > MAX_FILE_GENUS:
        raise ValueError(f"genus = {args.genus} exceeds the supported maximum {MAX_FILE_GENUS}")
    bits = _parse_mu1(args.mu1, args.genus)
    target = surfrep.InvariantClass(bits, surfrep.Mu2Value(args.mu2))
    rep = construct.build_representation(args.genus, args.n, target)
    write_rep_file(args.out, rep)
    payload = {
        "path": args.out,
        "genus": args.genus,
        "n": args.n,
        "mu1": target.mu1_string(),
        "mu2": target.mu2.value,
    }
    summary = "g={genus}, n={n}, mu1={mu1}, mu2={mu2}".format(**payload)
    return _emit(args, payload, [f"wrote {args.out} ({summary})"])


def cmd_classify(args) -> int:
    classes = classify.invariant_classes(args.genus, args.n)
    rows = [{"mu1": cls.mu1_string(), "mu2": cls.mu2.value} for cls in classes]
    payload = {"classes": rows, "count": len(rows)}
    return _emit(args, payload, _table(rows, {"classes": len(rows)}))


def cmd_components(args) -> int:
    rows = [
        {"mu1": cls.mu1_string(), "mu2": cls.mu2.value, "components": count}
        for cls, count in classify.components_by_class(args.genus, args.n)
    ]
    payload = {"per_class": rows, "total": sum(row["components"] for row in rows)}
    return _emit(args, payload, _table(rows, {"total": payload["total"]}))


def cmd_egl_components(args) -> int:
    report = classify.egl_component_counts(args.deg, args.genus, args.n)
    rows = [
        {
            "mu1bar": "".join(str(b) for b in cls.mu1bar),
            "w2": cls.w2,
            "deg": cls.deg,
            "components": mult,
            "fibre_components": fibre,
        }
        for cls, mult, fibre in report.entries
    ]
    totals = {"total": report.total, "fibre_total": report.fibre_total}
    payload = {"deg": report.deg, "per_class": rows, **totals}
    return _emit(args, payload, _table(rows, totals))


def cmd_poincare(args) -> int:
    payload = {
        "w2": args.w2,
        "genus": args.genus,
        "so3": list(poincare.pt_so3(args.w2, args.genus).coeffs),
        "sl3": list(poincare.pt_sl3(args.w2, args.genus).coeffs),
    }
    lines = ["coefficients by ascending degree", *_joined(payload, "so3", "sl3")]
    return _emit(args, payload, lines)


def cmd_lift_check(args) -> int:
    cls = surfrep.InvariantClass(_parse_mu1(args.mu1), surfrep.Mu2Value(args.mu2))
    lift = classify.LiftTarget
    targets = (lift.SO, lift.SPIN) if cls.mu1_is_zero else (lift.O, lift.PIN)
    lifts = {target.value: classify.lifts_to(cls, target) for target in targets}
    payload = {"mu1": cls.mu1_string(), "mu2": cls.mu2.value, "lifts": lifts}
    return _emit(args, payload, [f"{key}: {'yes' if ok else 'no'}" for key, ok in lifts.items()])


_DISPLAY_ORDER = {"0": 0, "1": 1, "omega": 2, "-omega": 3}


def cmd_bundle_classify(args) -> int:
    bits = _parse_mu1(args.mu1)
    action = classify.po_bundle_data(args.n)
    image = list(action.pi0.elements()) if any(bits) else [action.pi0.zero()]

    def labels(elements) -> list[str]:
        names = (classify.po_kernel_label(args.n, v) for v in elements)
        return sorted(names, key=_DISPLAY_ORDER.__getitem__)

    payload = {
        "n": args.n,
        "pi1": " x ".join(f"Z{k}" for k in action.pi1.orders),
        "mu1_zero": not any(bits),
        "gamma": labels(classify.gamma_subgroup(action, image)),
        "classes": labels(classify.classify_bundles(action, image)),
    }
    return _emit(args, payload, [f"pi1: {payload['pi1']}", *_joined(payload, "gamma", "classes")])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pglrep",
        description="Exact invariants of surface-group representations in PGL(n, R)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("invariants", cmd_invariants, "compute the invariants of a representation file")
    p.add_argument("path", help="representation JSON file")

    p = add("construct", cmd_construct, "build a representation with prescribed invariants")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu1", required=True, help="bit string of length 2*genus")
    p.add_argument("--mu2", choices=_MU2_TOKENS, required=True)
    p.add_argument("--out", required=True, help="output representation file")

    p = add("classify", cmd_classify, "enumerate all invariant classes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("components", cmd_components, "per-class and total component counts")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("egl-components", cmd_egl_components, "extended-linear moduli component counts")
    p.add_argument("--deg", type=int, choices=(0, 1), required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("poincare", cmd_poincare, "Poincare polynomial coefficients (rank 3)")
    p.add_argument("--w2", type=int, choices=(0, 1), required=True)
    p.add_argument("--genus", type=int, required=True)

    p = add("lift-check", cmd_lift_check, "covering-lift predicates for a class")
    p.add_argument("--mu1", required=True, help="bit string of length 2g")
    p.add_argument("--mu2", choices=_MU2_TOKENS, required=True)

    p = add("bundle-classify", cmd_bundle_classify, "run the general bundle classifier")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu1", required=True, help="bit string of length 2g")

    return parser


# Library errors by exit code and stderr prefix, keyed by the class's module
# and name so that no layer runs just to name its errors.  The row of the
# first class in the exception's MRO wins, so the most specific row does.
_ERRORS = {
    # under python -m pglrep.cli this module, and so the key, is __main__'s
    f"{__name__}.CliError": (EXIT_PARSE, ""),
    "pglrep.linalg.NotOrthogonal": (EXIT_NOT_ORTHOGONAL, "not orthogonal: "),
    "pglrep.surfrep.RelationViolated": (EXIT_RELATION, "relation violated: "),
    "pglrep.surfrep.InvalidClass": (EXIT_INVALID_CLASS, "invalid class: "),
    "pglrep.linalg.BadShape": (EXIT_PARSE, "parse error: "),
    "pglrep.poincare.NotDivisible": (EXIT_PARSE, "error: series is not an exact quotient: "),
    "builtins.ValueError": (EXIT_PARSE, "error: "),
    "builtins.OSError": (EXIT_PARSE, "error: "),  # an --out path that cannot be written
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (ValueError, OSError) as exc:  # the two base rows of _ERRORS
        names = (f"{kind.__module__}.{kind.__qualname__}" for kind in type(exc).__mro__)
        code, prefix = next(_ERRORS[name] for name in names if name in _ERRORS)
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

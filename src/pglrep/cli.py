"""Command-line interface with machine-readable, byte-stable output.

Representation files are JSON documents with keys n, genus and generators;
matrix entries are integers or exact "p/q" strings (floats are rejected, the
boundary stays exact).  Exit codes: 1 parse error or bad arguments, 2 a
generator is not orthogonal, 3 the surface relation fails, 4 an invalid
invariant class was requested.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import classify, construct, poincare, surfrep
from .clifford import MAX_DIM
from .linalg import BadShape, NotOrthogonal, RatMatrix
from .surfrep import (
    InvalidClass,
    InvariantClass,
    Mu2Value,
    RelationViolated,
    SurfaceRep,
    generator_label,
)

EXIT_PARSE = 1
EXIT_NOT_ORTHOGONAL = 2
EXIT_RELATION = 3
EXIT_INVALID_CLASS = 4

# the spin obstruction works mod p^(v+1), where p^v divides the product of
# the reflection norms, so crafted n = 16 files whose every norm p^3 divides
# take 0.85 s at genus 32, 2.4 s at genus 48 and 4.9 s at genus 64
MAX_FILE_GENUS = 32


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the documented code is 1
    def error(self, message):
        raise CliError(EXIT_PARSE, f"{self.prog}: error: {message}")


# ---------------------------------------------------------------------------
# Representation files
# ---------------------------------------------------------------------------


# Fraction() alone would also take "1e10000000", " 1", "0.5" and "1_0", and
# an exponent costs time without bound; only integers and "p/q" are documented
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _entry_to_fraction(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise CliError(EXIT_PARSE, f"parse error: boolean entry in {where}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if _RATIONAL.fullmatch(value):
                return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
        raise CliError(EXIT_PARSE, f"parse error: bad rational {value!r} in {where}")
    raise CliError(
        EXIT_PARSE, f"parse error: entry in {where} must be an integer or 'p/q' string"
    )


def _fraction_to_entry(value: Fraction) -> int | str:
    return int(value) if value.denominator == 1 else str(value)


def read_rep_file(path: str) -> SurfaceRep:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"parse error: cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # also bad UTF-8, integers past the digit limit and deep nesting
        raise CliError(EXIT_PARSE, f"parse error: {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise CliError(EXIT_PARSE, "parse error: top-level document must be an object")
    n, genus, generators = (doc.get(key) for key in ("n", "genus", "generators"))
    # bool is a subclass of int; a float such as 4.5 is refused, not truncated
    if "generators" not in doc or any(
        not isinstance(v, int) or isinstance(v, bool) for v in (n, genus)
    ):
        raise CliError(EXIT_PARSE, "parse error: need integer keys n, genus and a generators array")
    if n > MAX_DIM:
        raise CliError(EXIT_PARSE, f"parse error: n = {n} exceeds the supported maximum {MAX_DIM}")
    if genus > MAX_FILE_GENUS:
        raise CliError(
            EXIT_PARSE, f"parse error: genus = {genus} exceeds the supported maximum {MAX_FILE_GENUS}"
        )
    if not isinstance(generators, list) or len(generators) != 2 * genus:
        raise CliError(
            EXIT_PARSE, f"parse error: expected {2 * genus} generator matrices"
        )
    matrices = []
    try:
        for k, rows in enumerate(generators):
            label = generator_label(k)
            if not isinstance(rows, list) or len(rows) != n or any(
                not isinstance(row, list) or len(row) != n for row in rows
            ):
                raise CliError(EXIT_PARSE, f"parse error: generator {label} is not {n}x{n}")
            matrices.append(
                RatMatrix(
                    [[_entry_to_fraction(x, f"generator {label}") for x in row] for row in rows]
                )
            )
        return SurfaceRep(genus, n, tuple(matrices))
    except NotOrthogonal as exc:
        raise CliError(EXIT_NOT_ORTHOGONAL, f"not orthogonal: {exc}")
    except RelationViolated as exc:
        raise CliError(EXIT_RELATION, f"relation violated: {exc}")
    except BadShape as exc:  # n = 0, n odd or below 4, genus below 2
        raise CliError(EXIT_PARSE, f"parse error: {exc}")


def write_rep_file(path: str, rep: SurfaceRep) -> None:
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
        raise CliError(EXIT_PARSE, f"error: mu1 must be a bit string, got {text!r}")
    bits = tuple(int(c) for c in text)
    if genus is not None and len(bits) != 2 * genus:
        raise CliError(
            EXIT_PARSE, f"error: mu1 must have length {2 * genus} for genus {genus}"
        )
    if genus is None and (len(bits) < 4 or len(bits) % 2 != 0):
        raise CliError(EXIT_PARSE, "error: mu1 must have even length 2g with g >= 2")
    return bits


_MU2_TOKENS = {"0": Mu2Value.ZERO, "1": Mu2Value.ONE, "omega": Mu2Value.OMEGA}


def _emit(args, text_lines: list[str], payload: dict) -> int:
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        for line in text_lines:
            print(line)
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> int:
    rep = read_rep_file(args.path)
    d1 = surfrep.delta1(rep)
    d2 = surfrep.delta2(rep)
    cls = surfrep.invariants(rep)
    d1_str = "".join(str(b) for b in d1)
    lines = [f"delta1 = {d1_str}", f"delta2 = {d2.value}"]
    payload: dict[str, str] = {"delta1": d1_str, "delta2": d2.value}
    if not any(d1):
        # with delta1 = 0, mu2 is tilde_delta itself
        lines.append(f"tilde_delta = {cls.mu2.value}")
        payload["tilde_delta"] = cls.mu2.value
    lines.append(f"mu1 = {cls.mu1_string()}")
    lines.append(f"mu2 = {cls.mu2.value}")
    payload["mu1"] = cls.mu1_string()
    payload["mu2"] = cls.mu2.value
    return _emit(args, lines, payload)


def cmd_construct(args) -> int:
    bits = _parse_mu1(args.mu1, args.genus)
    try:
        target = InvariantClass(bits, _MU2_TOKENS[args.mu2])
        rep = construct.build_representation(args.genus, args.n, target)
    except InvalidClass as exc:
        raise CliError(EXIT_INVALID_CLASS, f"invalid class: {exc}")
    except construct.BadDimension as exc:
        raise CliError(EXIT_PARSE, f"error: {exc}")
    write_rep_file(args.out, rep)
    summary = f"g={args.genus}, n={args.n}, mu1={target.mu1_string()}, mu2={target.mu2.value}"
    return _emit(
        args,
        [f"wrote {args.out} ({summary})"],
        {
            "path": args.out,
            "genus": args.genus,
            "n": args.n,
            "mu1": target.mu1_string(),
            "mu2": target.mu2.value,
        },
    )


def _classes(args) -> list[InvariantClass]:
    try:
        return classify.invariant_classes(args.genus, args.n)
    except classify.BadInput as exc:
        raise CliError(EXIT_PARSE, f"error: {exc}")


def cmd_classify(args) -> int:
    classes = _classes(args)
    lines = ["mu1 mu2"]
    rows = []
    for cls in classes:
        lines.append(f"{cls.mu1_string()} {cls.mu2.value}")
        rows.append({"mu1": cls.mu1_string(), "mu2": cls.mu2.value})
    lines.append(f"classes: {len(classes)}")
    return _emit(args, lines, {"classes": rows, "count": len(classes)})


def cmd_components(args) -> int:
    classes = _classes(args)
    lines = ["mu1 mu2 components"]
    rows = []
    total = 0
    for cls in classes:
        k = classify.components_per_class(cls, args.n, args.genus)
        total += k
        lines.append(f"{cls.mu1_string()} {cls.mu2.value} {k}")
        rows.append({"mu1": cls.mu1_string(), "mu2": cls.mu2.value, "components": k})
    lines.append(f"total: {total}")
    return _emit(args, lines, {"per_class": rows, "total": total})


def cmd_egl_components(args) -> int:
    try:
        report = classify.egl_component_counts(args.deg, args.genus, args.n)
    except classify.BadInput as exc:
        raise CliError(EXIT_PARSE, f"error: {exc}")
    lines = ["mu1bar w2 deg components fibre_components"]
    rows = []
    for cls, mult, fibre in report.entries:
        bits = "".join(str(b) for b in cls.mu1bar)
        w2 = "-" if cls.w2 is None else str(cls.w2)
        lines.append(f"{bits} {w2} {cls.deg} {mult} {fibre}")
        rows.append(
            {
                "mu1bar": bits,
                "w2": cls.w2,
                "deg": cls.deg,
                "components": mult,
                "fibre_components": fibre,
            }
        )
    lines.append(f"total: {report.total}")
    lines.append(f"fibre_total: {report.fibre_total}")
    payload = {
        "deg": report.deg,
        "per_class": rows,
        "total": report.total,
        "fibre_total": report.fibre_total,
    }
    return _emit(args, lines, payload)


def cmd_poincare(args) -> int:
    try:
        so3 = poincare.pt_so3(args.w2, args.genus)
        sl3 = poincare.pt_sl3(args.w2, args.genus)
    except poincare.NotDivisible as exc:
        raise CliError(EXIT_PARSE, f"error: series is not an exact quotient: {exc}")
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"error: {exc}")
    so3_c = list(so3.coeffs)
    sl3_c = list(sl3.coeffs)
    lines = [
        "coefficients by ascending degree",
        "so3: " + " ".join(str(c) for c in so3_c),
        "sl3: " + " ".join(str(c) for c in sl3_c),
    ]
    payload = {"w2": args.w2, "genus": args.genus, "so3": so3_c, "sl3": sl3_c}
    return _emit(args, lines, payload)


_TARGETS_MU1_ZERO = (classify.LiftTarget.SO, classify.LiftTarget.SPIN)
_TARGETS_MU1_NONZERO = (classify.LiftTarget.O, classify.LiftTarget.PIN)


def cmd_lift_check(args) -> int:
    bits = _parse_mu1(args.mu1)
    try:
        cls = InvariantClass(bits, _MU2_TOKENS[args.mu2])
    except InvalidClass as exc:
        raise CliError(EXIT_INVALID_CLASS, f"invalid class: {exc}")
    targets = _TARGETS_MU1_ZERO if cls.mu1_is_zero else _TARGETS_MU1_NONZERO
    lines = []
    lifts = {}
    for target in targets:
        ok = classify.lifts_to(cls, target)
        lines.append(f"{target.value}: {'yes' if ok else 'no'}")
        lifts[target.value] = ok
    payload = {"mu1": cls.mu1_string(), "mu2": cls.mu2.value, "lifts": lifts}
    return _emit(args, lines, payload)


_DISPLAY_ORDER = {"0": 0, "1": 1, "omega": 2, "-omega": 3}


def cmd_bundle_classify(args) -> int:
    bits = _parse_mu1(args.mu1)
    try:
        action = classify.po_bundle_data(args.n)
    except classify.BadInput as exc:
        raise CliError(EXIT_PARSE, f"error: {exc}")
    image = list(action.pi0.elements()) if any(bits) else [action.pi0.zero()]
    gamma = classify.gamma_subgroup(action, image)
    reps = classify.classify_bundles(action, image)
    gamma_labels = sorted(
        (classify.po_kernel_label(args.n, v) for v in gamma),
        key=_DISPLAY_ORDER.__getitem__,
    )
    class_labels = sorted(
        (classify.po_kernel_label(args.n, v) for v in reps),
        key=_DISPLAY_ORDER.__getitem__,
    )
    pi1_name = "Z2 x Z2" if args.n % 4 == 0 else "Z4"
    lines = [
        f"pi1: {pi1_name}",
        "gamma: " + " ".join(gamma_labels),
        "classes: " + " ".join(class_labels),
    ]
    payload = {
        "n": args.n,
        "pi1": pi1_name,
        "mu1_zero": not any(bits),
        "gamma": gamma_labels,
        "classes": class_labels,
    }
    return _emit(args, lines, payload)


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
    p.add_argument("--mu2", choices=sorted(_MU2_TOKENS), required=True)
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
    p.add_argument("--mu2", choices=sorted(_MU2_TOKENS), required=True)

    p = add("bundle-classify", cmd_bundle_classify, "run the general bundle classifier")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu1", required=True, help="bit string of length 2g")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except SystemExit as exc:  # --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

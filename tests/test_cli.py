import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglrep.cli import _MU2_TOKENS, MAX_FILE_GENUS, main, read_rep_file, write_rep_file
from pglrep.poincare import MAX_GENUS as POINCARE_MAX_GENUS

FIXTURES = Path(__file__).parent / "fixtures"

TRIVIAL = {
    "n": 4,
    "genus": 2,
    "generators": [[[1 if i == j else 0 for j in range(4)] for i in range(4)]] * 4,
}


def write_doc(tmp_path, doc, name="rep.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvariants:
    def test_trivial_rep(self, capsys, tmp_path):
        path = write_doc(tmp_path, TRIVIAL)
        code, out, _ = run(capsys, "invariants", path)
        assert code == 0
        assert "delta1 = 0000" in out
        assert "delta2 = +I" in out
        assert "tilde_delta = 0" in out
        assert "mu1 = 0000" in out
        assert "mu2 = 0" in out

    def test_anticommuting_pair_json(self, capsys, tmp_path):
        x4 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        xp4 = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
        eye = TRIVIAL["generators"][0]
        doc = {"n": 4, "genus": 2, "generators": [x4, xp4, eye, eye]}
        code, out, _ = run(capsys, "invariants", write_doc(tmp_path, doc), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["delta2"] == "-I"
        assert payload["mu2"] == "omega"
        assert payload["tilde_delta"] == "omega"

    def test_rational_entries_parse(self, capsys, tmp_path):
        rot = [["3/5", "-4/5", 0, 0], ["4/5", "3/5", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        eye = TRIVIAL["generators"][0]
        doc = {"n": 4, "genus": 2, "generators": [rot, eye, eye, eye]}
        code, out, _ = run(capsys, "invariants", write_doc(tmp_path, doc))
        assert code == 0
        assert "mu1 = 0000" in out

    def test_bad_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "invariants", str(path))
        assert code == 1
        assert "parse error" in err

    def test_float_entry_exits_1(self, capsys, tmp_path):
        doc = json.loads(json.dumps(TRIVIAL))
        doc["generators"][0] = [[0.5, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        code, _, err = run(capsys, "invariants", write_doc(tmp_path, doc))
        assert code == 1

    def test_non_orthogonal_exits_2_and_names_generator(self, capsys, tmp_path):
        doc = json.loads(json.dumps(TRIVIAL))
        doc["generators"][2] = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        code, _, err = run(capsys, "invariants", write_doc(tmp_path, doc))
        assert code == 2
        assert "A2" in err

    def test_relation_violated_exits_3(self, capsys, tmp_path):
        doc = json.loads(json.dumps(TRIVIAL))
        # Y4 and Z4 commute only block-wise: their commutator is diag(-1,-1,1,1)
        doc["generators"][0] = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        doc["generators"][1] = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
        code, _, err = run(capsys, "invariants", write_doc(tmp_path, doc))
        assert code == 3

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "invariants", str(tmp_path / "nope.json"))
        assert code == 1

    @pytest.mark.parametrize("key,value", [("n", 4.5), ("n", True), ("n", "4"), ("genus", 2.0), ("genus", True)])
    def test_non_integer_header_exits_1(self, capsys, tmp_path, key, value):
        doc = dict(TRIVIAL, **{key: value})
        code, out, err = run(capsys, "invariants", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert "need integer keys n, genus" in err

    def test_dimension_above_clifford_cap_exits_1(self, capsys, tmp_path):
        eye = [[int(i == j) for j in range(18)] for i in range(18)]
        doc = {"n": 18, "genus": 2, "generators": [eye] * 4}
        code, out, err = run(capsys, "invariants", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert "n = 18 exceeds the supported maximum 16" in err

    def test_genus_above_the_file_cap_exits_1(self, capsys, tmp_path):
        def doc(genus):
            return {"n": 4, "genus": genus, "generators": TRIVIAL["generators"][:1] * (2 * genus)}

        assert run(capsys, "invariants", write_doc(tmp_path, doc(MAX_FILE_GENUS)))[0] == 0
        code, out, err = run(capsys, "invariants", write_doc(tmp_path, doc(MAX_FILE_GENUS + 1)))
        assert (code, out) == (1, "")
        assert err == (
            f"parse error: genus = {MAX_FILE_GENUS + 1} exceeds the supported maximum {MAX_FILE_GENUS}\n"
        )

    @pytest.mark.parametrize("entry", ["1e10000000", "0.5", " 1", "1_0", "1/0"])
    def test_entry_outside_integer_or_p_over_q_exits_1(self, capsys, tmp_path, entry):
        doc = json.loads(json.dumps(TRIVIAL))
        doc["generators"][0][0][0] = entry
        start = time.monotonic()
        code, out, err = run(capsys, "invariants", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert f"bad rational {entry!r}" in err
        # Fraction("1e10000000") alone takes tens of seconds
        assert time.monotonic() - start < 1.0

    def test_boolean_entry_exits_1(self, capsys, tmp_path):
        doc = json.loads(json.dumps(TRIVIAL))
        doc["generators"][0][0][0] = True
        code, out, err = run(capsys, "invariants", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert "boolean entry" in err

    @pytest.mark.parametrize(
        "text",
        [
            b'{"n": 4, "genus": 2, "generators": \xff}',
            b'{"n": 4, "genus": 2, "generators": [[[' + b"1" * 5000 + b"]]]}",
            b"[" * 100000,
            b'{"n": 0, "genus": 2, "generators": [[], [], [], []]}',
            b'[{"n": 4, "genus": 2, "generators": []}]',
        ],
        ids=["bad-utf8", "int-past-digit-limit", "deep-nesting", "zero-dimension", "top-level-array"],
    )
    def test_malformed_file_exits_1(self, capsys, tmp_path, text):
        path = tmp_path / "rep.json"
        path.write_bytes(text)
        code, out, err = run(capsys, "invariants", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("parse error")


_FIXTURE_DOCS = [TRIVIAL] + [
    json.loads((FIXTURES / name).read_text())
    for name in ("conjugated_omega.json", "conjugated_reflections.json")
]

_VALUES = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.text(alphabet="0123456789+-/ ._e", max_size=8),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=5),
)


@st.composite
def _mutated_rep_files(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(_FIXTURE_DOCS))))
    # swaps keep a valid file valid or break only the relation (exit 0 or 3)
    kinds = ("swap", "entry", "row", "generator", "header", "drop", "pop")
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(kinds))
        gens = doc.get("generators")
        if kind == "header" or not isinstance(gens, list) or not gens:
            doc[draw(st.sampled_from(("n", "genus")))] = draw(_VALUES)
        elif kind == "drop":
            doc.pop(draw(st.sampled_from(("n", "genus", "generators"))), None)
        elif kind == "pop":
            gens.pop()
        else:
            index = st.integers(min_value=0, max_value=len(gens) - 1)
            k = draw(index)
            if kind == "swap":
                j = draw(index)
                gens[k], gens[j] = gens[j], gens[k]
                continue
            if kind == "generator" or not isinstance(gens[k], list) or not gens[k]:
                gens[k] = draw(_VALUES)
                continue
            i = draw(st.integers(min_value=0, max_value=len(gens[k]) - 1))
            if kind == "row" or not isinstance(gens[k][i], list) or not gens[k][i]:
                gens[k][i] = draw(_VALUES)
                continue
            j = draw(st.integers(min_value=0, max_value=len(gens[k][i]) - 1))
            gens[k][i][j] = draw(_VALUES)
    text = json.dumps(doc).encode()
    if draw(st.booleans()):
        cut = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:cut] + draw(st.binary(max_size=3)) + text[cut + 1 :]
    return text


@settings(max_examples=200, deadline=None)
@given(_mutated_rep_files())
def test_invariants_on_mutated_files_never_crashes(text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rep.json"
        path.write_bytes(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["invariants", str(path)])
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()


# exit codes the module docstring documents for each command
_DOCUMENTED = {
    "construct": {0, 1, 4},
    "classify": {0, 1},
    "components": {0, 1},
    "egl-components": {0, 1},
    "poincare": {0, 1},
    "lift-check": {0, 1, 4},
    "bundle-classify": {0, 1},
}

# sizes on both sides of the documented bounds, and tokens that are no integer
_N_TOKENS = st.one_of(
    st.sampled_from([-4, 0, 2, 3, 4, 6, 8, 16, 17, 18, 24, 400, 10**20]).map(str),
    st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--n"]),
)


# above the class-enumeration cap, or no integer; genus 8 itself takes seconds
_GENUS_TOKENS = st.sampled_from(["9", "14", str(10**20), "", "x", "1.5"])

_MU2 = st.sampled_from(["0", "1", "omega", "2", ""])


@st.composite
def _argument_vectors(draw):
    """Any subcommand but invariants, with each option most often
    well-formed, sometimes malformed, and at most one option missing.  The
    poincare genus is most often small, and otherwise at, just above or far
    above its cap."""
    command = draw(st.sampled_from(sorted(_DOCUMENTED)))
    genus = draw(st.integers(min_value=-1, max_value=4))
    length = max(2 * genus, 0)
    mu1 = st.one_of(
        st.just("0" * length),
        st.lists(st.sampled_from("01"), min_size=length, max_size=length).map("".join),
        st.text(alphabet="01x", max_size=8),
    )
    table = {"--genus": st.one_of(st.just(str(genus)), _GENUS_TOKENS), "--n": _N_TOKENS}
    options = {
        "construct": {
            "--genus": st.one_of(st.just(str(genus)), _N_TOKENS),
            "--n": _N_TOKENS,
            "--mu1": mu1,
            "--mu2": _MU2,
        },
        "classify": table,
        "components": table,
        "egl-components": {"--deg": st.sampled_from(["0", "1", "2", "x"]), **table},
        "poincare": {
            "--w2": st.sampled_from(["0", "1", "2", "-1", "x"]),
            "--genus": st.one_of(
                st.integers(min_value=-2, max_value=12),
                st.sampled_from([POINCARE_MAX_GENUS, POINCARE_MAX_GENUS + 1, 10**20]),
            ).map(str),
        },
        "lift-check": {"--mu1": mu1, "--mu2": _MU2},
        "bundle-classify": {"--n": _N_TOKENS, "--mu1": mu1},
    }[command]
    missing = draw(st.sampled_from([None, None, None, *options]))
    argv = [command]
    for flag, values in options.items():
        if flag != missing:
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "xml"]))]
    return argv




@settings(max_examples=200, deadline=None)
@given(_argument_vectors())
def test_argument_vectors_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "construct":
            argv = argv + ["--out", str(Path(tmp) / "rep.json")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if argv[0] == "construct":
            assert (Path(tmp) / "rep.json").exists() == (code == 0)
    assert code in _DOCUMENTED[argv[0]]
    assert "Traceback" not in err.getvalue()


class TestConstruct:
    def test_round_trip_single_class(self, capsys, tmp_path):
        out_path = str(tmp_path / "omega.json")
        code, _, _ = run(
            capsys, "construct", "--genus", "2", "--n", "4",
            "--mu1", "0000", "--mu2", "omega", "--out", out_path,
        )
        assert code == 0
        code, out, _ = run(capsys, "invariants", out_path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "delta1": "0000",
            "delta2": "-I",
            "tilde_delta": "omega",
            "mu1": "0000",
            "mu2": "omega",
        }

    def test_reflection_class_places_commuting_pair_on_first_handle(self, capsys, tmp_path):
        out_path = str(tmp_path / "y.json")
        code, _, _ = run(
            capsys, "construct", "--genus", "2", "--n", "4",
            "--mu1", "1100", "--mu2", "0", "--out", out_path,
        )
        assert code == 0
        doc = json.loads(open(out_path).read())
        assert doc["generators"][0] == [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert doc["generators"][1] == [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

    def test_invalid_class_exits_4(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "construct", "--genus", "2", "--n", "4",
            "--mu1", "1000", "--mu2", "1", "--out", str(tmp_path / "x.json"),
        )
        assert code == 4
        assert "invalid class" in err

    def test_wrong_mu1_length_exits_1(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "construct", "--genus", "3", "--n", "4",
            "--mu1", "0000", "--mu2", "0", "--out", str(tmp_path / "x.json"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "n,mu1,mu2",
        [("18", "0000", "0"), ("18", "1000", "0"), ("400", "1000", "0")],
    )
    def test_dimension_above_the_cap_exits_1_and_writes_nothing(self, capsys, tmp_path, n, mu1, mu2):
        # n = 18 once raised inside the Clifford layer, or wrote a file that
        # invariants refuses; n = 400 ran for tens of seconds
        out_path = tmp_path / "x.json"
        code, out, err = run(
            capsys, "construct", "--genus", "2", "--n", n,
            "--mu1", mu1, "--mu2", mu2, "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert f"got {n}" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    def test_genus_above_the_file_cap_exits_1_and_writes_nothing(self, capsys, tmp_path):
        # construct once wrote files above the cap that invariants refuses,
        # with work growing in the genus (1.6 s at genus 2000, n = 16)
        out_path = tmp_path / "x.json"
        for genus in (MAX_FILE_GENUS + 1, 2000):
            code, out, err = run(
                capsys, "construct", "--genus", str(genus), "--n", "16",
                "--mu1", "0" * (2 * genus), "--mu2", "0", "--out", str(out_path),
            )
            assert (code, out) == (1, "")
            assert err == f"error: genus = {genus} exceeds the supported maximum {MAX_FILE_GENUS}\n"
            assert not out_path.exists()
        # at the cap the file is written and reads back
        argv = ("--genus", str(MAX_FILE_GENUS), "--n", "4", "--mu1", "01" * MAX_FILE_GENUS)
        assert run(capsys, "construct", *argv, "--mu2", "omega", "--out", str(out_path))[0] == 0
        code, out, _ = run(capsys, "invariants", str(out_path), "--format", "json")
        assert code == 0
        assert json.loads(out)["mu1"] == "01" * MAX_FILE_GENUS

    def test_unwritable_out_exits_1_with_one_error_line(self, capsys, tmp_path):
        missing = tmp_path / "no-such-dir" / "x.json"
        argv = ("construct", "--genus", "2", "--n", "4", "--mu1", "1000", "--mu2", "omega")
        code, out, err = run(capsys, *argv, "--out", str(missing))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        assert not missing.parent.exists()
        # an existing directory: the message names the directory, nothing is written in it
        code, out, err = run(capsys, *argv, "--out", str(tmp_path), "--format", "json")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("g,n", [(2, 4), (2, 6), (3, 4), (3, 6)])
    def test_round_trip_every_class(self, capsys, tmp_path, g, n):
        from pglrep.classify import invariant_classes

        for idx, cls in enumerate(invariant_classes(g, n)):
            out_path = str(tmp_path / f"c{idx}.json")
            code, _, _ = run(
                capsys, "construct", "--genus", str(g), "--n", str(n),
                "--mu1", cls.mu1_string(), "--mu2", cls.mu2.value, "--out", out_path,
            )
            assert code == 0
            code, out, _ = run(capsys, "invariants", out_path, "--format", "json")
            assert code == 0
            payload = json.loads(out)
            assert payload["mu1"] == cls.mu1_string()
            assert payload["mu2"] == cls.mu2.value


class TestTables:
    def test_classify_row_count(self, capsys):
        code, out, _ = run(capsys, "classify", "--genus", "2", "--n", "4")
        assert code == 0
        assert "classes: 33" in out
        # header + 33 rows + summary
        assert len(out.strip().splitlines()) == 35

    def test_components_total(self, capsys):
        code, out, _ = run(capsys, "components", "--genus", "2", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 34
        doubled = [row for row in payload["per_class"] if row["components"] == 2]
        assert doubled == [{"mu1": "0000", "mu2": "0", "components": 2}]

    def test_egl_components(self, capsys):
        code, out, _ = run(
            capsys, "egl-components", "--deg", "0", "--genus", "2", "--n", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 18
        assert payload["fibre_total"] == 33

    def test_poincare_nontrivial_class(self, capsys):
        code, out, _ = run(capsys, "poincare", "--w2", "1", "--genus", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["so3"] == [1, 0, 1, 4, 1, 0, 1]
        assert payload["sl3"] == [1, 0, 1, 4, 1, 0, 1]
        assert payload["so3"][0] == 1

    def test_poincare_trivial_class_reports_defect(self, capsys):
        code, _, err = run(capsys, "poincare", "--w2", "0", "--genus", "2")
        assert code == 1
        assert "not an exact quotient" in err

    def test_lift_check(self, capsys):
        code, out, _ = run(
            capsys, "lift-check", "--mu1", "0000", "--mu2", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lifts"] == {"SO": True, "Spin": False}
        code, out, _ = run(
            capsys, "lift-check", "--mu1", "1000", "--mu2", "omega", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["lifts"] == {"O": False, "Pin": False}

    def test_lift_check_invalid_class_exits_4(self, capsys):
        # mu2 = 1 needs mu1 = 0
        code, out, err = run(capsys, "lift-check", "--mu1", "0100", "--mu2", "1")
        assert (code, out) == (4, "")
        assert "invalid class" in err

    def test_bundle_classify(self, capsys):
        code, out, _ = run(capsys, "bundle-classify", "--n", "4", "--mu1", "0000")
        assert code == 0
        assert "classes: 0 1 omega" in out
        code, out, _ = run(capsys, "bundle-classify", "--n", "6", "--mu1", "1000")
        assert code == 0
        assert "classes: 0 omega" in out
        assert "gamma: 0 1" in out

    def test_bad_arguments_exit_1(self, capsys):
        assert run(capsys, "classify", "--genus", "2")[0] == 1
        assert run(capsys, "classify", "--genus", "1", "--n", "4")[0] == 1
        assert run(capsys, "poincare", "--w2", "3", "--genus", "2")[0] == 1
        assert run(capsys, "nonsense")[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--genus", "14", "--n", "4"),
            ("components", "--genus", "14", "--n", "4"),
            ("egl-components", "--deg", "0", "--genus", "14", "--n", "4"),
        ],
    )
    def test_genus_above_cap_exits_1(self, capsys, argv):
        # 2^29 + 1 classes at genus 14: refused before any is enumerated
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "exceeds the supported maximum" in err
        assert "Traceback" not in err

    def test_poincare_genus_cap(self, capsys):
        code, out, _ = run(capsys, "poincare", "--w2", "1", "--genus", str(POINCARE_MAX_GENUS))
        assert code == 0 and out.startswith("coefficients by ascending degree")
        for w2 in ("0", "1"):
            code, out, err = run(
                capsys, "poincare", "--w2", w2, "--genus", str(POINCARE_MAX_GENUS + 1)
            )
            assert code == 1
            assert out == ""
            assert err.count("error:") == 1 and "exceeds the supported maximum" in err
            assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "construct", "--help")[0] == 0


class TestDeterminism:
    def test_text_output_is_byte_stable(self, capsys):
        first = run(capsys, "components", "--genus", "2", "--n", "4")
        second = run(capsys, "components", "--genus", "2", "--n", "4")
        assert first == second

    def test_written_files_are_byte_stable(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for path in (a, b):
            run(
                capsys, "construct", "--genus", "2", "--n", "4",
                "--mu1", "0110", "--mu2", "omega", "--out", path,
            )
        assert open(a, "rb").read() == open(b, "rb").read()


# Byte-exact outputs.  The fixtures hold genus-2, n=4 representations
# conjugated by the product of the (3,4,5) and (5,12,13) plane rotations, so
# their entries are "p/q" strings: conjugated_omega.json is (X4, X'4, I, I),
# conjugated_reflections.json is (Y4, Y'4, X4, X'4).
CONSTRUCT_1000_OMEGA = """{
 "n": 4,
 "genus": 2,
 "generators": [
  [
   [0, -1, 0, 0],
   [1, 0, 0, 0],
   [0, 0, 1, 0],
   [0, 0, 0, -1]
  ],
  [
   [0, 1, 0, 0],
   [1, 0, 0, 0],
   [0, 0, 0, 1],
   [0, 0, 1, 0]
  ],
  [
   [1, 0, 0, 0],
   [0, 1, 0, 0],
   [0, 0, 1, 0],
   [0, 0, 0, 1]
  ],
  [
   [1, 0, 0, 0],
   [0, 1, 0, 0],
   [0, 0, 1, 0],
   [0, 0, 0, 1]
  ]
 ]
}
"""

GOLDEN_INVARIANTS = {
    ("conjugated_omega.json", "text"): (
        "delta1 = 0000\n"
        "delta2 = -I\n"
        "tilde_delta = omega\n"
        "mu1 = 0000\n"
        "mu2 = omega\n"
    ),
    ("conjugated_omega.json", "json"): (
        '{\n "delta1": "0000",\n "delta2": "-I",\n "tilde_delta": "omega",\n'
        ' "mu1": "0000",\n "mu2": "omega"\n}\n'
    ),
    ("conjugated_reflections.json", "text"): (
        "delta1 = 1100\n"
        "delta2 = -I\n"
        "mu1 = 1100\n"
        "mu2 = omega\n"
    ),
    ("conjugated_reflections.json", "json"): (
        '{\n "delta1": "1100",\n "delta2": "-I",\n'
        ' "mu1": "1100",\n "mu2": "omega"\n}\n'
    ),
}


# stdout, stderr and exit code of the table and lookup subcommands in both
# formats, and of one failure per row of cli._ERRORS but the unwritable
# --out (TestConstruct); arguments ending in .json name files in FIXTURES
GOLDEN_RUNS = json.loads((FIXTURES / "cli_golden.json").read_text())


class TestGolden:
    @pytest.mark.parametrize("record", GOLDEN_RUNS, ids=lambda r: " ".join(r["argv"]))
    def test_subcommand_output(self, capsys, record):
        argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in record["argv"]]
        assert run(capsys, *argv) == (record["exit"], record["stdout"], record["stderr"])


    def test_construct_file(self, capsys, tmp_path):
        out_path = tmp_path / "c.json"
        code, out, err = run(
            capsys, "construct", "--genus", "2", "--n", "4",
            "--mu1", "1000", "--mu2", "omega", "--out", str(out_path),
        )
        assert (code, err) == (0, "")
        assert out == f"wrote {out_path} (g=2, n=4, mu1=1000, mu2=omega)\n"
        assert out_path.read_bytes() == CONSTRUCT_1000_OMEGA.encode()

    @pytest.mark.parametrize("name,fmt", sorted(GOLDEN_INVARIANTS))
    def test_invariants_output(self, capsys, name, fmt):
        code, out, err = run(capsys, "invariants", str(FIXTURES / name), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == GOLDEN_INVARIANTS[name, fmt]

    @pytest.mark.parametrize("name", ["conjugated_omega.json", "conjugated_reflections.json"])
    def test_rational_file_round_trip(self, tmp_path, name):
        out_path = tmp_path / name
        write_rep_file(str(out_path), read_rep_file(str(FIXTURES / name)))
        assert out_path.read_bytes() == (FIXTURES / name).read_bytes()


def test_mu2_tokens_are_the_mu2_values():
    # the CLI keeps its own copy so that its import loads no layer
    from pglrep.surfrep import Mu2Value

    assert _MU2_TOKENS == tuple(value.value for value in Mu2Value)


# every failure row of the golden file and one usage error, run the way the
# benchmark runs the CLI: python -m pglrep.cli in a fresh interpreter, where
# the module is __main__
SUBPROCESS_FAILURES = [record for record in GOLDEN_RUNS if record["exit"] != 0] + [
    {
        "argv": ["classify", "--genus", "x"],
        "exit": 1,
        "stdout": "",
        "stderr": "pglrep classify: error: argument --genus: invalid int value: 'x'\n",
    },
]


@pytest.mark.parametrize("record", SUBPROCESS_FAILURES, ids=lambda r: " ".join(r["argv"]))
def test_failure_output_under_python_m(record):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pglrep.cli", *record["argv"]],
        cwd=FIXTURES, env=env, capture_output=True, timeout=60,
    )
    expected = (record["exit"], record["stdout"].encode(), record["stderr"].encode())
    assert (done.returncode, done.stdout, done.stderr) == expected

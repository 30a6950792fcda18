"""Command-line interface: subcommands, exit codes, determinism, round-trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg import cli
from braidalg import qscalar as qs
from braidalg.cli import MAX_DEGREE, MAX_GENERATORS, format_presentation_document, main
from braidalg.ncalg import NCPoly, format_poly
from braidalg.presents import braided_matrices
from braidalg.rewrite import truncated_gb
from braidalg.rmat import RMatrix, glq2_rmatrix, load_rmatrix, save_rmatrix
from oracles import (SINGULAR_EXCHANGE, parse_presentation_document, perturbed_doc,
                     rule_element)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ybe_pass(capsys):
    code, out, _ = run(capsys, "ybe", "glq2")
    assert code == 0
    assert out == "YBE: PASS\n"


def test_ybe_fail_with_witness(capsys, perturbed_doc):
    code, out, _ = run(capsys, "ybe", perturbed_doc)
    assert code == 1
    assert out.startswith("YBE: FAIL\n")
    assert "residue" in out


def test_biinv_glq2(capsys):
    code, out, _ = run(capsys, "biinv", "glq2")
    assert code == 0
    assert "invertible: yes" in out and "second_inverse: present" in out


def test_biinv_flip_absent(capsys):
    code, out, _ = run(capsys, "biinv", "flip:2")
    assert code == 1
    assert "second_inverse: absent" in out


def test_nf_output_format(capsys):
    code, out, _ = run(capsys, "nf", "bm", "glq2", "u[1,2]*u[1,1]")
    assert code == 0
    assert out == "q^2 * u[1,1]*u[1,2]\n"


def test_nf_bad_polynomial_is_usage_error(capsys):
    code, _, err = run(capsys, "nf", "bm", "glq2", "w[1,1]")
    assert code == 2
    assert "usage error" in err


def test_hilbert_bm(capsys):
    code, out, _ = run(capsys, "hilbert", "bm", "glq2", "-D", "3")
    assert code == 0
    assert "dims: [1, 4, 10, 20]" in out
    assert out.startswith("# index convention")


def test_hilbert_chain(capsys):
    code, out, _ = run(capsys, "hilbert", "chain", "glq2", "-n", "2", "-D", "2")
    assert code == 0
    assert "dims: [1, 8, 36]" in out


def test_present_document_roundtrip(capsys):
    code, out, _ = run(capsys, "present", "chain", "glq2", "-n", "2")
    assert code == 0
    meta, P = parse_presentation_document(out)
    assert meta["preset"] == "chain"
    assert len(P.roster) == 8
    again = format_presentation_document(P, meta["preset"], meta["rmatrix"],
                                         int(meta["copies"]))
    assert again == out


def test_present_deterministic(capsys):
    _, out1, _ = run(capsys, "present", "square", "glq2")
    _, out2, _ = run(capsys, "present", "square", "glq2")
    assert out1 == out2


def test_verify_identity_pass(capsys):
    code, out, _ = run(capsys, "verify", "bm", "identity:2", "-D", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["mode"] == "exact"


def test_verify_perturbed_fails(capsys, perturbed_doc):
    code, out, _ = run(capsys, "verify", "bm", perturbed_doc, "-D", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["ybe"] is False
    assert "residue" in doc["ybe_witness"]


def test_verify_rejects_low_degree(capsys):
    code, _, err = run(capsys, "verify", "bm", "glq2", "-D", "3")
    assert code == 2
    assert "at least 4" in err


def test_verify_rejects_frt(capsys):
    code, _, err = run(capsys, "verify", "frt", "glq2", "-D", "4")
    assert code == 2


def test_verify_probabilistic_deterministic_documents(capsys):
    args = ("verify", "chain", "glq2", "-n", "2", "-D", "4",
            "--mode", "probabilistic", "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["mode"] == "probabilistic" and len(doc["points"]) == 3


def test_hilbert_square_preset(capsys):
    code, out, _ = run(capsys, "hilbert", "square", "glq2", "-D", "2")
    assert code == 0
    assert "dims: [1, 8, 36]" in out


def test_square_iso(capsys):
    code, out, _ = run(capsys, "square-iso", "glq2", "-D", "2")
    assert code == 0
    assert "equal: yes" in out


def test_hilbert_negative_bound_is_usage_error(capsys):
    for degree in ("-3", "1000000"):
        code, out, err = run(capsys, "hilbert", "bm", "glq2", "-D", degree)
        assert code == 2
        assert out == ""
        assert "usage error" in err and "nonnegative" in err


def test_square_iso_negative_bound_is_usage_error(capsys):
    for degree in ("-1", "1000000"):
        code, out, err = run(capsys, "square-iso", "glq2", "-D", degree)
        assert code == 2
        assert out == ""
        assert "usage error" in err and "nonnegative" in err


def test_degree_over_the_bound_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "bm", "glq2", "-D", str(MAX_DEGREE + 1))
    assert code == 2 and out == "" and f"at most {MAX_DEGREE}" in err
    poly = "*".join(["u[1,1]"] * (MAX_DEGREE + 1))
    code, out, err = run(capsys, "nf", "bm", "glq2", poly)
    assert code == 2 and out == "" and f"exceeds {MAX_DEGREE}" in err
    code, out, _ = run(capsys, "nf", "bm", "glq2", "*".join(["u[1,1]"] * 8))
    assert code == 0 and out == "*".join(["u[1,1]"] * 8) + "\n"


@pytest.mark.parametrize("argv", [["present", "chain", "glq2", "-n", "65"],
                                  ["present", "chain", "glq2", "-n", "1000000000"],
                                  ["verify", "bm", "identity:16"],
                                  ["square-iso", "identity:16", "-D", "4"]])
def test_roster_over_the_bound_is_usage_error(tmp_path, capsys, argv):
    # each would build more than MAX_GENERATORS generators (verify and
    # square-iso build a tensor square); it is refused before any block
    keep = tmp_path / "keep.txt"
    keep.write_text("kept\n")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "-o", str(keep))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert f"(at most {MAX_GENERATORS})" in err
    assert keep.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["keep.txt"]


def test_nf_is_canonical_on_non_confluent_input(capsys, perturbed_doc):
    # over the perturbed R, completion adjoins a cubic rule to bm; lhs - rhs
    # of that rule lies in the ideal, so its canonical normal form is 0
    P = braided_matrices(load_rmatrix(open(perturbed_doc).read()))
    rule = truncated_gb(P, 3).added_rules[0]
    assert format_poly(NCPoly.term(rule.lhs, qs.ONE), P) == "u[1,1]*u[1,1]*u[2,2]"
    code, out, err = run(capsys, "nf", "bm", perturbed_doc,
                         format_poly(rule_element(rule, qs.ONE), P))
    assert code == 0 and out == "0\n"
    assert err.count("note:") == 1 and "completion adjoined" in err


def test_nf_of_mixed_degrees_uses_the_adjoined_rules(capsys, perturbed_doc):
    # terms of degrees 0, 1, 2 and 4; the quadratic rules alone leave
    # u[1,1]*u[1,1]*u[2,2]*u[2,2] in place of u[1,1]^4, which the adjoined
    # cubic rules reach
    poly = ("3 - q*u[2,1] + u[2,2]*u[1,1] + (1 + q)/2*u[2,2]*u[1,1]*u[1,1]*u[2,2]"
            " - q^-1*u[1,1]*u[2,2]*u[2,2]*u[1,1]")
    code, out, err = run(capsys, "nf", "bm", perturbed_doc, poly)
    assert code == 0
    assert out == ("((-2*q^-1 + 1 + q)/(2)) * u[1,1]*u[1,1]*u[1,1]*u[1,1] + "
                   "u[1,1]*u[2,2] - q * u[2,1] + 3\n")
    assert err == "note: completion adjoined 2 rules (quadratic system not confluent)\n"


def test_completion_over_its_work_budget_is_an_error(tmp_path, capsys, perturbed_doc):
    # completion of the perturbed square grows without end in the degree
    # bound; the work budget ends it with one error line, in bounded time
    keep = tmp_path / "keep.txt"
    keep.write_text("previous contents\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "hilbert", "square", perturbed_doc, "-D", "64",
                         "-o", str(keep))
    assert time.perf_counter() - start < 60
    assert code == 1 and out == ""
    assert err.startswith("error: CompletionBudgetError:") and err.count("\n") == 1
    assert keep.read_text() == "previous contents\n"
    assert sorted(os.listdir(tmp_path)) == ["keep.txt", "perturbed.json"]


def test_long_confluent_chain_passes_within_the_work_budget(capsys):
    # the square of the 8-fold chain has 41,664 degree-3 overlaps; the copy
    # classes of completion resolve them through 6 representative subsets
    code, out, _ = run(capsys, "verify", "chain", "glq2", "-n", "8", "-D", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["completion_warning"] is False


# the Jordanian R-matrix with h written as q, rows and columns in the pair
# order 11, 12, 21, 22: (1, q, -q, q^2), (0, 1, 0, q), (0, 0, 1, -q), (0, 0, 0, 1)
JORDAN = {(1, 1, 1, 1): "1", (1, 1, 1, 2): "q", (1, 1, 2, 1): "-q", (1, 1, 2, 2): "q^2",
          (1, 2, 1, 2): "1", (1, 2, 2, 2): "q", (2, 1, 2, 1): "1", (2, 1, 2, 2): "-q",
          (2, 2, 2, 2): "1"}


@pytest.mark.parametrize("argv, code", [
    (["pert2", "-n", "4", "-D", "4"], 1),
    (["jordan", "-n", "6", "-D", "4", "--mode", "probabilistic"], 0)], ids=["pert2", "jordan"])
def test_long_non_confluent_chain_verifies_on_the_quadratic_rules(tmp_path, capsys, perturbed_doc,
                                                                  argv, code):
    # both squares are not confluent and their full completions exceed the
    # work budget, but every image reduces to zero with the quadratic rules,
    # so the report is whole (pert2 fails only on Yang-Baxter), in about 0.2 s
    jordan = tmp_path / "jordan.json"
    jordan.write_text(save_rmatrix(RMatrix(2, {k: qs.parse_scalar(v) for k, v in JORDAN.items()})))
    docs = {"pert2": perturbed_doc, "jordan": str(jordan)}
    start = time.perf_counter()
    got, out, err = run(capsys, "verify", "chain", docs[argv[0]], *argv[1:])
    assert time.perf_counter() - start < 5
    assert got == code and "error:" not in err
    doc = json.loads(out)
    assert doc["completion_warning"] is True and doc["ybe"] is (code == 0)
    assert all(v["verdict"] == "pass" for v in doc["relations"])


@pytest.fixture
def singular_doc(tmp_path, monkeypatch):
    """The SINGULAR_EXCHANGE document, named relative to the working directory
    so that verify reports do not depend on where it lives."""
    monkeypatch.chdir(tmp_path)
    Path("singular.json").write_text(json.dumps({"dim": 2, "entries": [
        {"i": i, "j": j, "k": k, "l": l, "coeff": c}
        for (i, j, k, l), c in SINGULAR_EXCHANGE.items()]}))
    return "singular.json"


@pytest.mark.parametrize("argv, word", [
    (("present", "chain", "singular.json", "-n", "2"), "u1[2,2]*u2[1,2]"),
    (("present", "square", "singular.json"), "L.u[2,2]*R.u[2,1]"),
], ids=["chain-n2", "square"])
def test_singular_exchange_block_is_an_orientation_error(capsys, singular_doc, argv, word):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: OrientationError: ") and err.count("\n") == 1
    assert f"ascending cross-copy word {word})" in err


# (argv, forced word, stdout length, stdout SHA-256) of verify runs on the
# SINGULAR_EXCHANGE document; each report is an orientation failure
SINGULAR_VERIFY = (
    (("verify", "bm", "singular.json"), "L.u[2,2]*R.u[2,1]", 1023,
     "aace109c1c1715b914c616f12dfb1f9d718db76ef32eebe7c5802ff2770bf650"),
    (("verify", "bm", "singular.json", "--mode", "probabilistic"), "L.u[2,2]*R.u[2,1]", 1064,
     "31ca13637d06767d87f73367892effe5c25c451575c67f20bc16331d0c73db83"),
    (("verify", "chain", "singular.json", "-n", "2"), "u1[2,2]*u2[1,2]", 1022,
     "f2ccd2720549e3366c2ed0a1b2f8bd23925637f66f9367acba0bfdef6da995a0"),
)


@pytest.mark.parametrize("argv, word, length, sha256", SINGULAR_VERIFY,
                         ids=["bm", "bm-sampled", "chain-n2"])
def test_singular_exchange_block_fails_verify_on_orientation(capsys, singular_doc, argv,
                                                             word, length, sha256):
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 1 and doc["passed"] is False and doc["invertible"] is True
    assert f"ascending cross-copy word {word})" in doc["orientation"]
    assert doc["failure"] == "orientation failure: " + doc["orientation"]
    assert doc["relations"] == [] and doc["counit"] is None
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (length, sha256)


def test_running_out_of_sample_points_is_an_error(tmp_path, capsys):
    # a dim-1 R-matrix that vanishes at every value q0 = +-n/d the sampler
    # can draw (2 <= n <= 19, 1 <= d <= 7): each draw is a pole of R^-1
    values = {sign * Fraction(n, d) for n in range(2, 20) for d in range(1, 8)
              for sign in (1, -1)}
    assert len(values) == 176
    entry = "*".join(f"({v.denominator}*q - ({v.numerator}))" for v in sorted(values))
    path = tmp_path / "roots.json"
    path.write_text(json.dumps({"dim": 1, "entries": [
        {"i": 1, "j": 1, "k": 1, "l": 1, "coeff": entry}]}))
    keep = tmp_path / "keep.txt"
    keep.write_text("kept\n")
    code, out, err = run(capsys, "verify", "bm", str(path), "-D", "4",
                         "--mode", "probabilistic", "-o", str(keep))
    assert code == 1 and out == ""
    assert err.startswith("error: SamplingError:") and err.count("\n") == 1
    assert keep.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["keep.txt", "roots.json"]


def test_unprintable_integer_is_an_error(tmp_path, capsys):
    # a 3000-digit coefficient parses, but the Yang-Baxter residue has more
    # digits than the interpreter prints; that is an error, not a traceback
    R = glq2_rmatrix()
    big = RMatrix(2, dict(R.entries) | {(1, 1, 1, 1): qs.parse_scalar("7" * 3000)})
    path = tmp_path / "big.json"
    path.write_text(save_rmatrix(big))
    code, out, err = run(capsys, "ybe", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: QScalarError") and err.count("\n") == 1
    assert "Traceback" not in err
    keep = tmp_path / "keep.txt"
    keep.write_text("kept\n")
    code, out, err = run(capsys, "ybe", str(path), "-o", str(keep))
    assert code == 1 and out == "" and "Traceback" not in err
    assert keep.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["big.json", "keep.txt"]


def test_unknown_rmatrix_is_usage_error(capsys):
    code, _, err = run(capsys, "ybe", "nosuchthing")
    assert code == 2
    assert "usage error" in err


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run(capsys, "present", "bogus", "glq2")
    assert code == 2


def test_n_flag_on_non_chain_is_usage_error(capsys):
    code, _, err = run(capsys, "present", "bm", "glq2", "-n", "2")
    assert code == 2


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "doc.txt"
    code, out, _ = run(capsys, "present", "bm", "glq2", "-o", str(target))
    assert code == 0
    assert out == ""
    assert "generators: u[1,1]" in target.read_text()


def test_verify_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "bm", "glq2", "-D", "4")
    code_o, out_o, _ = run(capsys, "verify", "bm", "glq2", "-D", "4", "-o", str(target))
    assert code == code_o == 0 and out_o == ""
    assert len(json.loads(out)["relations"]) > 1
    assert target.read_bytes() == out.encode()


def test_output_failing_mid_document_keeps_the_target(tmp_path, capsys, monkeypatch):
    keep = tmp_path / "keep.json"
    keep.write_text("previous contents\n")

    def open_failing_after_one_chunk(path, mode):
        fh = open(path, mode)

        def writelines(chunks):
            for i, chunk in enumerate(chunks):
                if i:
                    raise OSError(28, "No space left on device")
                fh.write(chunk)
        fh.writelines = writelines
        return fh

    monkeypatch.setattr(cli, "open", open_failing_after_one_chunk, raising=False)
    code, out, err = run(capsys, "verify", "bm", "glq2", "-D", "4", "-o", str(keep))
    assert code == 2 and out == ""
    assert "cannot write output" in err and "No space left" in err
    assert keep.read_text() == "previous contents\n"
    assert os.listdir(tmp_path) == ["keep.json"]


# the report (124,215 bytes) is larger than a pipe's 64 KiB buffer; the
# verdict line is smaller than stdout's own buffer, so only the last flush
# meets the closed pipe
@pytest.mark.parametrize("argv", [["verify", "chain", "glq2", "-n", "2", "-D", "4"],
                                  ["ybe", "glq2"]], ids=["verify", "ybe"])
def test_closed_stdout_is_an_error_without_traceback(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    # stdout block-buffered, as the interpreter sets it up for a pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "braidalg", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env | {"PYTHONPATH": src})
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == \
        ["error: stdout was closed before the document was written"]


def test_rmatrix_file_loading_roundtrip(tmp_path, capsys):
    path = tmp_path / "glq2.json"
    path.write_text(save_rmatrix(glq2_rmatrix()))
    assert load_rmatrix(path.read_text()) == glq2_rmatrix()
    code, out, _ = run(capsys, "ybe", str(path))
    assert code == 0 and out == "YBE: PASS\n"


# -- output files and hostile input --------------------------------------------

def test_usage_error_keeps_existing_output(tmp_path, capsys):
    keep = tmp_path / "keep.txt"
    keep.write_text("previous contents\n")
    code, out, err = run(capsys, "verify", "frt", "glq2", "-o", str(keep))
    assert code == 2 and out == "" and "usage error" in err
    assert keep.read_text() == "previous contents\n"
    assert os.listdir(tmp_path) == ["keep.txt"]


def test_output_replaces_existing_file_on_success(tmp_path, capsys):
    target = tmp_path / "doc.txt"
    target.write_text("stale\n")
    code, out, _ = run(capsys, "biinv", "flip:2", "-o", str(target))
    assert code == 1 and out == ""
    assert target.read_text() == "invertible: yes\nsecond_inverse: absent\n"
    assert os.listdir(tmp_path) == ["doc.txt"]


def test_output_into_missing_directory_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "ybe", "glq2", "-o", str(tmp_path / "nodir" / "x.txt"))
    assert code == 2 and out == "" and "no directory" in err
    assert not (tmp_path / "nodir").exists()
    code, _, err = run(capsys, "ybe", "glq2", "-o", str(tmp_path))
    assert code == 2 and "is a directory" in err


def _entry(coeff):
    return {"i": 1, "j": 1, "k": 1, "l": 1, "coeff": coeff}


@pytest.mark.parametrize("doc", [
    {"dim": 2, "entries": 7},
    {"dim": 2, "entries": [_entry(5)]},
    {"dim": 17, "entries": []},
    {"dim": 1, "entries": [_entry("(1+q)^1600")]},
    {"dim": 1, "entries": [_entry("(" * 5000 + "q" + ")" * 5000)]},
    {"dim": 1, "entries": [_entry("9" * 5000)]},
    # the scalar grammar knows one name, q
    {"dim": 1, "entries": [_entry("2*x")]},
    {"dim": 1, "entries": [_entry("u[1,1]")]},
])
def test_bad_documents_are_usage_errors(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "ybe", str(path))
    assert code == 2 and out == ""
    assert err.startswith("usage error: bad R-matrix document")


@pytest.mark.parametrize("name", ["identity:17", "flip:1000000000"])
def test_builtin_dimension_bound_is_usage_error(capsys, name):
    code, out, err = run(capsys, "ybe", name)
    assert code == 2 and out == "" and "dim must be between 1 and 16" in err


@pytest.mark.parametrize("poly", ["(1+q)^1600 * u[1,1]",
                                  "(" * 5000 + "u[1,1]" + ")" * 5000])
def test_nf_bounds_are_usage_errors(capsys, poly):
    code, out, err = run(capsys, "nf", "bm", "glq2", poly)
    assert code == 2 and out == "" and "bad polynomial" in err


_DIMS = st.sampled_from([-1, 0, 1, 2, 17, 10 ** 6, "2", 2.0])
_VALID_COEFFS = st.sampled_from(["1", "q", "q - q^-1", "q^-1", "-2", "0", "1 + q"])
_COEFFS = st.one_of(st.text(alphabet="q0123+-*/^() ", max_size=6),
                    st.integers(-3, 3), st.none(), st.lists(st.just("q"), max_size=1))
_JUNK = st.one_of(st.integers(), st.text(max_size=3),
                  st.dictionaries(st.text(max_size=1), st.integers(), max_size=2))


@st.composite
def _documents(draw):
    """A valid R-matrix document (dim 1 or 2, half the time), then at most
    one mutation: a bad coefficient, index, record, entries list or dim."""
    dim = draw(st.one_of(st.sampled_from([1, 2]), _DIMS))
    index = st.integers(1, dim if dim in (1, 2) else 2)
    cells = draw(st.dictionaries(st.tuples(index, index, index, index), _VALID_COEFFS,
                                 max_size=8))
    entries = [{"i": i, "j": j, "k": k, "l": l, "coeff": c}
               for (i, j, k, l), c in sorted(cells.items())]
    doc = {"dim": dim, "entries": entries}
    mutation = draw(st.sampled_from(["none"] * 4 + ["coeff", "index", "record", "entries",
                                                      "doc"]))
    if mutation == "coeff" and entries:
        draw(st.sampled_from(entries))["coeff"] = draw(_COEFFS)
    elif mutation == "index" and entries:
        rec = draw(st.sampled_from(entries))
        rec[draw(st.sampled_from("ijkl"))] = draw(st.sampled_from([0, 3, -1, "1", 1.0, None]))
    elif mutation == "record":
        entries.append(draw(st.one_of(_JUNK, st.just(dict(entries[0])) if entries else _JUNK)))
    elif mutation == "entries":
        doc["entries"] = draw(_JUNK)
    elif mutation == "doc":
        doc = draw(st.one_of(_JUNK, st.lists(st.integers(), max_size=2)))
    return doc


@settings(max_examples=120, deadline=None)
@given(doc=_documents(), command=st.sampled_from([["ybe"], ["biinv"], ["present", "bm"]]),
       output=st.sampled_from([None, "existing", "missing"]))
def test_fuzz_main_on_mutated_documents(doc, command, output):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = command + [path]
        target = None
        if output == "existing":
            target = os.path.join(tmp, "keep.txt")
            with open(target, "w") as fh:
                fh.write("kept\n")
            argv += ["-o", target]
        elif output == "missing":
            argv += ["-o", os.path.join(tmp, "nodir", "out.txt")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if output == "missing":
            assert code == 2
        if target is not None:
            with open(target) as fh:
                kept = fh.read() == "kept\n"
            # a run that ends in an error leaves the target as it was; a
            # verdict (exit 0 or 1) replaces it with the document
            failed = err.getvalue().startswith(("usage error", "error:"))
            assert kept == failed
            if code == 2:
                assert kept
            assert out.getvalue() == ""
            assert sorted(os.listdir(tmp)) == ["keep.txt", "r.json"]


@settings(max_examples=80, deadline=None)
@given(poly=st.text(alphabet="u[1,2]*q^-+/() 0", max_size=24),
       preset=st.sampled_from(["bm", "frt", "square", "chain"]))
def test_fuzz_nf_polynomials(poly, preset):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["nf", preset, "glq2", poly])
        except SystemExit as e:  # argparse reads a leading '-' as an option
            code = e.code
    assert code in (0, 2)
    assert (out.getvalue() != "") == (code == 0)

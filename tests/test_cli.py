"""Command-line interface: subcommands, exit codes, determinism, round-trips."""

import json

import pytest

from braidalg import qscalar as qs
from braidalg.cli import (format_presentation_document, main,
                          parse_presentation_document)
from braidalg.rmat import RMatrix, glq2_rmatrix, load_rmatrix, save_rmatrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def perturbed_doc(tmp_path):
    R = glq2_rmatrix()
    Rp = RMatrix(2, dict(R.entries) | {(1, 2, 2, 1): qs.parse_scalar("1 + q")})
    path = tmp_path / "perturbed.json"
    path.write_text(save_rmatrix(Rp))
    return str(path)


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
    code, out, err = run(capsys, "hilbert", "bm", "glq2", "-D", "-3")
    assert code == 2
    assert out == ""
    assert "usage error" in err and "nonnegative" in err


def test_square_iso_negative_bound_is_usage_error(capsys):
    code, out, err = run(capsys, "square-iso", "glq2", "-D", "-1")
    assert code == 2
    assert out == ""
    assert "usage error" in err and "nonnegative" in err


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


def test_rmatrix_file_loading_roundtrip(tmp_path, capsys):
    path = tmp_path / "glq2.json"
    path.write_text(save_rmatrix(glq2_rmatrix()))
    assert load_rmatrix(path.read_text()) == glq2_rmatrix()
    code, out, _ = run(capsys, "ybe", str(path))
    assert code == 0 and out == "YBE: PASS\n"

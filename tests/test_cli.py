import json
import os

import numpy as np
import pytest

from torsflow.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
KOVALEVSKAYA = os.path.join(DATA, "kovalevskaya.json")
REP_MINUS_ONE = os.path.join(DATA, "rep_minus_one.json")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_kovalevskaya_text(capsys):
    code, out, err = run(capsys, ["compute", "--input", KOVALEVSKAYA])
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last == "total torsion modulus: 4.00000000, acyclic: yes"


def test_compute_fast_unavailable(capsys):
    code, out, err = run(capsys, ["compute", "--input", KOVALEVSKAYA, "--mode", "fast"])
    assert code == 2
    assert "fast path" in err


def test_compute_malformed_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, ["compute", "--input", str(bad)])
    assert code == 3
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, ["compute", "--input", str(missing)])
    assert code == 3
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"representation": {"dim": 1}, "blocks": []}))
    code, out, err = run(capsys, ["compute", "--input", str(schema)])
    assert code == 3


def test_compute_invalid_model_exits_2(tmp_path, capsys):
    doc = json.loads(open(KOVALEVSKAYA).read())
    doc["blocks"] = list(reversed(doc["blocks"]))
    path = tmp_path / "reordered.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["compute", "--input", str(path)])
    assert code == 2
    assert "listed after" in err


def test_compute_json_round_trip_determinism(capsys):
    code, out1, _ = run(capsys, ["compute", "--input", KOVALEVSKAYA, "--format", "json"])
    assert code == 0
    code, out2, _ = run(capsys, ["compute", "--input", KOVALEVSKAYA, "--format", "json"])
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["total"] == 4.0
    assert doc["acyclic"] is True
    assert doc["page_torsions"]["d1"] == 4.0
    assert doc["page_dims"]["E1"] == {"0,0": 2, "0,1": 2, "1,0": 2, "1,1": 2}


def test_text_and_json_agree(capsys):
    _, text, _ = run(capsys, ["compute", "--input", KOVALEVSKAYA])
    _, js, _ = run(capsys, ["compute", "--input", KOVALEVSKAYA, "--format", "json"])
    doc = json.loads(js)
    assert f"total torsion modulus: {doc['total']:.8f}" in text
    assert f"|tau_d1| = {doc['page_torsions']['d1']:.8f}" in text


def test_oracle_lens_with_rep(capsys):
    code, out, _ = run(capsys, ["oracle", "--lens", "2,1", "--rep", REP_MINUS_ONE])
    assert code == 0
    assert "torsion modulus: 4.00000000, acyclic: yes" in out


def test_oracle_lens_trivial_rep(capsys):
    code, out, _ = run(capsys, ["oracle", "--lens", "2,1"])
    assert code == 0
    assert "H^0:1 H^1:0 H^2:0 H^3:1" in out
    assert "acyclic: no" in out


def test_oracle_lens_gcd(capsys):
    code, out, err = run(capsys, ["oracle", "--lens", "4,2"])
    assert code == 2
    assert "gcd" in err


def test_oracle_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, ["oracle"])
    assert code == 2
    code, _, err = run(capsys, ["oracle", "--lens", "2,1", "--cw", "x.json"])
    assert code == 2


def test_oracle_cw_document(tmp_path, capsys):
    from torsflow import rp3

    path = tmp_path / "rp3.json"
    path.write_text(json.dumps({"cw": rp3().to_document()}))
    code, out, _ = run(capsys, ["oracle", "--cw", str(path), "--rep", REP_MINUS_ONE])
    assert code == 0
    assert "torsion modulus: 4.00000000" in out


def test_boolean_entries_exit_3(tmp_path, capsys):
    # JSON true/false is never a number here, though Python's bool is an int
    from torsflow import ParseError, rp3
    from torsflow.documents import parse_complex_matrix

    with pytest.raises(ParseError):
        parse_complex_matrix([[[True, False]]], "g")
    doc = json.loads(open(KOVALEVSKAYA).read())
    doc["representation"]["generators"]["g"] = [[[True, False]]]
    path = tmp_path / "bool_entry.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["compute", "--input", str(path)])
    assert code == 3
    assert "[re, im] pairs" in err
    cw = rp3().to_document()
    cell, terms = next(iter(cw["boundaries"].items()))
    terms[0][1] = True
    path = tmp_path / "bool_incidence.json"
    path.write_text(json.dumps({"cw": cw}))
    code, _, err = run(capsys, ["oracle", "--cw", str(path), "--rep", REP_MINUS_ONE])
    assert code == 3
    assert "incidence" in err


def test_oracle_json_format(capsys):
    code, out, _ = run(capsys, ["oracle", "--lens", "5,1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["cohomology_dims"] == [1, 0, 0, 1]
    assert doc["acyclic"] is False


def test_tolerance_env_and_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORSFLOW_TOLERANCE", "1e-8")
    code, out, _ = run(capsys, ["compute", "--input", KOVALEVSKAYA, "--format", "json"])
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-8
    # the flag wins over the environment
    code, out, _ = run(
        capsys, ["compute", "--input", KOVALEVSKAYA, "--format", "json", "--tolerance", "1e-9"]
    )
    assert json.loads(out)["tolerance"] == 1e-9
    monkeypatch.setenv("TORSFLOW_TOLERANCE", "banana")
    code, _, err = run(capsys, ["compute", "--input", KOVALEVSKAYA])
    assert code == 2


def test_rep_document_with_complex_entries(tmp_path, capsys):
    z = np.exp(2j * np.pi / 5)
    doc = {"representation": {"dim": 1, "generators": {"t": [[[z.real, z.imag]]]}}}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["oracle", "--lens", "5,1", "--rep", str(path), "--format", "json"])
    assert code == 0
    expect = abs(z - 1) ** 2
    assert json.loads(out)["torsion"] == pytest.approx(expect, rel=1e-10)


def test_compute_validates_once(capsys, monkeypatch):
    from torsflow import bott

    calls = []
    original = bott.validate_model
    monkeypatch.setattr(bott, "validate_model", lambda m: calls.append(m) or original(m))
    code, out, err = run(capsys, ["compute", "--input", KOVALEVSKAYA])
    assert code == 0
    assert len(calls) == 1

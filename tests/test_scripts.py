"""The runnable scripts in scripts/, run in process at their defaults."""

import importlib.util
import json
import pathlib

from diagsynth.errors import BudgetExceeded

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_families(tmp_path, capsys):
    script = load("reproduce_families")
    assert script.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(script.RUNS)
    assert not [line for line in lines if "NOT preserved" in line]
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == len(script.RUNS)
    steane = json.loads((tmp_path / "steane.json").read_text())
    assert steane["preserved"] and steane["logical"]["level"] == 2
    assert steane["oracle"]["verdicts_agree"]


def test_reproduce_families_fails_when_not_preserved(tmp_path, monkeypatch, capsys):
    # a report that calls four22 not preserved makes the script exit 1
    script = load("reproduce_families")
    monkeypatch.setattr(script, "RUNS", [("steane", []), ("four22", [])])
    monkeypatch.setattr(script, "build_report", lambda code, gate, **kw: {"preserved": code.n == 7})
    assert script.main([str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert ["NOT preserved" in line for line in lines] == [False, True]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["four22.json", "steane.json"]


def test_run_qrm_pipeline(tmp_path, capsys):
    out = tmp_path / "final.json"
    assert load("run_qrm_pipeline").main(["--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "final [[64,15]]: preserved=True" in text
    cert = json.loads(text[text.index("{"):])
    assert cert["ccz_product_form"] and cert["family_form"]
    assert json.loads(out.read_text())["n"] == 64


def test_run_qrm_pipeline_certificate_refused(tmp_path, monkeypatch, capsys):
    # a certificate refused by the budget, without a run that meets one
    script = load("run_qrm_pipeline")

    def refuse(res):
        raise BudgetExceeded("2^28 logical diagonal", required_log2=28)

    monkeypatch.setattr(script, "qrm_pipeline_certificate", refuse)
    out = tmp_path / "final.json"
    assert script.main(["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "final [[64,15]]" in captured.out and "certificate" not in captured.out
    assert captured.err == (
        "error: certificate refused: 2^28 logical diagonal (required_log2=28)\n"
    )
    # the final code is written before the certificate
    assert json.loads(out.read_text())["n"] == 64


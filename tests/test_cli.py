"""End-to-end CLI behavior: exit codes, JSON determinism, file formats."""

import json

import pytest

from diagsynth import gencoeff
from diagsynth.cli import main
from diagsynth.csscode import CssCode, code_to_json
from diagsynth.errors import BudgetExceeded
from diagsynth.families import qrm_code, qrm_gate
from diagsynth.gates import gate_from_json, gate_to_json, transversal_zrot
from diagsynth.report import build_report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def steane_files(tmp_path, capsys):
    code_path = tmp_path / "steane.json"
    gate_path = tmp_path / "gate.json"
    rc, _ = run(capsys, "family", "steane", "--out", str(code_path), "--gate-out", str(gate_path))
    assert rc == 0
    return code_path, gate_path


class TestFamily:
    def test_steane_build(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        rc, text = run(capsys, "family", "steane", "--out", str(out))
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["n"] == 7 and len(data["x_stabilizers"]) == 3

    def test_qrm_params(self, tmp_path, capsys):
        rc, text = run(capsys, "family", "qrm", "2", "4")
        assert rc == 0
        assert json.loads(text)["k"] == 6

    def test_two_l(self, capsys):
        rc, text = run(capsys, "family", "two_l", "4")
        assert rc == 0
        parsed = json.loads(text)
        assert (parsed["n"], parsed["k"]) == (16, 4)

    def test_qrm_pipeline(self, tmp_path, capsys):
        code_path = tmp_path / "q.json"
        gate_path = tmp_path / "g.json"
        rc, text = run(
            capsys, "family", "qrm_pipeline", "1", "2",
            "--out", str(code_path), "--gate-out", str(gate_path),
        )
        assert rc == 0
        assert json.loads(text) == {
            "family": "qrm_pipeline",
            "params": [1, 2],
            "final": {"n": 64, "k": 15},
            "concats": 4,
            "removals": 19,
            "additions": 6,
        }
        assert json.loads(code_path.read_text()) == code_to_json(qrm_code(2, 6))
        assert json.loads(gate_path.read_text()) == gate_to_json(transversal_zrot(64, 3))

    def test_bad_params_exit_2(self, capsys):
        rc, _ = run(capsys, "family", "qrm", "9")
        assert rc == 2
        rc, _ = run(capsys, "family", "unknown")
        assert rc == 2


class TestVerify:
    def test_preserved_exit_0(self, steane_files, capsys):
        code_path, gate_path = steane_files
        rc, text = run(capsys, "verify", "--code", str(code_path), "--gate", str(gate_path))
        assert rc == 0
        rep = json.loads(text)
        assert rep["preserved"] and rep["logical"]["level"] == 2
        assert rep["logical"]["template"] == "P'"

    def test_not_preserved_exit_3(self, tmp_path, capsys):
        code_path = tmp_path / "c.json"
        run(capsys, "family", "four22", "--out", str(code_path))
        gate_path = tmp_path / "t.json"
        gate_path.write_text(json.dumps({"kind": "transversal_zrot", "n": 4, "l": 3}))
        rc, text = run(capsys, "verify", "--code", str(code_path), "--gate", str(gate_path))
        assert rc == 3
        assert json.loads(text)["norm_pretty"] == "3/4"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _ = run(capsys, "verify", "--code", str(bad), "--gate", str(bad))
        assert rc == 2

    def test_identity_gate_low_degree_exit_0(self, tmp_path, capsys):
        # 15 logicals, past the row cap: the low-degree test decides, and
        # for the identity (D = 0) it has no point to evaluate
        code_path = tmp_path / "c.json"
        code_path.write_text(
            json.dumps(
                {
                    "n": 16,
                    "x_stabilizers": ["1" * 16],
                    "z_stabilizers": [],
                    "y": "0" * 16,
                }
            )
        )
        gate_path = tmp_path / "g.json"
        gate_path.write_text(json.dumps({"kind": "blocks", "n": 16, "blocks": []}))
        rc, text = run(
            capsys,
            "verify",
            "--code", str(code_path),
            "--gate", str(gate_path),
            "--budget", "8192",
            "--no-row",
        )
        assert rc == 0
        rep = json.loads(text)
        assert rep["preservation_method"] == "low-degree"
        assert rep["certificate"] == "exact-full"
        assert gencoeff.low_degree_bound(gate_from_json(json.loads(gate_path.read_text()))) == 0

    def test_deterministic_output(self, steane_files, capsys):
        code_path, gate_path = steane_files
        _, a = run(capsys, "verify", "--code", str(code_path), "--gate", str(gate_path))
        _, b = run(capsys, "verify", "--code", str(code_path), "--gate", str(gate_path))
        assert a == b

    def test_report_rebuilds_from_its_own_inputs(self, steane_files, tmp_path, capsys):
        code_path, gate_path = steane_files
        _, first = run(capsys, "verify", "--code", str(code_path), "--gate", str(gate_path))
        rep = json.loads(first)
        code2 = tmp_path / "code2.json"
        gate2 = tmp_path / "gate2.json"
        code2.write_text(json.dumps(rep["code_json"]))
        gate2.write_text(json.dumps(rep["gate"]))
        _, second = run(capsys, "verify", "--code", str(code2), "--gate", str(gate2))
        assert first == second


class TestTransforms:
    def test_concat_and_remove_chain(self, steane_files, tmp_path, capsys):
        code_path, gate_path = steane_files
        big = tmp_path / "c14.json"
        gate14 = tmp_path / "g14.json"
        rc, _ = run(
            capsys, "concat", "--code", str(code_path), "--out", str(big),
            "--gate", str(gate_path), "--gate-out", str(gate14),
        )
        assert rc == 0
        assert json.loads(gate14.read_text()) == {"kind": "transversal_zrot", "n": 14, "l": 3}
        out = tmp_path / "c1422.json"
        rc, text = run(
            capsys, "remove-z", "--code", str(big), "--gate", str(gate14),
            "--w0", "1" * 7 + "0" * 7, "--out", str(out),
        )
        assert rc == 0
        step = json.loads(text)
        assert step["admissible"] and step["k"] == 2
        rc, text = run(capsys, "verify", "--code", str(out), "--gate", str(gate14), "--no-row")
        assert rc == 0
        rep = json.loads(text)
        assert rep["logical"]["level"] == 3
        assert rep["logical"]["template"] == "(T')^tensor2"

    def test_strict_inadmissible_exit_5(self, steane_files, tmp_path, capsys):
        code_path, gate_path = steane_files
        out = tmp_path / "x.json"
        rc, _ = run(
            capsys, "remove-z", "--code", str(code_path), "--gate", str(gate_path),
            "--w0", "1000000", "--out", str(out), "--strict",
        )
        assert rc == 5

    def test_add_x_reports_witness(self, steane_files, tmp_path, capsys):
        code_path, gate_path = steane_files
        big = tmp_path / "c14.json"
        gate14 = tmp_path / "g14.json"
        run(capsys, "concat", "--code", str(code_path), "--out", str(big),
            "--gate", str(gate_path), "--gate-out", str(gate14))
        c1422 = tmp_path / "c1422.json"
        run(capsys, "remove-z", "--code", str(big), "--gate", str(gate14),
            "--w0", "1" * 7 + "0" * 7, "--out", str(c1422))
        out = tmp_path / "bad.json"
        rc, text = run(
            capsys, "add-x", "--code", str(c1422), "--gate", str(gate14),
            "--x0", "1" * 7 + "0" * 7, "--out", str(out),
        )
        assert rc == 0
        step = json.loads(text)
        assert step["admissible"] is False and "witness" in step


class TestPipeline:
    def test_script(self, steane_files, tmp_path, capsys):
        code_path, gate_path = steane_files
        script = tmp_path / "steps.json"
        script.write_text(
            json.dumps(
                [
                    {"op": "concat", "lift": "next_level_rotation"},
                    {"op": "remove_z", "w0": "1" * 7 + "0" * 7},
                    {"op": "verify"},
                ]
            )
        )
        rc, text = run(
            capsys, "pipeline", "--code", str(code_path), "--gate", str(gate_path),
            "--script", str(script),
        )
        assert rc == 0
        rep = json.loads(text)
        assert rep["final"] == {"n": 14, "k": 2}
        assert all(s["admissible"] for s in rep["steps"])

    def test_full_growth_script(self, tmp_path, capsys):
        # the whole [[4,2,2]] -> [[64,15,4]] construction as a JSON script
        from diagsynth import gf2, synth
        from diagsynth.csscode import code_to_json
        from diagsynth.families import four22_code, qrm_code, rm_generator

        code = four22_code()
        big = code
        for _ in range(4):
            big = synth.concatenate(big)
        w0s = gf2.quotient_basis(rm_generator(2, 6), big.c1)
        x0s = gf2.quotient_basis(rm_generator(1, 6), big.x_stab)
        script = [{"op": "concat"}] * 4
        script.append(
            {"op": "set_gate", "gate": {"kind": "transversal_zrot", "n": 64, "l": 3}}
        )
        script += [{"op": "remove_z", "w0": w.to01(), "check": "skip"} for w in w0s]
        script += [{"op": "add_x", "x0": x.to01(), "check": "skip"} for x in x0s]
        script.append({"op": "verify"})
        code_path = tmp_path / "c.json"
        code_path.write_text(json.dumps(code_to_json(code)))
        gate_path = tmp_path / "g.json"
        gate_path.write_text(json.dumps({"kind": "transversal_zrot", "n": 4, "l": 2}))
        script_path = tmp_path / "s.json"
        script_path.write_text(json.dumps(script))
        out = tmp_path / "final.json"
        rc, text = run(
            capsys, "pipeline", "--code", str(code_path), "--gate", str(gate_path),
            "--script", str(script_path), "--out", str(out),
        )
        assert rc == 0
        rep = json.loads(text)
        assert rep["final"] == {"n": 64, "k": 15}
        assert rep["steps"][-1]["kind"] == "verify" and rep["steps"][-1]["admissible"]
        final = json.loads(out.read_text())
        assert final == json.loads(json.dumps(code_to_json(qrm_code(2, 6))))

    def test_empty_script(self, steane_files, tmp_path, capsys):
        code_path, gate_path = steane_files
        script = tmp_path / "steps.json"
        script.write_text("[]")
        rc, text = run(
            capsys, "pipeline", "--code", str(code_path), "--gate", str(gate_path),
            "--script", str(script),
        )
        assert rc == 0
        assert json.loads(text)["steps"] == []


class TestLargeVerify:
    def test_verify_64_15_4(self, tmp_path, capsys):
        code_path = tmp_path / "q26.json"
        gate_path = tmp_path / "t64.json"
        rc, _ = run(
            capsys, "family", "qrm", "2", "6",
            "--out", str(code_path), "--gate-out", str(gate_path),
        )
        assert rc == 0
        assert json.loads(gate_path.read_text()) == {
            "kind": "transversal_zrot", "n": 64, "l": 3,
        }
        rc, text = run(
            capsys, "verify", "--code", str(code_path), "--gate", str(gate_path),
            "--wmax", "4", "--no-row",
        )
        assert rc == 0
        rep = json.loads(text)
        assert rep["preserved"]
        assert rep["preservation_method"] == "low-degree"
        assert rep["code"]["d_z"] == {"value": 4, "exact": True}
        assert rep["logical"]["level"] == 3

    def test_verify_qrm_3_6(self, tmp_path, capsys):
        # [[64,20,8]], which the 2^42 codeword scan refused, is certified
        code_path = tmp_path / "q36.json"
        gate_path = tmp_path / "rot.json"
        rc, _ = run(
            capsys, "family", "qrm", "3", "6",
            "--out", str(code_path), "--gate-out", str(gate_path),
        )
        assert rc == 0
        rc, text = run(
            capsys, "verify", "--code", str(code_path), "--gate", str(gate_path), "--no-row",
        )
        assert rc == 0
        rep = json.loads(text)
        assert rep["preserved"] and rep["preservation_method"] == "low-degree"
        assert rep["code"]["d_x"] == rep["code"]["d_z"] == {"value": 8, "exact": True}

    def test_default_wmax_distances_exact(self, tmp_path, capsys):
        code_path = tmp_path / "q26.json"
        gate_path = tmp_path / "t64.json"
        rc, _ = run(
            capsys, "family", "qrm", "2", "6",
            "--out", str(code_path), "--gate-out", str(gate_path),
        )
        assert rc == 0
        rc, text = run(
            capsys, "verify", "--code", str(code_path), "--gate", str(gate_path), "--no-row",
        )
        assert rc == 0
        rep = json.loads(text)
        assert rep["code"]["d_x"] == {"value": 16, "exact": True}
        assert rep["code"]["d_z"] == {"value": 4, "exact": True}


class TestOracleCommand:
    def test_oracle(self, steane_files, capsys):
        code_path, gate_path = steane_files
        rc, text = run(capsys, "oracle", "--code", str(code_path), "--gate", str(gate_path))
        assert rc == 0
        rep = json.loads(text)
        assert rep["verdicts_agree"] and rep["max_row_deviation"] < 1e-9


class TestReportCommand:
    def test_full_report(self, steane_files, capsys):
        code_path, gate_path = steane_files
        rc, text = run(
            capsys, "report", "--code", str(code_path), "--gate", str(gate_path), "--oracle"
        )
        assert rc == 0
        rep = json.loads(text)
        assert rep["code"]["d_z"]["value"] == 3
        assert rep["oracle"]["verdicts_agree"]

    def test_code_only_report(self, steane_files, capsys):
        code_path, _ = steane_files
        rc, text = run(capsys, "report", "--code", str(code_path))
        assert rc == 0
        assert "gate" not in json.loads(text)

    def test_refusal_precedes_distance_search(self, monkeypatch):
        # the low-degree test of [[64,20,8]] (C(42,1) + C(42,2) = 903
        # points) refuses a smaller budget at once; the distance search
        # must not run before it
        def fail(*args, **kwargs):
            raise AssertionError("distances computed before the verdict")

        monkeypatch.setattr(CssCode, "distances", fail)
        with pytest.raises(BudgetExceeded, match="low-degree certificate: 903 points") as exc:
            build_report(qrm_code(3, 6), qrm_gate(3, 6), budget=900)
        assert exc.value.required_log2 == 10

"""End-to-end CLI behavior: exit codes, JSON determinism, file formats."""

import json
import re

import pytest

from diagsynth import gencoeff
from diagsynth.cli import main
from diagsynth.csscode import CssCode, code_from_json, code_to_json
from diagsynth.errors import BudgetExceeded
from diagsynth.families import family_2l_l_2, qrm_code, qrm_gate, triorthogonal_2
from diagsynth.gates import gate_from_json, gate_to_json, transversal_zrot
from diagsynth.gf2 import BitMat, BitVec
from diagsynth.report import build_report

from conftest import assert_point_witness


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

    def test_two_l_past_level_6(self, capsys):
        rc, text = run(capsys, "family", "two_l", "7")
        assert rc == 0
        parsed = json.loads(text)
        assert (parsed["n"], parsed["k"]) == (128, 7)
        assert parsed["logical"] == "C^(6)Z up to logical Pauli Z"
        assert main(["family", "two_l", "8"]) == 2
        assert capsys.readouterr().err == "error: rotation index must be in 1..7\n"

    @pytest.mark.parametrize("name, param", [("two_l", 6), ("tri2", 2)])
    def test_budget_reaches_grown_families(self, capsys, name, param):
        # the CLI refuses as the builder does at the same budget
        builder = {"two_l": family_2l_l_2, "tri2": triorthogonal_2}[name]
        with pytest.raises(BudgetExceeded) as want:
            builder(param, budget=4)
        assert main(["family", name, str(param), "--budget", "4"]) == 2
        assert capsys.readouterr().err == f"error: {want.value}\n"

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

    @pytest.mark.parametrize(
        "params, message",
        [
            (["1"], "family qrm_pipeline takes 2 parameter(s)"),
            (["1", "2", "3"], "family qrm_pipeline takes 2 parameter(s)"),
            (["0", "2"], "need 1 <= r < m"),
        ],
    )
    def test_bad_qrm_pipeline_params_exit_2(self, capsys, params, message):
        assert main(["family", "qrm_pipeline", *params]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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

    @pytest.mark.parametrize(
        "gate",
        [
            {"kind": "blocks", "n": 0, "blocks": []},
            {"kind": "blocks", "n": -1, "blocks": []},
            {"kind": "qfd", "n": 0, "l": 2, "R": []},
        ],
    )
    def test_gate_without_qubits_exit_2(self, steane_files, tmp_path, capsys, gate):
        # refused as a gate, with no traceback, not later as a size mismatch
        gate_path = tmp_path / "g.json"
        gate_path.write_text(json.dumps(gate))
        assert main(["verify", "--code", str(steane_files[0]), "--gate", str(gate_path)]) == 2
        assert capsys.readouterr().err == "error: n must be >= 1\n"

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
    """The step commands print their one-step pipeline record; the JSON is
    pinned as the commands printed it before they ran through
    ``run_pipeline``."""

    def test_concat_and_remove_chain(self, steane_files, tmp_path, capsys):
        code_path, gate_path = steane_files
        big = tmp_path / "c14.json"
        gate14 = tmp_path / "g14.json"
        rc, text = run(
            capsys, "concat", "--code", str(code_path), "--out", str(big),
            "--gate", str(gate_path), "--gate-out", str(gate14),
        )
        assert rc == 0
        assert json.loads(text) == {"k": 1, "lift": "next_level_rotation", "n": 14, "op": "concat"}
        assert json.loads(gate14.read_text()) == {"kind": "transversal_zrot", "n": 14, "l": 3}
        out = tmp_path / "c1422.json"
        rc, text = run(
            capsys, "remove-z", "--code", str(big), "--gate", str(gate14),
            "--w0", "1" * 7 + "0" * 7, "--out", str(out),
        )
        assert rc == 0
        assert json.loads(text) == {
            "admissible": True, "gamma0": "00000010000001", "k": 2, "n": 14,
            "op": "remove_z", "w0": "11111110000000",
        }
        rc, text = run(capsys, "verify", "--code", str(out), "--gate", str(gate14), "--no-row")
        assert rc == 0
        rep = json.loads(text)
        assert rep["logical"]["level"] == 3
        assert rep["logical"]["template"] == "(T')^tensor2"

    def test_concat_without_gate(self, steane_files, tmp_path, capsys):
        code_path, _ = steane_files
        out = tmp_path / "c14.json"
        rc, text = run(capsys, "concat", "--code", str(code_path), "--out", str(out))
        assert rc == 0
        assert json.loads(text) == {"k": 1, "n": 14, "op": "concat"}
        assert json.loads(out.read_text())["n"] == 14

    @pytest.mark.parametrize(
        "flag, value",
        [("--lift", "next_level_rotation"), ("--lift", "nosuch"), ("--gate-out", "g14.json")],
    )
    def test_lift_without_gate(self, steane_files, tmp_path, capsys, monkeypatch, flag, value):
        # a lift, or a lifted gate to write, needs a gate, as in a script
        code_path, _ = steane_files
        monkeypatch.chdir(tmp_path)
        rc = main(["concat", "--code", str(code_path), "--out", "c14.json", flag, value])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: concat lift requested but no gate loaded\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gate.json", "steane.json"]

    @pytest.mark.parametrize("policy", ["", "qfd_tensor"])
    def test_failed_lift_writes_nothing(self, steane_files, tmp_path, capsys, policy):
        error = {
            "": "unknown lift policy ''",
            "qfd_tensor": "qfd_tensor requires a quadratic-form gate",
        }[policy]
        code_path, gate_path = steane_files
        out, gate_out = tmp_path / "c14.json", tmp_path / "g14.json"
        rc = main([
            "concat", "--code", str(code_path), "--out", str(out),
            "--gate", str(gate_path), "--gate-out", str(gate_out), "--lift", policy,
        ])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: {error}\n"
        assert not out.exists() and not gate_out.exists()

    def test_empty_lift_in_a_script(self, steane_files, tmp_path, capsys):
        # the same step in a script fails the same way
        code_path, gate_path = steane_files
        script = tmp_path / "steps.json"
        script.write_text(json.dumps([{"op": "concat", "lift": ""}]))
        rc = main(["pipeline", "--code", str(code_path), "--gate", str(gate_path),
                   "--script", str(script)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: unknown lift policy ''\n"

    def test_strict_inadmissible_exit_5(self, steane_files, tmp_path, capsys):
        code_path, gate_path = steane_files
        out = tmp_path / "x.json"
        rc, text = run(
            capsys, "remove-z", "--code", str(code_path), "--gate", str(gate_path),
            "--w0", "1000000", "--out", str(out), "--strict",
        )
        assert rc == 5
        step = json.loads(text)
        assert step == {
            "admissible": False, "gamma0": "1001011", "k": 2, "n": 7,
            "op": "remove_z", "w0": "1000000",
            "witness": {"u": "1000000", "v": "0001011", "exponents": [3, 7]},
        }
        # the file is written before the strict exit
        assert json.loads(out.read_text())["z_stabilizers"] == ["0101101", "0011110"]
        new_code = code_from_json(json.loads(out.read_text()))
        gate = gate_from_json(json.loads(gate_path.read_text()))
        assert_point_witness(new_code, gate, step["witness"])

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
        assert step == {
            "admissible": False, "k": 1, "mu0": "00000010000001", "n": 14, "op": "add_x",
            "witness": {"u": "00001111111000", "v": "00000000000000", "exponents": [0, 2]},
            "x0": "11111110000000",
        }
        new_code = code_from_json(json.loads(out.read_text()))
        gate = gate_from_json(json.loads(gate14.read_text()))
        assert_point_witness(new_code, gate, step["witness"])

    def test_add_x_to_a_non_preserved_input(self, tmp_path, capsys):
        # the half row of this [[8,1]] code vanishes, but the new code is not
        # preserved: the step is inadmissible, with a witness on the new code
        code = CssCode(
            8,
            BitMat.from_strings(["11010000", "00001110", "00000001"]),
            BitMat.from_strings(["10010110", "01010110", "00100000", "00001100"]),
            BitVec.from_string("10011010"),
        )
        code_path, gate_path = tmp_path / "c8.json", tmp_path / "g8.json"
        code_path.write_text(json.dumps(code_to_json(code)))
        gate_path.write_text(json.dumps(gate_to_json(transversal_zrot(8, 3))))
        rc, text = run(
            capsys, "add-x", "--code", str(code_path), "--gate", str(gate_path),
            "--x0", "00010010", "--out", str(tmp_path / "c80.json"), "--strict",
        )
        assert rc == 5
        witness = {"u": "10011011", "v": "10011010", "exponents": [2, 0]}
        assert json.loads(text) == {
            "admissible": False, "k": 0, "mu0": "00000110", "n": 8, "op": "add_x",
            "witness": witness, "x0": "00010010",
        }
        new_code = code_from_json(json.loads((tmp_path / "c80.json").read_text()))
        assert_point_witness(new_code, transversal_zrot(8, 3), witness)
        script = tmp_path / "steps.json"
        script.write_text(json.dumps([{"op": "add_x", "x0": "00010010"}]))
        rc, text = run(
            capsys, "pipeline", "--code", str(code_path), "--gate", str(gate_path),
            "--script", str(script),
        )
        assert rc == 0
        (step,) = json.loads(text)["steps"]
        assert step["admissible"] is False
        assert step["detail"] == {"mu0": "00000110", "witness": witness}


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

    @pytest.mark.parametrize(
        "step", [{"op": "remove_z", "w0": "1000000"}, {"op": "add_x", "x0": "1111111"}]
    )
    def test_unknown_check_mode(self, steane_files, tmp_path, capsys, step):
        # only "auto" and "skip" are modes; anything else used to run the
        # check, and "full" was the same check as "auto"
        code_path, gate_path = steane_files
        script = tmp_path / "steps.json"
        for mode in ("none", "full"):
            script.write_text(json.dumps([dict(step, check=mode)]))
            rc, text = run(
                capsys, "pipeline", "--code", str(code_path), "--gate", str(gate_path),
                "--script", str(script),
            )
            assert rc == 2 and text == ""

    @pytest.mark.parametrize(
        "bad, data, key",
        [
            ("script", [{"lift": "next_level_rotation"}], "'op'"),
            ("script", [{"op": "remove_z"}], "'w0'"),
            ("script", [{"op": "set_gate"}], "'gate'"),
            ("script", {"op": "concat"}, "list of steps"),
            ("gate", {"kind": "blocks", "n": 7}, "'blocks'"),
            ("code", {"x_stabilizers": []}, "'n'"),
            ("gate", [{"kind": "transversal_zrot", "n": 7, "l": 2}], "expected an object"),
            ("script", [{"op": "remove_z", "w0": 5}], "not a bitstring: 5"),
            ("gate", {"kind": "qfd", "n": 2, "l": 2, "R": 5}, "not iterable"),
            ("code", {"n": 4, "x_stabilizers": 5}, "code JSON: 'int' object is not iterable"),
            ("code", {"n": [4]}, "code JSON: n must be an integer"),
            ("code", {"n": 4.7}, "code JSON: n must be an integer, got 4.7"),
            # bool("false") is true: this was read as CS-dagger
            ("gate", {"kind": "blocks", "n": 7, "blocks": [{"qubits": [0, 1], "gate": {
                "type": "CkZ", "controls": 1, "root": 1, "dagger": "false"}}]},
             "gate JSON: dagger must be a boolean, got 'false'"),
            ("gate", {"kind": "transversal_zrot", "n": 7, "l": 2.7}, "gate JSON: l must be an integer, got 2.7"),
            ("gate", {"kind": "transversal_zrot", "n": 7, "l": True}, "gate JSON: l must be an integer, got True"),
            ("gate", {"kind": "blocks", "n": 7, "blocks": [{"qubits": [0.5], "gate": {
                "type": "diag", "level": 2, "exps": [0, 1]}}]}, "gate JSON: a qubit must be an integer, got 0.5"),
            ("gate", {"kind": "blocks", "n": 7, "blocks": [{"qubits": [0], "gate": {
                "type": "diag", "level": 2, "exps": "01"}}]}, "gate JSON: exps must be a list, got '01'"),
            ("gate", {"kind": "blocks", "n": 7, "blocks": [{"qubits": [0], "gate": {
                "type": "diag", "level": 2, "exps": [0, 1.9]}}]}, "gate JSON: an exponent must be an integer, got 1.9"),
            ("gate", {"kind": "blocks", "n": 7, "blocks": [{"qubits": "01", "gate": {
                "type": "CkZ", "controls": 1, "root": 1}}]}, "gate JSON: qubits must be a list, got '01'"),
            # a float entry was reduced as a float and echoed back, and the
            # verdict computed on a truncated form
            ("gate", {"kind": "qfd", "n": 7, "l": 2, "R": [[1.5] + [0] * 6] + [[0] * 7] * 6},
             "gate JSON: an R entry must be an integer, got 1.5"),
            ("gate", {"kind": "qfd", "n": 7, "l": 2, "R": ["1000000"] + [[0] * 7] * 6},
             "gate JSON: an R row must be a list, got '1000000'"),
        ],
    )
    def test_malformed_json_exit_2(self, steane_files, tmp_path, capsys, bad, data, key):
        files = {"code": steane_files[0], "gate": steane_files[1], "script": tmp_path / "s.json"}
        files["script"].write_text("[]")
        files[bad] = tmp_path / "bad.json"
        files[bad].write_text(json.dumps(data))
        argv = ["pipeline"] + [a for k, path in files.items() for a in (f"--{k}", str(path))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err

    def test_wmax_only_on_verify_and_report(self, steane_files, tmp_path, capsys):
        inputs = ["--code", str(steane_files[0]), "--gate", str(steane_files[1])]
        assert run(capsys, "verify", *inputs, "--wmax", "4")[0] == 0
        assert run(capsys, "report", *inputs, "--wmax", "4")[0] == 0
        script = tmp_path / "s.json"
        script.write_text("[]")
        assert run(capsys, "pipeline", *inputs, "--script", str(script), "--wmax", "4")[0] == 2


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
        # [[64,20,8]] is certified, and its logical is read on the 2^20
        # logical words: CZ on the 10 pairs of a perfect matching
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
        logical = rep["logical"]
        assert logical["available"] and logical["level"] == 2
        pairs = re.findall(r"CZ\[(\d+),(\d+)\]", logical["description"])
        assert logical["description"] == " * ".join(f"CZ[{a},{b}]" for a, b in pairs)
        assert len(pairs) == 10
        assert sorted(int(q) for pair in pairs for q in pair) == list(range(20))

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
        assert sorted(rep) == [
            "max_offdiag", "max_row_deviation", "preserved_exact", "tol",
            "unitary_numeric", "verdicts_agree",
        ]
        assert rep["verdicts_agree"] and rep["max_row_deviation"] < 1e-9
        assert rep["preserved_exact"] is rep["unitary_numeric"] is True
        assert rep["max_offdiag"] == 0.0 and rep["tol"] == 1e-9


def _write_inputs(tmp_path, code, gate):
    code_path, gate_path = tmp_path / "c.json", tmp_path / "g.json"
    code_path.write_text(json.dumps(code_to_json(code)))
    gate_path.write_text(json.dumps(gate_to_json(gate)))
    return str(code_path), str(gate_path)


def _pairs_code():
    # X- and Z-stabilizers are the same 7 pairs {2i, 2i+1}: [[24,10]] with
    # m = 7, so 2k + m = 27 is past the oracle's logical block
    pairs = [BitVec.from_support(24, [2 * i, 2 * i + 1]) for i in range(7)]
    return CssCode(24, BitMat(24, pairs), BitMat(24, pairs))


class TestOracleRefusal:
    """An oracle that cannot run is recorded, not raised: the report or
    pipeline keeps every other key and its exit code."""

    REASON_ROW = "full row has 2^13 entries; pass an explicit gamma subset"

    def test_report_past_the_row_cap(self, tmp_path, capsys):
        # 13 logicals: the low-degree test decides, so there is no trivial
        # row to compare the float block with
        paths = _write_inputs(tmp_path, CssCode(13, BitMat.empty(13), BitMat.empty(13)), transversal_zrot(13, 1))
        rc, plain = run(capsys, "report", "--code", paths[0], "--gate", paths[1])
        assert rc == 0
        rc, text = run(capsys, "report", "--code", paths[0], "--gate", paths[1], "--oracle")
        assert rc == 0
        rep = json.loads(text)
        assert rep.pop("oracle") == {"available": False, "reason": self.REASON_ROW}
        assert rep == json.loads(plain)

    def test_report_block_too_large(self, tmp_path, capsys):
        code = _pairs_code()
        assert (code.k, code.dim_c2) == (10, 7)
        paths = _write_inputs(tmp_path, code, transversal_zrot(24, 1))
        argv = ["report", "--code", paths[0], "--gate", paths[1], "--wmax", "2"]
        rc, plain = run(capsys, *argv)
        assert rc == 0
        rc, text = run(capsys, *argv, "--oracle")
        assert rc == 0
        rep = json.loads(text)
        assert rep.pop("oracle") == {"available": False, "reason": "logical block too large"}
        assert rep == json.loads(plain)
        # the oracle command itself still refuses
        rc, _ = run(capsys, "oracle", "--code", paths[0], "--gate", paths[1])
        assert rc == 2

    def test_pipeline(self, tmp_path, capsys):
        paths = _write_inputs(tmp_path, CssCode(13, BitMat.empty(13), BitMat.empty(13)), transversal_zrot(13, 1))
        script = tmp_path / "steps.json"
        script.write_text("[]")
        argv = ["pipeline", "--code", paths[0], "--gate", paths[1], "--script", str(script)]
        rc, plain = run(capsys, *argv)
        assert rc == 0
        rc, text = run(capsys, *argv, "--oracle")
        assert rc == 0
        rep = json.loads(text)
        assert rep.pop("oracle") == {"available": False, "reason": self.REASON_ROW}
        assert rep == json.loads(plain)
        rc, _ = run(capsys, "oracle", "--code", paths[0], "--gate", paths[1])
        assert rc == 2


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

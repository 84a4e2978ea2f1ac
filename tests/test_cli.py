"""CLI dispatch: exit codes, report determinism, and operation coverage."""

import json
import tracemalloc

import numpy as np
import pytest

from mftn import cli


def run(capsys, argv):
    code = cli.dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def report_of(out):
    return json.loads(out)


class TestDispatch:
    def test_help_exits_zero(self, capsys):
        code, _ = run(capsys, ["--help"])
        assert code == 0

    def test_unknown_subcommand_exits_two(self, capsys):
        code, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_malformed_json_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out = run(capsys, ["solve-family", "--constraints", str(bad)])
        assert code == 3

    def test_basis_subcommand(self, capsys):
        code, out = run(capsys, ["basis", "--basis", "WH:3"])
        assert code == 0
        rep = report_of(out)
        assert rep["outputs"]["dim"] == 3
        assert all(c["passed"] for c in rep["checks"])

    def test_solve_family_dimension_two(self, capsys, tmp_path):
        h = np.eye(2)
        spec = {
            "basis": "WH:2",
            "d": 2,
            "constraints": [
                {"p_in": "X", "u_phys": {"legs": ["r", "c"], "shape": [2, 2],
                                          "data": [[0, 0], [1, 0], [1, 0], [0, 0]]},
                 "p_out": "X"},
                {"p_in": "Z", "u_phys": {"legs": ["r", "c"], "shape": [2, 2],
                                          "data": [[1, 0], [0, 0], [0, 0], [1, 0]]},
                 "p_out": "Z"},
            ],
        }
        path = tmp_path / "ex1.json"
        path.write_text(json.dumps(spec))
        code, out = run(capsys, ["solve-family", "--constraints", str(path)])
        assert code == 0
        assert report_of(out)["outputs"]["dimension"] == 2

    def test_check_and_decompose_aklt_fixture(self, capsys):
        code, out = run(capsys, ["check-mps", "--tensor", "aklt"])
        assert code == 0
        code, out = run(capsys, ["decompose-mps", "--tensor", "aklt"])
        assert code == 0
        rep = report_of(out)
        assert rep["outputs"]["psi_is_stabilizer"] is False

    def test_transfer_interpolated(self, capsys, tmp_path):
        a = 0.5
        alpha = {"I": 1, "X": 1, "XZ": a, "Z": a}
        order = ["I", "Z", "X", "XZ"]
        payload = [[float(alpha[l]), 0.0] for l in order]
        path = tmp_path / "interp.json"
        path.write_text(json.dumps(payload))
        code, out = run(
            capsys, ["transfer", "--basis", "WH:2", "--alpha", str(path), "--L", "2", "--brute"]
        )
        assert code == 0
        rep = report_of(out)
        e = rep["outputs"]["e_values"]
        assert e["I"][0] == pytest.approx(2 + 2 * a**2)
        assert e["Z"][0] == pytest.approx(4 * a)
        assert rep["outputs"]["degeneracy_of_max"] == 2

    def test_simulate_chain(self, capsys):
        code, out = run(
            capsys,
            ["simulate", "--chain", "aklt", "--sites", "3", "--boundary", "open",
             "--trials", "3", "--seed", "11", "--enumerate"],
        )
        assert code == 0
        rep = report_of(out)
        assert rep["outputs"]["success_rate"] == 1.0
        assert rep["outputs"]["success_probability"] == pytest.approx(1.0)

    def test_mpo_subcommands(self, capsys):
        for action in ["check", "purify", "relative"]:
            code, _ = run(capsys, ["mpo", action, "--basis", "WH:2", "--seed", "5"])
            assert code == 0

    def test_mpo_apply_runs_the_requested_sites(self, capsys):
        code, out = run(capsys, ["mpo", "apply", "--basis", "WH:2", "--sites", "9"])
        rep = report_of(out)
        assert code == 1
        assert {"name": "completed", "passed": False} in rep["checks"]
        assert rep["outputs"]["sites"] == 9
        code, out = run(capsys, ["mpo", "apply", "--basis", "WH:2", "--sites", "5"])
        rep = report_of(out)
        assert code == 0
        assert rep["outputs"]["sites"] == 5
        assert [c["name"] for c in rep["checks"]] == ["matches_direct_action"]

    @pytest.mark.parametrize("sites", [7, 20])
    def test_mpo_apply_refuses_long_chains_before_drawing_the_input(self, capsys, sites):
        tracemalloc.start()
        try:
            code, out = run(capsys, ["mpo", "apply", "--basis", "WH:2", "--sites", str(sites)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rep = report_of(out)
        assert code == 1
        assert {"name": "completed", "passed": False} in rep["checks"]
        assert "capped" in rep["outputs"]["error"]
        assert peak < 4**7 * 16  # smaller than one complex 7-site input

    def test_clifford_synth(self, capsys, tmp_path):
        spec = {
            "n": 3,
            "d": 2,
            "images": [
                {"source": {"n": 3, "d": 2, "v": [1, 0, 0], "w": [0, 0, 0], "phase_exp": 0},
                 "target": {"n": 3, "d": 2, "v": [1, 1, 1], "w": [0, 0, 0], "phase_exp": 0}},
                {"source": {"n": 3, "d": 2, "v": [0, 0, 0], "w": [1, 0, 0], "phase_exp": 0},
                 "target": {"n": 3, "d": 2, "v": [0, 0, 0], "w": [1, 1, 1], "phase_exp": 0}},
            ],
        }
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        code, out = run(capsys, ["clifford-synth", "--map", str(path)])
        assert code == 0
        assert all(c["passed"] for c in report_of(out)["checks"])

    def test_deterministic_reports(self, capsys):
        _, out1 = run(capsys, ["transfer", "--basis", "WH:2", "--alpha",
                               json.dumps([[1, 0], [0.3, 0], [1, 0], [0.3, 0]])])
        _, out2 = run(capsys, ["transfer", "--basis", "WH:2", "--alpha",
                               json.dumps([[1, 0], [0.3, 0], [1, 0], [0.3, 0]])])
        r1, r2 = report_of(out1), report_of(out2)
        r1.pop("elapsed_ms")
        r2.pop("elapsed_ms")
        assert r1 == r2


class TestOperationCoverage:
    def test_every_operation_reachable_from_exactly_one_subcommand(self):
        spec_ops = {
            "contract", "polar_decompose", "eig_hermitian", "pseudo_inverse",
            "weyl_heisenberg_basis", "composite_basis", "hadamard_latin_basis",
            "check_group_closure", "pauli_to_matrix", "check_admissible",
            "synthesize_clifford", "is_clifford", "check_mf_symmetry",
            "solve_symmetry_family", "canonical_form_check", "split_polar",
            "correction_consistency", "clifford_magic_decompose", "spt_solution",
            "block", "map_order", "pauli_expectation", "check_peps_mf_symmetry",
            "peps_isometry_check", "peps_split_polar", "topo_solution",
            "check_topo_symmetry", "transfer_spectrum_analytic",
            "transfer_matrix_brute", "degeneracy_report", "injectivity_check",
            "run_mps_protocol", "run_peps_protocol", "enumerate_outcomes",
            "check_mpo_isometry", "mpo_slices", "build_purifying_unitary",
            "relative_local_unitary", "apply_mpo_via_protocol",
        }
        assert set(cli.OPERATIONS) == spec_ops
        assert set(cli.OPERATIONS.values()) <= set(cli.SUBCOMMANDS)
        # each operation maps to exactly one subcommand by construction of the
        # dict; verify every advertised subcommand carries at least one op
        # except the pure dispatcher itself
        import mftn

        for op in spec_ops:
            assert cli.OPERATIONS[op] in cli.SUBCOMMANDS

    def test_check_mps_calls_contract(self, capsys, monkeypatch):
        import sys

        from mftn import tensors

        calls = []
        original = tensors.contract

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # count calls through every module of the package that binds contract
        for name, module in list(sys.modules.items()):
            if name.startswith("mftn") and getattr(module, "contract", None) is original:
                monkeypatch.setattr(module, "contract", counted)
        code, _ = run(capsys, ["check-mps", "--tensor", "aklt"])
        assert code == 0
        assert calls


class TestToleranceOverride:
    def test_env_var_override(self, capsys, monkeypatch):
        from mftn import tensors as tensors_mod

        old = tensors_mod.DEFAULT_TOL
        monkeypatch.setenv("MFTN_TOL", "1e-6")
        try:
            code, out = run(capsys, ["basis", "--basis", "WH:2"])
            assert code == 0
            assert report_of(out)["tolerance"] == 1e-6
        finally:
            tensors_mod.DEFAULT_TOL = old

    def test_tol_flag_override(self, capsys):
        from mftn import tensors as tensors_mod

        old = tensors_mod.DEFAULT_TOL
        try:
            code, out = run(capsys, ["basis", "--basis", "WH:2", "--tol", "1e-7"])
            assert code == 0
            assert report_of(out)["tolerance"] == 1e-7
        finally:
            tensors_mod.DEFAULT_TOL = old


    def test_tol_flag_does_not_outlive_dispatch(self, capsys):
        from mftn import tensors as tensors_mod

        old = tensors_mod.DEFAULT_TOL
        try:
            run(capsys, ["basis", "--basis", "WH:2", "--tol", "1e-7"])
            assert tensors_mod.DEFAULT_TOL == old
        finally:
            tensors_mod.DEFAULT_TOL = old


    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1e-9"])
    @pytest.mark.parametrize("source", ["env", "flag"])
    def test_bad_tolerance_is_malformed_input(self, capsys, monkeypatch, source, value):
        from mftn import tensors as tensors_mod

        old = tensors_mod.DEFAULT_TOL
        argv = ["basis", "--basis", "WH:2"]
        if source == "env":
            monkeypatch.setenv("MFTN_TOL", value)
        else:
            argv.append(f"--tol={value}")
        try:
            code, out = run(capsys, argv)
            assert code == 3
            assert report_of(out)["error"].startswith("malformed input: ")
            assert tensors_mod.DEFAULT_TOL == old
        finally:
            tensors_mod.DEFAULT_TOL = old


class TestJsonFixtures:
    def test_shipped_aklt_json_round_trips(self, capsys):
        import mftn

        path = str(__import__("pathlib").Path(mftn.__file__).parent / "data" / "aklt_chain.json")
        code, out = run(capsys, ["check-mps", "--tensor", path])
        assert code == 0
        rep = report_of(out)
        assert all(c["passed"] for c in rep["checks"])

    def test_solve_mode_constraints(self, capsys, tmp_path):
        spec = {
            "basis": "WH:2",
            "d": 2,
            "constraints": [
                {"p_in": "X", "u_phys": "solve", "p_out": "X"},
                {"p_in": "Z", "u_phys": "solve", "p_out": "Z"},
            ],
        }
        path = tmp_path / "solve.json"
        path.write_text(json.dumps(spec))
        code, out = run(capsys, ["solve-family", "--constraints", str(path)])
        assert code == 0
        assert report_of(out)["outputs"]["dimension"] >= 1

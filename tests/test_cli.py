"""CLI dispatch: exit codes, report determinism, and operation coverage."""

import argparse
import dataclasses
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


ALPHA = json.dumps([[1, 0], [0.5, 0], [1, 0], [0.5, 0]])
TOPO = json.dumps({"basis": "WH:2", "alpha": [[1, 0], [0, 0], [1, 0], [0, 0]],
                   "subgroup": ["I", "X"]})
STRING = json.dumps([{"n": 2, "d": 2, "v": [1, 0], "w": [0, 1], "phase_exp": 0}])
MAP = json.dumps({"n": 1, "d": 2, "images": []})
CONSTRAINTS = json.dumps({"basis": "WH:2", "constraints": []})

# the inputs each subcommand requires; basis requires none
REQUIRED = {
    "solve-family": [["--constraints", CONSTRAINTS]],
    "check-mps": [["--tensor", "aklt"]],
    "decompose-mps": [["--tensor", "aklt"]],
    "spt": [["--alpha", ALPHA]],
    "block": [["--tensor", "aklt"]],
    "expect": [["--alpha", ALPHA], ["--string", STRING]],
    "check-peps": [["--alpha", ALPHA]],
    "topo-solve": [["--topo", TOPO]],
    "transfer": [["--alpha", ALPHA]],
    "degeneracy": [["--topo", TOPO]],
    "simulate": [["--chain", "aklt"]],
    "mpo": [["check"]],
    "clifford-synth": [["--map", MAP]],
}

# the flags each subcommand's handler reads, besides --tol
FLAGS_READ = {
    "basis": {"--basis", "--composite", "--mode", "--out-basis"},
    "solve-family": {"--constraints", "--basis", "--d", "--out"},
    "check-mps": {"--tensor"},
    "decompose-mps": {"--tensor"},
    "spt": {"--alpha", "--basis", "--out"},
    "block": {"--tensor", "--k"},
    "expect": {"--alpha", "--string", "--basis"},
    "check-peps": {"--alpha", "--basis"},
    "topo-solve": {"--topo", "--basis", "--out"},
    "transfer": {"--alpha", "--basis", "--L", "--brute"},
    "degeneracy": {"--topo", "--basis", "--L"},
    "simulate": {"--chain", "--peps", "--basis", "--sites", "--boundary", "--enumerate",
                 "--trials", "--seed", "--rows", "--cols"},
    "mpo": {"--basis", "--sites", "--seed"},
    "clifford-synth": {"--map", "--out"},
}


def _without(command, k):
    inputs = REQUIRED[command]
    return [command] + [a for j, chunk in enumerate(inputs) if j != k for a in chunk]


# (argv, exit code, a fragment of the error): 2 is a bad argument, 3 malformed input
REFUSED = [
    *[(_without(c, k), 2, "required") for c in REQUIRED for k in range(len(REQUIRED[c]))],
    ([], 2, "required"),
    (["simulate", "--chain", "aklt", "--peps", TOPO], 2, "not allowed"),
    (["basis", "--seed", "5"], 2, "unrecognized arguments"),
    (["basis", "--composite", "WH:2", "--mode", "bogus"], 2, "invalid choice"),
    (["block", "--tensor", "aklt", "--k", "x"], 2, "invalid int"),
    (["basis", "--basis", "WH:abc"], 3, "basis"),
    (["basis", "--basis", "WH:"], 3, "basis"),
    (["basis", "--basis", "WH:1"], 3, "basis"),
    (["simulate", "--chain", "aklt", "--sites", "0"], 3, "--sites"),
    (["simulate", "--peps", TOPO, "--rows", "0"], 3, "--rows"),
    (["simulate", "--peps", TOPO, "--cols", "0"], 3, "--cols"),
    (["transfer", "--alpha", ALPHA, "--L", "0"], 3, "--L"),
    (["block", "--tensor", "aklt", "--k", "0"], 3, "--k"),
    (["block", "--tensor", "aklt", "--k", "-1"], 3, "--k"),
    (["simulate", "--chain", "aklt", "--trials", "0"], 3, "--trials"),
    (["degeneracy", "--topo", TOPO, "--L", "3"], 3, "multiple"),
    (["topo-solve", "--topo", "{}"], 3, "'alpha'"),
    (["degeneracy", "--topo", "{}"], 3, "'alpha'"),
    (["simulate", "--peps", "{}"], 3, "'alpha'"),
    (["clifford-synth", "--map", "{}"], 3, "'n'"),
    (["expect", "--alpha", ALPHA, "--string", "[1]"], 3, "string entry 0"),
]


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

    def test_simulate_thousand_site_chain(self, capsys):
        code, out = run(capsys, ["simulate", "--chain", "aklt", "--sites", "1000"])
        rep = report_of(out)
        assert code == 0
        assert rep["outputs"]["success_rate"] == 1.0
        assert rep["outputs"]["worst_success_fidelity"] >= 1 - 1e-9

    def test_simulate_long_chain_defect_does_not_underflow(self, capsys):
        # a running defect that kept each bond's 1/sqrt(2) underflowed near 2,000 sites
        code, out = run(capsys, ["simulate", "--chain", "aklt", "--sites", "2500"])
        rep = report_of(out)
        assert code == 0
        assert rep["outputs"]["success_rate"] == 1.0

    @pytest.mark.parametrize("argv, runner, key", [
        (["simulate", "--chain", "aklt", "--sites", "3", "--trials", "2"],
         "run_mps_protocol", "worst_success_fidelity"),
        (["simulate", "--peps", TOPO.replace(', "subgroup": ["I", "X"]', ""), "--trials", "2"],
         "run_peps_protocol", "worst_fidelity"),
    ], ids=["chain", "peps"])
    def test_simulate_reports_the_raw_worst_fidelity(self, capsys, monkeypatch, argv, runner, key):
        # round-off can put a fidelity above 1; the report must show it, not a cap at 1.0
        from mftn import protocol

        real = getattr(protocol, runner)

        def lifted(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), fidelity=1 + 1e-12)

        monkeypatch.setattr(protocol, runner, lifted)
        code, out = run(capsys, argv)
        assert code == 0
        assert report_of(out)["outputs"][key] == 1 + 1e-12

    def test_simulate_without_a_successful_trial_reports_fidelity_one(self, capsys, monkeypatch):
        from mftn import protocol

        real = protocol.run_mps_protocol

        def failed(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), fidelity=0.5, success=False,
                                       predicted_success=False)

        monkeypatch.setattr(protocol, "run_mps_protocol", failed)
        code, out = run(capsys, ["simulate", "--chain", "aklt", "--sites", "3",
                                 "--boundary", "periodic", "--trials", "2"])
        outputs = report_of(out)["outputs"]
        assert code == 0
        assert outputs["success_rate"] == 0.0
        assert outputs["worst_success_fidelity"] == 1.0

    def test_simulate_drains_a_peps_patch_downward(self, capsys):
        # a vertical bond's up and down ends were once swapped when the sites were
        # ordered, so a downward defect reached a bond that was already corrected
        spec = json.dumps({"basis": "WH:2", "alpha": [[1, 0], [0, 0], [1, 0], [0, 0]], "orientation": "dr"})
        code, out = run(capsys, ["simulate", "--peps", spec, "--rows", "3", "--cols", "3", "--trials", "8"])
        rep = report_of(out)
        assert code == 0
        assert rep["checks"] == [{"name": "all_trials_succeed", "passed": True}]

    def test_simulate_runs_a_four_by_four_patch(self, capsys):
        spec = json.dumps({"basis": "WH:2", "alpha": [[1, 0], [0, 0], [1, 0], [0, 0]]})
        code, out = run(capsys, ["simulate", "--peps", spec, "--rows", "4", "--cols", "4", "--trials", "3"])
        rep = report_of(out)
        assert code == 0
        assert rep["checks"] == [{"name": "all_trials_succeed", "passed": True}]
        assert rep["outputs"]["worst_fidelity"] >= 1 - 1e-9

    def test_simulate_refuses_a_nine_by_nine_patch_before_working(self, capsys):
        spec = json.dumps({"basis": "WH:2", "alpha": [[1, 0], [0, 0], [1, 0], [0, 0]]})
        code, out = run(capsys, ["simulate", "--peps", spec, "--rows", "9", "--cols", "9"])
        rep = report_of(out)
        assert code == 1
        assert rep["checks"] == [{"name": "completed", "passed": False}]
        assert "trial work" in rep["outputs"]["error"]

    @pytest.mark.parametrize("alpha, cause", [
        ([[-1, 0], [0, 0], [0, 0], [0, 0]], "not positive semidefinite"),
        ([[1, 0], [-2, 0], [0, 0], [0, 0]], "not positive semidefinite"),
        ([[0, 1], [0, 0], [0, 0], [0, 0]], "no eigenvalue above the cut"),
    ], ids=["negative", "indefinite", "imaginary"])
    @pytest.mark.parametrize("command", ["simulate", "check-peps"])
    def test_a_q_without_a_positive_range_is_reported(self, capsys, command, alpha, cause):
        # the compression V Q once died reshaping an empty range, or used a space other than range(Q)
        if command == "simulate":
            argv = ["simulate", "--peps", json.dumps({"basis": "WH:2", "alpha": alpha})]
        else:
            argv = ["check-peps", "--basis", "WH:2", "--alpha", json.dumps(alpha)]
        code = cli.dispatch(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        rep = report_of(captured.out)
        assert {"name": "completed", "passed": False} in rep["checks"]
        assert cause in rep["outputs"]["error"]

    @pytest.mark.parametrize("orientation", ["zz", [["ur"]], 5, [["ur", "ur"], ["ur", "zz"]]],
                             ids=["unknown", "wrong-shape", "number", "unknown-entry"])
    def test_simulate_refuses_a_malformed_peps_orientation(self, capsys, orientation):
        spec = json.loads(TOPO)
        spec["orientation"] = orientation
        got = cli.dispatch(["simulate", "--peps", json.dumps(spec)])
        captured = capsys.readouterr()
        assert got == 3
        assert "Traceback" not in captured.err
        assert report_of(captured.out)["error"].startswith("malformed input: bad spec: ")

    def test_simulate_checks_each_verdict_against_the_prediction(self, capsys, monkeypatch):
        argv = ["simulate", "--chain", "aklt", "--sites", "3", "--boundary", "periodic",
                "--trials", "12"]
        code, out = run(capsys, argv)
        rep = report_of(out)
        assert code == 0
        assert {"name": "success_matches_prediction", "passed": True} in rep["checks"]
        assert 0 < rep["outputs"]["success_rate"] < 1
        real = cli.protocol_mod.run_mps_protocol
        monkeypatch.setattr(cli.protocol_mod, "run_mps_protocol", lambda *a, **k: dataclasses.replace(
            real(*a, **k), predicted_success=False))
        code, out = run(capsys, argv)
        assert code == 1
        assert {"name": "success_matches_prediction", "passed": False} in report_of(out)["checks"]

    @pytest.mark.parametrize("seed", range(6))
    def test_mpo_apply_residual_is_not_negative(self, capsys, seed):
        code, out = run(capsys, ["mpo", "apply", "--seed", str(seed)])
        rep = report_of(out)
        assert code == 0
        assert rep["outputs"]["sites"] == 3
        assert rep["checks"][0]["residual"] >= 0

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

    @pytest.mark.parametrize("argv", [["--basis", "WH:100"], ["--basis", "WH:3", "--composite", "WH:6"]],
                             ids=["WH:100", "WH:3xWH:6"])
    def test_basis_refuses_oversized_dimension_before_building_it(self, capsys, argv):
        tracemalloc.start()
        try:
            got = cli.dispatch(["basis"] + argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert got == 1
        assert "Traceback" not in captured.err
        rep = report_of(captured.out)
        assert {"name": "completed", "passed": False} in rep["checks"]
        assert "desk-scale guard" in rep["outputs"]["error"]
        assert peak < 17**4 * 16  # smaller than the D^2 elements of a D = 17 basis

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


class TestArguments:
    def test_every_subcommand_with_required_inputs_is_listed(self):
        assert set(REQUIRED) | {"basis"} == set(cli.SUBCOMMANDS) == set(FLAGS_READ)

    @pytest.mark.parametrize("argv,code,fragment", REFUSED, ids=[
        " ".join(a if len(a) < 16 else "<json>" for a in argv) or "no subcommand"
        for argv, _, _ in REFUSED])
    def test_refused_without_traceback(self, capsys, argv, code, fragment):
        got = cli.dispatch(argv)
        captured = capsys.readouterr()
        assert got == code
        assert "Traceback" not in captured.err
        if code == 2:
            assert fragment in captured.err
        else:
            error = report_of(captured.out)["error"]
            assert error.startswith("malformed input: ")
            assert fragment in error

    @pytest.mark.parametrize("argv,flag", [
        (["--chain", "aklt", "--rows", "5", "--cols", "7"], "--rows"),
        (["--chain", "aklt", "--sites", "3", "--cols", "2"], "--cols"),
        (["--peps", TOPO, "--sites", "3"], "--sites"),
        (["--peps", TOPO, "--boundary", "open"], "--boundary"),
        (["--peps", TOPO, "--enumerate"], "--enumerate"),
    ], ids=["chain-rows", "chain-cols", "peps-sites", "peps-boundary", "peps-enumerate"])
    def test_simulate_refuses_the_other_branch_flags(self, capsys, argv, flag):
        got = cli.dispatch(["simulate"] + argv)
        captured = capsys.readouterr()
        assert got == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"argument {flag}: not allowed" in captured.err

    @pytest.mark.parametrize("short,explicit", [
        (["--chain", "aklt"], ["--sites", "4", "--boundary", "open"]),
        (["--peps", TOPO], ["--rows", "2", "--cols", "2"]),
    ], ids=["chain", "peps"])
    def test_simulate_branch_defaults_are_the_explicit_values(self, capsys, short, explicit):
        _, out = run(capsys, ["simulate"] + short)
        _, out_explicit = run(capsys, ["simulate"] + short + explicit)
        assert report_of(out)["inputs_digest"] == report_of(out_explicit)["inputs_digest"]

    def test_each_subcommand_takes_only_the_flags_its_handler_reads(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(FLAGS_READ)
        for name, sub in subparsers.choices.items():
            flags = {s for a in sub._actions for s in a.option_strings}
            assert flags - {"-h", "--help", "--tol"} == FLAGS_READ[name], name


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
        monkeypatch.setenv("MFTN_TOL", "1e-6")
        code, out = run(capsys, ["basis", "--basis", "WH:2"])
        assert code == 0
        assert report_of(out)["tolerance"] == 1e-6

    def test_tol_flag_override(self, capsys):
        code, out = run(capsys, ["basis", "--basis", "WH:2", "--tol", "1e-7"])
        assert code == 0
        assert report_of(out)["tolerance"] == 1e-7


    def test_tol_flag_does_not_outlive_dispatch(self, capsys):
        from mftn import tensors as tensors_mod

        old = tensors_mod.DEFAULT_TOL
        run(capsys, ["basis", "--basis", "WH:2", "--tol", "1e-7"])
        assert tensors_mod.DEFAULT_TOL == old

    def test_dispatch_leaves_the_default_alone_while_it_runs(self, capsys, monkeypatch):
        # the tolerance travels as a value: a handler sees the constant unchanged
        from mftn import tensors as tensors_mod

        seen = []
        handler, flags, defaults = cli.SUBCOMMANDS["basis"]

        def recording(args, report):
            seen.append(tensors_mod.DEFAULT_TOL)
            handler(args, report)

        monkeypatch.setitem(cli.SUBCOMMANDS, "basis", (recording, flags, defaults))
        code, out = run(capsys, ["basis", "--basis", "WH:2", "--tol", "1e-6"])
        assert code == 0
        assert seen == [1e-9]
        assert report_of(out)["tolerance"] == 1e-6

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
        code, out = run(capsys, argv)
        assert code == 3
        assert report_of(out)["error"].startswith("malformed input: ")
        assert tensors_mod.DEFAULT_TOL == old


def noisy_aklt_spec():
    """The AKLT chain spec plus complex noise of size 1e-7: symmetry residual 4.1e-7."""
    from mftn import fixtures
    from mftn.tensors import DenseTensor

    A = fixtures.aklt_tensor()
    rng = np.random.default_rng(0)
    data = A.tensor.data
    noise = 1e-7 * (rng.standard_normal(data.shape) + 1j * rng.standard_normal(data.shape))
    constraints = [{"p_in": A.basis.labels[c.p_in], "p_out": A.basis.labels[c.p_out],
                    "u_phys": DenseTensor(c.u_phys, ("row", "col")).to_json()}
                   for c in A.constraints]
    tensor = DenseTensor(data + noise, A.tensor.legs).to_json()
    return json.dumps({"basis": "WH:2", "tensor": tensor, "constraints": constraints})


class TestToleranceReachesTheLibrary:
    """A noisy AKLT tensor passes its checks at 1e-6 and fails them at the default."""

    @pytest.fixture(params=["default", "flag", "env"])
    def source(self, request, monkeypatch):
        if request.param == "env":
            monkeypatch.setenv("MFTN_TOL", "1e-6")
        return request.param

    def argv(self, source, command):
        argv = [command, "--tensor", noisy_aklt_spec()]
        return argv + ["--tol", "1e-6"] if source == "flag" else argv

    def test_check_mps(self, capsys, source):
        code, out = run(capsys, self.argv(source, "check-mps"))
        checks = {c["name"]: c for c in report_of(out)["checks"]}
        assert checks["mf_symmetry"]["residual"] == pytest.approx(4.1e-7, rel=0.01)
        loose = source != "default"
        assert code == (0 if loose else 1)
        assert checks["mf_symmetry"]["passed"] is loose
        assert checks["canonical_form"]["passed"] is loose

    def test_decompose_mps(self, capsys, source):
        code, out = run(capsys, self.argv(source, "decompose-mps"))
        rep = report_of(out)
        checks = {c["name"]: c["passed"] for c in rep["checks"]}
        if source == "default":
            assert code == 1
            assert checks == {"completed": False}
            assert rep["outputs"]["error"].startswith("MF symmetry fails")
        else:
            # every verdict runs at max(1e-6, its floor): the 4.6e-7 commutant residual passes
            assert code == 0
            assert "error" not in rep["outputs"]
            assert checks["correction_consistency"] and checks["polar_reconstruction"]
            assert checks["q_commutants"] and checks["clifford_magic_reconstruction"]


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

"""CLI dispatch: exit codes, report determinism, and operation coverage."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mftn import cli
from mftn import clifford as qc
from mftn import mpo as mpo_mod
from mftn.basis import MFBasis, weyl_heisenberg_basis
from mftn.errors import SizeGuardError
from mftn.mps import solve_symmetry_family, spt_solution
from mftn.peps import topo_solution
from mftn.tensors import DEFAULT_TOL, MAX_DENSE_ELEMENTS, VERDICT_FLOOR, DenseTensor


def run(capsys, argv):
    code = cli.dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def report_of(out):
    return json.loads(out)


# dispatch with the address space capped at 2 GiB, so an allocation a guard misses fails fast
CAPPED_DISPATCH = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from mftn import cli
sys.exit(cli.dispatch(sys.argv[1:]))
"""


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
         "run_peps_trials", "worst_fidelity"),
    ], ids=["chain", "peps"])
    def test_simulate_reports_the_raw_worst_fidelity(self, capsys, monkeypatch, argv, runner, key):
        # round-off can put a fidelity above 1; the report must show it, not a cap at 1.0
        from mftn import protocol

        real = getattr(protocol, runner)

        def lift(run):
            return dataclasses.replace(run, fidelity=1 + 1e-12)

        def lifted(*args, **kwargs):  # a chain run, or the iterator over a patch's runs
            value = real(*args, **kwargs)
            return lift(value) if isinstance(value, protocol.ProtocolRun) else map(lift, value)

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

    @pytest.mark.parametrize("argv,error", [
        (["mpo", "apply", "--basis", "WH:4", "--sites", "5"], f"exceed {MAX_DENSE_ELEMENTS} amplitudes"),
        (["block", "--tensor", "aklt", "--k", "8"], f"past {MAX_DENSE_ELEMENTS} elements"),
        (["solve-family", "--constraints", CONSTRAINTS, "--d", "2000"], f"exceeds {MAX_DENSE_ELEMENTS} elements"),
    ], ids=["mpo-apply-WH:4-5-sites", "block-aklt-k8", "solve-family-d2000"])
    def test_size_guards_refuse_within_an_address_space_cap(self, argv, error):
        """Unguarded, these die in numpy's allocator under a 2 GiB cap, with no report."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", CAPPED_DISPATCH, *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        rep = report_of(proc.stdout)
        assert {"name": "completed", "passed": False} in rep["checks"]
        assert error in rep["outputs"]["error"]

    @pytest.mark.parametrize("argv", [
        ["mpo", "apply", "--basis", "WH:2", "--sites", "6"],
        ["mpo", "apply", "--basis", "WH:3", "--sites", "5"],
        ["block", "--tensor", "aklt", "--k", "6"],
    ], ids=["mpo-apply-WH:2-6-sites", "mpo-apply-WH:3-5-sites", "block-aklt-k6"])
    def test_size_guards_accept_their_largest_runs(self, capsys, argv):
        code, out = run(capsys, argv)
        assert code == 0
        assert "error" not in report_of(out)["outputs"]

    def test_mpo_guard_accepts_four_wh4_sites(self):
        mpo_mod.check_protocol_sites(4, 16, 4)  # a run holds 16 branches of 2^20 amplitudes
        with pytest.raises(SizeGuardError, match=f"exceed {MAX_DENSE_ELEMENTS} amplitudes"):
            mpo_mod.check_protocol_sites(6, 9, 3)

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

    @pytest.mark.parametrize("argv", [
        ["--constraints", CONSTRAINTS, "--d", "2000"],
        ["--constraints", json.dumps({"basis": "WH:2", "d": 600, "constraints": [
            {"p_in": "X", "u_phys": None, "p_out": "X"}]})],
    ], ids=["no-constraints-d2000", "one-constraint-d600"])
    def test_solve_family_refuses_a_dense_system_past_the_guard_before_building_it(self, capsys, argv):
        """d D^2 = 8000 asked for a 977 MiB identity; 2400 for a 88 MiB constraint block."""
        tracemalloc.start()
        try:
            code, out = run(capsys, ["solve-family"] + argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rep = report_of(out)
        assert code == 1
        assert {"name": "completed", "passed": False} in rep["checks"]
        assert f"exceeds {MAX_DENSE_ELEMENTS} elements" in rep["outputs"]["error"]
        assert peak < 1 << 20

    def test_transfer_refuses_a_spectrum_that_overflows(self, capsys):
        """e = 2.5 to the 100000th overflowed: exit 0, a passed check and bare Infinity on stdout."""
        code, out = run(capsys, ["transfer", "--alpha", ALPHA, "--L", "100000"])
        rep = json.loads(out, parse_constant=_refuse_constant)
        assert code == 1
        assert {"name": "completed", "passed": False} in rep["checks"]
        assert "floating-point range" in rep["outputs"]["error"]
        code, out = run(capsys, ["transfer", "--alpha", ALPHA, "--L", "700"])
        assert code == 0
        assert json.loads(out, parse_constant=_refuse_constant)["outputs"]["degeneracy_of_max"] == 2

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


def _aklt_spec_with_p_in(p_in, scale=1.0):
    """The AKLT chain spec with its first constraint's p_in ("I") replaced and its tensor scaled."""
    from mftn import fixtures
    from mftn.tensors import DenseTensor

    A = fixtures.aklt_tensor()
    constraints = [{"p_in": A.basis.labels[c.p_in], "p_out": A.basis.labels[c.p_out],
                    "u_phys": DenseTensor(c.u_phys, ("row", "col")).to_json()}
                   for c in A.constraints]
    constraints[0]["p_in"] = p_in
    tensor = DenseTensor(scale * A.tensor.data, A.tensor.legs).to_json()
    return json.dumps({"basis": "WH:2", "tensor": tensor, "constraints": constraints})


class TestBasisIndices:
    """An integer basis index outside 0..D^2-1, or a bool, is malformed input."""

    @pytest.mark.parametrize("argv", [
        ["check-mps", "--tensor", _aklt_spec_with_p_in(99)],
        ["check-mps", "--tensor", _aklt_spec_with_p_in(-1)],
        ["check-mps", "--tensor", _aklt_spec_with_p_in(True)],
        ["topo-solve", "--topo", json.dumps({**json.loads(TOPO), "subgroup": [0, -1]})],
    ], ids=["p_in-99", "p_in-minus-1", "p_in-true", "subgroup-minus-1"])
    def test_out_of_range_index_exits_three(self, capsys, argv):
        got = cli.dispatch(argv)
        captured = capsys.readouterr()
        assert got == 3
        assert "Traceback" not in captured.err
        assert report_of(captured.out)["error"].startswith("malformed input: ")

    def test_in_range_integer_indices_are_read(self, capsys):
        code, out = run(capsys, ["check-mps", "--tensor", _aklt_spec_with_p_in(0)])
        assert code == 0
        assert all(c["passed"] for c in report_of(out)["checks"])


NAN = float("nan")
NAN_ALPHA = [[NAN, 0], [0, 0], [1, 0], [0, 0]]


def _with_image(**fields):
    source = {"n": 1, "d": 2, "v": [1], "w": [0], **fields}
    return json.dumps({"n": 1, "d": 2, "images": [{"source": source, "target": source}]})


# (argv, a fragment of the error) of spec numbers that are not finite, and of negative seeds
MALFORMED_NUMBERS = {
    "check-peps-nan-alpha": (["check-peps", "--alpha", json.dumps(NAN_ALPHA)], "not finite"),
    "spt-nan-alpha": (["spt", "--alpha", json.dumps(NAN_ALPHA)], "not finite"),
    "expect-nan-alpha": (["expect", "--alpha", json.dumps(NAN_ALPHA), "--string", STRING], "not finite"),
    "simulate-peps-nan-alpha": (["simulate", "--peps", json.dumps({"basis": "WH:2", "alpha": NAN_ALPHA})],
                                "not finite"),
    "transfer-nan-alpha": (["transfer", "--alpha", json.dumps(NAN_ALPHA)], "not finite"),
    "transfer-infinite-alpha": (["transfer", "--alpha", "[[1, 0], [0, 1e400], [1, 0], [0, 0]]"], "not finite"),
    "clifford-synth-n": (["clifford-synth", "--map", '{"n": Infinity, "d": 2, "images": []}'], "spec"),
    "clifford-synth-d": (["clifford-synth", "--map", '{"n": 1, "d": 1e400, "images": []}'], "spec"),
    "clifford-synth-v": (["clifford-synth", "--map", _with_image(v=[float("inf")])], "images entry 0"),
    "clifford-synth-w": (["clifford-synth", "--map", _with_image(w=[-float("inf")])], "images entry 0"),
    "degeneracy-L": (["degeneracy", "--topo", json.dumps({**json.loads(TOPO), "L": float("inf")})], "spec"),
    "solve-family-d": (["solve-family", "--constraints", '{"basis": "WH:2", "constraints": [], "d": 1e400}'],
                       "spec"),
    "topo-solve-nan-phi": (["topo-solve", "--topo", json.dumps({**json.loads(TOPO), "phi": NAN})], "phi"),
    "topo-solve-infinite-phi": (["topo-solve", "--topo", json.dumps({**json.loads(TOPO), "phi": float("inf")})],
                                "phi"),
    "simulate-chain-negative-seed": (["simulate", "--chain", "aklt", "--seed", "-1"], "--seed must be at least 0"),
    "simulate-peps-negative-seed": (["simulate", "--peps", TOPO, "--seed", "-3"], "--seed must be at least 0"),
    "mpo-apply-negative-seed": (["mpo", "apply", "--seed", "-1"], "--seed must be at least 0"),
    "mpo-relative-negative-seed": (["mpo", "relative", "--seed", "-1"], "--seed must be at least 0"),
}


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestMalformedNumbers:
    """A spec number that is not finite, or a negative seed, exits 3 with one strict JSON error."""

    @pytest.mark.parametrize("name", list(MALFORMED_NUMBERS))
    def test_exits_three_with_one_json_error(self, capsys, name):
        argv, fragment = MALFORMED_NUMBERS[name]
        got = cli.dispatch(argv)
        captured = capsys.readouterr()
        assert got == 3
        assert "Traceback" not in captured.err
        error = json.loads(captured.out, parse_constant=_refuse_constant)["error"]
        assert error.startswith("malformed input: ")
        assert fragment in error

    def test_seed_zero_is_read(self, capsys):
        assert run(capsys, ["simulate", "--chain", "aklt", "--seed", "0"])[0] == 0

    def test_mixed_clock_off_wh2_squared_is_a_failed_check(self, capsys):
        code, out = run(capsys, ["basis", "--basis", "WH:2", "--composite", "WH:3", "--mode", "mixed_clock"])
        assert code == 1
        assert "only for WH:2 with WH:2" in report_of(out)["outputs"]["error"]


class TestZeroNormChain:
    """An all-zero tensor carrying the AKLT constraints passes the symmetry check, as every
    residual is 0; its chain state has zero norm, so Born weights are refused before 0 / 0."""

    @pytest.mark.parametrize("extra", [
        ["--enumerate", "--boundary", "periodic"], [], ["--boundary", "periodic"],
    ], ids=["enumerate-periodic", "sample-open", "sample-periodic"])
    def test_exits_one_with_strict_json(self, capsys, extra):
        argv = ["simulate", "--chain", _aklt_spec_with_p_in("I", scale=0.0), "--sites", "3"] + extra
        code, out = run(capsys, argv)
        assert code == 1
        rep = json.loads(out, parse_constant=_refuse_constant)
        assert rep["outputs"]["error"] == "projected state has zero norm"


# every public function of mftn, with the one subcommand that reaches it
OPERATIONS = {
    "contract": "check-mps",
    "weyl_heisenberg_basis": "basis",
    "composite_basis": "basis",
    "check_admissible": "clifford-synth",
    "synthesize_clifford": "clifford-synth",
    "check_mf_symmetry": "check-mps",
    "solve_symmetry_family": "solve-family",
    "canonical_form_check": "check-mps",
    "split_polar": "decompose-mps",
    "correction_consistency": "decompose-mps",
    "clifford_magic_decompose": "decompose-mps",
    "spt_solution": "spt",
    "block": "block",
    "map_order": "block",
    "pauli_expectation": "expect",
    "check_peps_mf_symmetry": "check-peps",
    "peps_isometry_check": "check-peps",
    "peps_split_polar": "check-peps",
    "injectivity_check": "topo-solve",
    "topo_solution": "topo-solve",
    "check_topo_symmetry": "topo-solve",
    "transfer_spectrum_analytic": "transfer",
    "transfer_matrix_brute": "transfer",
    "degeneracy_report": "degeneracy",
    "run_mps_protocol": "simulate",
    "run_peps_trials": "simulate",
    "enumerate_outcomes": "simulate",
    "check_mpo_isometry": "mpo",
    "mpo_slices": "mpo",
    "build_purifying_unitary": "mpo",
    "relative_local_unitary": "mpo",
    "apply_mpo_via_protocol": "mpo",
}

# argv that reach the operations ``OPERATIONS`` files under each subcommand
REACHING = {
    "check-mps": [["check-mps", "--tensor", "aklt"]],
    "basis": [["basis", "--composite", "WH:2"]],
    "clifford-synth": [["clifford-synth", "--map", MAP]],
    "solve-family": [["solve-family", "--constraints", CONSTRAINTS]],
    "decompose-mps": [["decompose-mps", "--tensor", "aklt"]],
    "spt": [["spt", "--alpha", ALPHA]],
    "block": [["block", "--tensor", "aklt"]],
    "expect": [["expect", "--alpha", ALPHA, "--string", STRING]],
    "check-peps": [["check-peps", "--alpha", ALPHA]],
    "topo-solve": [["topo-solve", "--topo", TOPO]],
    "transfer": [["transfer", "--alpha", ALPHA, "--brute"]],
    "degeneracy": [["degeneracy", "--topo", TOPO]],
    "simulate": [["simulate", "--chain", "aklt", "--enumerate"], ["simulate", "--peps", TOPO]],
    "mpo": [["mpo", action] for action in ("check", "purify", "relative", "apply")],
}


class TestOperationCoverage:
    def test_every_operation_reachable_from_exactly_one_subcommand(self, capsys, monkeypatch):
        import sys

        import mftn

        assert set(OPERATIONS.values()) <= set(cli.SUBCOMMANDS)
        assert set(REACHING) == set(OPERATIONS.values())
        # a counter bound in every module of the package that binds the operation
        calls = dict.fromkeys(OPERATIONS, 0)

        def counted(op, original):
            def spy(*args, **kwargs):
                calls[op] += 1
                return original(*args, **kwargs)
            return spy

        for op in OPERATIONS:
            original = getattr(mftn, op)
            for name, module in list(sys.modules.items()):
                if name.startswith("mftn"):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, counted(op, original))
        uncalled = []
        for command, argvs in REACHING.items():
            calls.update(dict.fromkeys(calls, 0))
            for argv in argvs:
                assert run(capsys, argv)[0] == 0, argv
            uncalled += [op for op, sub in OPERATIONS.items() if sub == command and not calls[op]]
        assert not uncalled, f"operations no subcommand reaches: {uncalled}"

    def test_every_public_function_is_an_operation(self):
        import inspect

        import mftn

        functions = {name for name in mftn.__all__ if inspect.isfunction(getattr(mftn, name))}
        assert functions - set(OPERATIONS) == set()
        assert set(OPERATIONS) <= set(mftn.__all__)

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


@pytest.mark.parametrize("tol, code", [(["--tol", "1e-3"], 0), ([], 3)], ids=["loose", "default"])
def test_topo_phase_is_judged_at_the_command_tol(capsys, tol, code):
    # 3 x 2.0944 misses 2 pi by 1.5e-5; the phase check allows max(tol, 1e-7)
    omega = np.exp(2j * np.pi / 3)
    alpha = [[1, 0]] + [[0, 0]] * 8
    alpha[3], alpha[6] = [omega.real, omega.imag], [omega.real, -omega.imag]  # X and X^2 of WH:3
    spec = {"basis": "WH:3", "alpha": alpha, "subgroup": ["I", "X", "X^2"], "phi": 2.0944}
    got, out = run(capsys, ["topo-solve", "--topo", json.dumps(spec)] + tol)
    assert got == code
    rep = report_of(out)
    if code == 0:
        assert {c["name"] for c in rep["checks"] if c["passed"]} == \
            {"solution_symmetry", "topo_symmetry", "non_injectivity_signature"}
    else:
        assert rep["error"] == "malformed input: bad spec: n * phi must vanish mod 2 pi for the subgroup exponent n"


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


GHZ_MAP = {"n": 3, "d": 2, "images": [
    {"source": {"n": 3, "d": 2, "v": [1, 0, 0], "w": [0, 0, 0]}, "target": {"n": 3, "d": 2, "v": [1, 1, 1], "w": [0, 0, 0]}},
    {"source": {"n": 3, "d": 2, "v": [0, 0, 0], "w": [1, 0, 0]}, "target": {"n": 3, "d": 2, "v": [0, 0, 0], "w": [1, 1, 1]}},
]}
FAMILY = {"basis": "WH:2", "d": 2, "constraints": [
    {"p_in": "X", "u_phys": {"legs": ["r", "c"], "shape": [2, 2], "data": [[0, 0], [1, 0], [1, 0], [0, 0]]},
     "p_out": "X"},
    {"p_in": "Z", "u_phys": {"legs": ["r", "c"], "shape": [2, 2], "data": [[1, 0], [0, 0], [0, 0], [1, 0]]},
     "p_out": "Z"},
]}


def _ghz_map():
    images = tuple((qc.PauliVector.from_json(e["source"]), qc.PauliVector.from_json(e["target"]))
                   for e in GHZ_MAP["images"])
    return qc.PartialCliffordMap(3, 2, images)


def _checks(rep):
    return {c["name"]: c for c in rep["checks"]}


class TestOutWriters:
    """Each --out writer's file, reloaded, equals the library value it was written from."""

    def written(self, capsys, tmp_path, argv, flag="--out"):
        path = tmp_path / "artifact.json"
        code, out = run(capsys, argv + [flag, str(path)])
        rep = report_of(out)
        assert code == 0 and all(c["passed"] for c in rep["checks"]), rep
        assert rep["artifacts"] == [str(path)]
        return json.loads(path.read_text()), rep

    def test_clifford_synth_writes_the_certified_unitary(self, capsys, tmp_path):
        obj, rep = self.written(capsys, tmp_path, ["clifford-synth", "--map", json.dumps(GHZ_MAP)])
        m = _ghz_map()
        got = DenseTensor.from_json(obj)
        assert got.legs == ("out", "in")
        assert np.array_equal(got.data, qc.synthesize_clifford(m).data)
        assert qc.is_clifford(got.data, 3, 2)
        assert all(qc.image_residual(got.data, src, tgt) <= VERDICT_FLOOR for src, tgt in m.images)
        # --out only adds the artifact: the checks read the certificate either way
        _, out = run(capsys, ["clifford-synth", "--map", json.dumps(GHZ_MAP)])
        assert rep["checks"] == report_of(out)["checks"]

    def test_topo_solve(self, capsys, tmp_path):
        obj, _ = self.written(capsys, tmp_path, ["topo-solve", "--topo", TOPO])
        alpha = np.array([complex(*z) for z in json.loads(TOPO)["alpha"]])
        want = topo_solution(weyl_heisenberg_basis(2), alpha).tensor
        got = DenseTensor.from_json(obj)
        assert got.legs == want.legs and np.array_equal(got.data, want.data)

    def test_spt(self, capsys, tmp_path):
        obj, _ = self.written(capsys, tmp_path, ["spt", "--alpha", ALPHA])
        want = spt_solution(weyl_heisenberg_basis(2), np.array([complex(*z) for z in json.loads(ALPHA)])).tensor
        got = DenseTensor.from_json(obj)
        assert got.legs == want.legs and np.array_equal(got.data, want.data)

    def test_solve_family(self, capsys, tmp_path):
        obj, _ = self.written(capsys, tmp_path, ["solve-family", "--constraints", json.dumps(FAMILY)])
        wh2 = weyl_heisenberg_basis(2)
        want = solve_symmetry_family(wh2, cli._constraints_from(FAMILY["constraints"], wh2), d=2, tol=DEFAULT_TOL)
        assert len(obj) == len(want) == 2
        for member, t in zip(obj, want):
            got = DenseTensor.from_json(member)
            assert got.legs == t.tensor.legs and np.array_equal(got.data, t.tensor.data)

    def test_basis(self, capsys, tmp_path):
        obj, _ = self.written(capsys, tmp_path, ["basis", "--basis", "WH:3"], flag="--out-basis")
        got, want = MFBasis.from_json(obj), weyl_heisenberg_basis(3)
        assert got.dim == want.dim and got.labels == want.labels
        assert all(np.array_equal(g, w) for g, w in zip(got.elements, want.elements))
        assert len(got.elements) == len(want.elements)

    def test_a_refused_dense_unitary_leaves_the_out_file_as_it_was(self, capsys, tmp_path, monkeypatch):
        """The size guard refuses the 8 x 8 GHZ U before it is built, and so before the file is opened."""
        monkeypatch.setattr(qc, "MAX_DENSE_ELEMENTS", 8 * 8 - 1)
        kept = tmp_path / "kept.json"
        kept.write_bytes(b'{"an earlier": "artifact"}\n')
        for path in (kept, tmp_path / "new.json"):
            code, out = run(capsys, ["clifford-synth", "--map", json.dumps(GHZ_MAP), "--out", str(path)])
            rep = report_of(out)
            assert code == 1
            assert {"name": "completed", "passed": False} in rep["checks"]
            assert "dense 8 x 8 Clifford" in rep["outputs"]["error"]
            assert rep["artifacts"] == []
        assert kept.read_bytes() == b'{"an earlier": "artifact"}\n'
        assert not (tmp_path / "new.json").exists()
        # without --out nothing dense is built, so the guard is not reached
        code, out = run(capsys, ["clifford-synth", "--map", json.dumps(GHZ_MAP)])
        assert code == 0 and all(c["passed"] for c in report_of(out)["checks"])

    def test_clifford_synth_runs_fourteen_qubits_within_an_address_space_cap(self, tmp_path):
        """X_0 -> X..X, Z_0 -> Z..Z I on 14 qubits: a dense U would need 4 GiB, past the 2 GiB cap.
        Without --out the abstract certificate holds O(n 2^n); with it the guard refuses first."""
        n = 14
        spec = json.dumps({"n": n, "d": 2, "images": [
            {"source": {"n": n, "d": 2, "v": [1] + [0] * (n - 1), "w": [0] * n},
             "target": {"n": n, "d": 2, "v": [1] * n, "w": [0] * n}},
            {"source": {"n": n, "d": 2, "v": [0] * n, "w": [1] + [0] * (n - 1)},
             "target": {"n": n, "d": 2, "v": [0] * n, "w": [1] * (n - 1) + [0]}}]})
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent), "OPENBLAS_NUM_THREADS": "1"}

        def capped(*argv):
            return subprocess.run([sys.executable, "-c", CAPPED_DISPATCH, "clifford-synth", "--map", spec, *argv],
                                  env=env, capture_output=True, text=True, timeout=120)

        proc = capped()
        assert proc.returncode == 0, proc.stderr
        rep = report_of(proc.stdout)
        assert set(_checks(rep)) == {"admissible", "is_clifford", "images_reproduced"}
        assert all(c["passed"] for c in rep["checks"])
        path = tmp_path / "u.json"
        proc = capped("--out", str(path))
        assert proc.returncode == 1, proc.stderr
        assert f"exceeds {MAX_DENSE_ELEMENTS} elements" in report_of(proc.stdout)["outputs"]["error"]
        assert not path.exists()


class TestCliffordSkipped:
    """check-peps reports why it skipped the sideways Clifford form, and still reports the rest."""

    def test_a_refused_dense_u_c_is_reported_and_the_run_completes(self, capsys, monkeypatch):
        """WH:3's U_C is 729 x 729: with the guard set just below that, the dense U_C is refused
        as a WH:5 one (15625 x 15625) is at the shipped guard."""
        monkeypatch.setattr(qc, "MAX_DENSE_ELEMENTS", 729 * 729 - 1)
        alpha = [[1, 0] if k in (0, 3, 6) else [0, 0] for k in range(9)]
        code, out = run(capsys, ["check-peps", "--basis", "WH:3", "--alpha", json.dumps(alpha)])
        rep = report_of(out)
        assert code == 0, rep
        assert _checks(rep)["q_commutants"]["passed"]
        assert "clifford_form" not in _checks(rep)
        assert rep["outputs"]["rank"] == 27
        assert rep["outputs"]["clifford_skipped"] == "a dense 729 x 729 Clifford exceeds 531440 elements"

    def test_a_composite_dimension_is_reported(self, capsys):
        alpha = [[1, 0] if k % 4 == 0 else [0, 0] for k in range(16)]
        code, out = run(capsys, ["check-peps", "--basis", "WH:4", "--alpha", json.dumps(alpha)])
        rep = report_of(out)
        assert code == 0 and all(c["passed"] for c in rep["checks"]), rep
        assert "clifford_form" not in _checks(rep)
        assert rep["outputs"]["clifford_skipped"] == "clifford form needs prime virtual dimension"

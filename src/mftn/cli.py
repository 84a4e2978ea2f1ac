"""Command-line frontend: every checker, solver, decomposition, spectrum, and
simulation as a subcommand with JSON input/output and stable exit codes.

Exit codes: 0 all checks passed, 1 a check failed, 2 unknown subcommand or
bad arguments, 3 malformed JSON input.  Reports are deterministic for fixed
inputs and seed (timing field aside); numbers are serialized with 17
significant digits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import basis as basis_mod
from . import clifford as qc
from . import mpo as mpo_mod
from . import mps as mps_mod
from . import peps as peps_mod
from . import protocol as protocol_mod
from . import tensors as tensors_mod
from . import fixtures
from .errors import MftnError
from .tensors import DenseTensor

# every public operation is reachable from exactly one subcommand
OPERATIONS = {
    "contract": "check-mps",
    "polar_decompose": "decompose-mps",
    "eig_hermitian": "decompose-mps",
    "pseudo_inverse": "decompose-mps",
    "weyl_heisenberg_basis": "basis",
    "composite_basis": "basis",
    "hadamard_latin_basis": "basis",
    "check_group_closure": "basis",
    "pauli_to_matrix": "clifford-synth",
    "check_admissible": "clifford-synth",
    "synthesize_clifford": "clifford-synth",
    "is_clifford": "clifford-synth",
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
    "injectivity_check": "check-peps",
    "topo_solution": "topo-solve",
    "check_topo_symmetry": "topo-solve",
    "transfer_spectrum_analytic": "transfer",
    "transfer_matrix_brute": "transfer",
    "degeneracy_report": "degeneracy",
    "run_mps_protocol": "simulate",
    "run_peps_protocol": "simulate",
    "enumerate_outcomes": "simulate",
    "check_mpo_isometry": "mpo",
    "mpo_slices": "mpo",
    "build_purifying_unitary": "mpo",
    "relative_local_unitary": "mpo",
    "apply_mpo_via_protocol": "mpo",
}

SUBCOMMANDS = (
    "basis", "solve-family", "check-mps", "decompose-mps", "spt", "block",
    "expect", "check-peps", "topo-solve", "transfer", "degeneracy",
    "simulate", "mpo", "clifford-synth",
)


def _fmt(x):
    if isinstance(x, float):
        return float(f"{x:.17g}")
    if isinstance(x, complex):
        return [_fmt(x.real), _fmt(x.imag)]
    return x


class RunReport:
    def __init__(self, command: str, payloads):
        self.command = command
        digest = hashlib.sha256()
        for p in payloads:
            digest.update(json.dumps(p, sort_keys=True, default=str).encode())
        self.inputs_digest = digest.hexdigest()
        self.checks = []
        self.artifacts = []
        self.outputs = {}
        self._t0 = time.monotonic()

    def check(self, name: str, passed: bool, residual: float | None = None):
        entry = {"name": name, "passed": bool(passed)}
        if residual is not None:
            entry["residual"] = _fmt(float(residual))
        self.checks.append(entry)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def finish(self, out_path=None):
        doc = {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "checks": self.checks,
            "artifacts": self.artifacts,
            "outputs": self.outputs,
            "tolerance": _fmt(tensors_mod.DEFAULT_TOL),
            "elapsed_ms": int((time.monotonic() - self._t0) * 1000),
        }
        text = json.dumps(doc, sort_keys=True, indent=1)
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
            self.artifacts.append(out_path)
        print(text)
        return 0 if self.passed else 1


def _load_json(path_or_text):
    if path_or_text is None:
        return None
    try:
        if os.path.exists(path_or_text):
            with open(path_or_text) as fh:
                return json.load(fh)
        return json.loads(path_or_text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(str(exc)) from exc


class MalformedInput(Exception):
    pass


def _basis_from(arg):
    if arg is None:
        raise MalformedInput("missing --basis")
    if isinstance(arg, str) and arg.upper().startswith("WH:"):
        return basis_mod.weyl_heisenberg_basis(int(arg.split(":", 1)[1]))
    return basis_mod.MFBasis.from_json(_load_json(arg))


def _alpha_from(arg, n):
    obj = _load_json(arg)
    if isinstance(obj, dict) and "alpha" in obj:
        obj = obj["alpha"]
    alpha = np.array([complex(re, im) for re, im in obj])
    if alpha.size != n:
        raise MalformedInput(f"alpha needs {n} coefficients")
    return alpha


def _tensor_from(obj) -> DenseTensor:
    return DenseTensor.from_json(obj)


FIXTURES = {"aklt": fixtures.aklt_tensor, "cluster": fixtures.cluster_tensor}


def _mps_arg(arg) -> "mps_mod.MPSTensor":
    """Accept a built-in fixture name or a JSON chain spec."""
    if isinstance(arg, str) and arg in FIXTURES:
        return FIXTURES[arg]()
    return _mps_from_spec(_load_json(arg))


def _mps_from_spec(obj, basis=None) -> mps_mod.MPSTensor:
    if isinstance(obj, str) or (isinstance(obj, dict) and "fixture" in obj):
        name = obj if isinstance(obj, str) else obj["fixture"]
        if name in FIXTURES:
            return FIXTURES[name]()
        raise MalformedInput(f"unknown fixture {name!r}")
    basis = basis or _basis_from(obj.get("basis"))
    tensor = _tensor_from(obj["tensor"])
    constraints = _constraints_from(obj.get("constraints", []), basis)
    return mps_mod.MPSTensor(tensor, basis, constraints)


def _constraints_from(items, basis):
    out = []
    for item in items:
        u = item.get("u_phys")
        if u == "solve" or u is None:
            u_mat = None
        else:
            u_mat = _tensor_from(u).data
        if u_mat is None:
            out.append((item["p_in"], None, item["p_out"]))
        else:
            out.append(
                mps_mod.SymmetryConstraint(basis.index(item["p_in"]), u_mat, basis.index(item["p_out"]))
            )
    return out


def _pauli_from(obj) -> qc.PauliVector:
    return qc.PauliVector.from_json(obj)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_basis(args, report):
    b = _basis_from(args.basis)
    if args.composite:
        b2 = _basis_from(args.composite)
        b = basis_mod.composite_basis(b, b2, mode=args.mode)
    gram = b.completeness_map()
    resid = float(np.linalg.norm(gram.conj().T @ gram - np.eye(b.dim**2)))
    report.check("completeness_unitary", resid < 1e-7, resid)
    table = basis_mod.check_group_closure(b)
    report.check("group_closure", table is not None)
    report.outputs["dim"] = b.dim
    report.outputs["labels"] = list(b.labels)
    if args.out_basis:
        with open(args.out_basis, "w") as fh:
            json.dump(b.to_json(), fh)
        report.artifacts.append(args.out_basis)


def _cmd_solve_family(args, report):
    spec = _load_json(args.constraints)
    basis = _basis_from(spec.get("basis", args.basis))
    constraints = _constraints_from(spec["constraints"], basis)
    d = int(spec.get("d", args.d or basis.dim))
    family = mps_mod.solve_symmetry_family(basis, constraints, d=d)
    report.outputs["dimension"] = len(family)
    for t in family:
        rep = mps_mod.check_mf_symmetry(t)
        report.check("member_symmetry", rep.passed, rep.max_residual)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([t.tensor.to_json() for t in family], fh)
        report.artifacts.append(args.out)


def _cmd_check_mps(args, report):
    A = _mps_arg(args.tensor)
    rep = mps_mod.check_mf_symmetry(A)
    report.check("mf_symmetry", rep.passed, rep.max_residual)
    ok, const, resid = mps_mod.canonical_form_check(A)
    report.check("canonical_form", ok, resid)
    report.outputs["canonical_constant"] = _fmt(const)


def _cmd_decompose_mps(args, report):
    A = _mps_arg(args.tensor)
    split = mps_mod.split_polar(A)
    report.check("polar_reconstruction", split.reconstruction_residual < 1e-9,
                 split.reconstruction_residual)
    report.check("null_space_match", split.null_space_match)
    worst = max(split.commutant_residuals, default=0.0)
    report.check("q_commutants", worst < 1e-8, worst)
    corr = mps_mod.correction_consistency(split)
    report.check("correction_consistency", corr.passed, max(corr.residuals, default=0.0))
    try:
        form = mps_mod.clifford_magic_decompose(split, A.basis)
        report.check("clifford_magic_reconstruction",
                     form.reconstruction_residual < 1e-9, form.reconstruction_residual)
        report.outputs["psi_is_stabilizer"] = mps_mod.is_stabilizer_state(form.psi, 2, A.D)
    except MftnError as exc:
        report.outputs["clifford_magic_skipped"] = str(exc)
    report.outputs["rank"] = split.rank


def _cmd_spt(args, report):
    basis = _basis_from(args.basis)
    alpha = _alpha_from(args.alpha, len(basis.elements))
    q = mps_mod.spt_solution(basis, alpha)
    rep = mps_mod.check_mf_symmetry(q)
    report.check("solution_symmetry", rep.passed, rep.max_residual)
    ok, _, resid = mps_mod.canonical_form_check(q)
    report.check("canonical_form", ok, resid)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(q.tensor.to_json(), fh)
        report.artifacts.append(args.out)


def _cmd_block(args, report):
    A = _mps_arg(args.tensor)
    order = mps_mod.map_order(A)
    report.outputs["bijective"] = order.bijective
    report.outputs["order"] = order.order
    k = args.k if args.k else (order.order or 1)
    blocked = mps_mod.block(A, k)
    rep = mps_mod.check_mf_symmetry(blocked)
    report.check("blocked_symmetry", rep.passed, rep.max_residual)
    spt_type = all(c.p_in == c.p_out for c in blocked.constraints)
    report.outputs["blocked_spt_type"] = spt_type
    report.outputs["k"] = k


def _cmd_expect(args, report):
    basis = _basis_from(args.basis)
    alpha = _alpha_from(args.alpha, len(basis.elements))
    q = mps_mod.spt_solution(basis, alpha)
    string = [_pauli_from(p) for p in _load_json(args.string)]
    value = mps_mod.pauli_expectation([q] * len(string), string)
    report.outputs["value"] = _fmt(complex(value))
    report.check("evaluated", True)


def _cmd_check_peps(args, report):
    basis = _basis_from(args.basis)
    alpha = _alpha_from(args.alpha, len(basis.elements))
    q = peps_mod.topo_solution(basis, alpha)
    rep = peps_mod.check_peps_mf_symmetry(q)
    report.check("peps_mf_symmetry", rep.passed, rep.max_residual)
    a = peps_mod.complete_with_isometry(q)
    ok, const, resid = peps_mod.peps_isometry_check(a)
    report.check("isometry_condition", ok, resid)
    split = peps_mod.peps_split_polar(q)
    worst = max(split.commutant_residuals_a + split.commutant_residuals_b, default=0.0)
    report.check("q_commutants", worst < 1e-8, worst)
    if split.clifford is not None:
        report.check("clifford_form", split.clifford.reconstruction_residual < 1e-9,
                     split.clifford.reconstruction_residual)
    inj = peps_mod.injectivity_check(q)
    report.outputs["rank"] = inj.rank
    report.outputs["injective"] = inj.injective


def _cmd_topo_solve(args, report):
    spec = _load_json(args.topo)
    basis = _basis_from(spec.get("basis", args.basis))
    alpha = np.array([complex(re, im) for re, im in spec["alpha"]])
    q = peps_mod.topo_solution(basis, alpha)
    rep = peps_mod.check_peps_mf_symmetry(q)
    report.check("solution_symmetry", rep.passed, rep.max_residual)
    if spec.get("subgroup"):
        sub = tuple(sorted(basis.index(l) for l in spec["subgroup"]))
        tspec = peps_mod.TopoSymmetrySpec(basis, sub, float(spec.get("phi", 0.0)))
        topo = peps_mod.check_topo_symmetry(q, tspec, alpha=alpha)
        report.check("topo_symmetry", topo.passed,
                     max(topo.residuals.values(), default=0.0))
        report.outputs["phases"] = {basis.labels[k]: _fmt(v) for k, v in topo.phases.items()}
        inj = peps_mod.injectivity_check(q, tspec)
        report.check("non_injectivity_signature", bool(inj.consistent_with_spec))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(q.tensor.to_json(), fh)
        report.artifacts.append(args.out)


def _cmd_transfer(args, report):
    basis = _basis_from(args.basis)
    alpha = _alpha_from(args.alpha, len(basis.elements))
    L = args.L or 2
    spec = peps_mod.transfer_spectrum_analytic(alpha, basis, L)
    report.outputs["e_values"] = {l: _fmt(complex(e)) for l, e in zip(spec.labels, spec.e_values)}
    report.outputs["t_values"] = {l: _fmt(complex(t)) for l, t in zip(spec.labels, spec.t_values)}
    report.outputs["degeneracy_of_max"] = spec.degeneracy_of_max
    if args.brute:
        q = peps_mod.topo_solution(basis, alpha)
        brute = peps_mod.transfer_matrix_brute(q, L)
        want = np.sort(np.abs(spec.t_values))[::-1]
        got = np.sort(np.abs(brute))[::-1][: len(want)]
        resid = float(np.max(np.abs(got - want)) / max(want.max(), 1e-300))
        report.check("brute_matches_analytic", resid < 1e-8, resid)
    report.check("spectrum_computed", True)


def _cmd_degeneracy(args, report):
    spec = _load_json(args.topo)
    basis = _basis_from(spec.get("basis", args.basis))
    alpha = np.array([complex(re, im) for re, im in spec["alpha"]])
    sub = tuple(sorted(basis.index(l) for l in spec["subgroup"]))
    tspec = peps_mod.TopoSymmetrySpec(basis, sub, float(spec.get("phi", 0.0)))
    L = int(spec.get("L", args.L or len(sub)))
    rep = peps_mod.degeneracy_report(tspec, alpha, L)
    report.check("degeneracy_signature", rep.passed)
    report.outputs["degeneracy_of_max"] = rep.spectrum.degeneracy_of_max
    report.outputs["subgroup_order"] = rep.subgroup_order
    report.outputs["max_value"] = _fmt(rep.max_value)
    report.outputs["note"] = (
        "degeneracy is a signature only; symmetry-broken order produces it too"
    )


def _cmd_simulate(args, report):
    if args.peps:
        spec = _load_json(args.peps)
        basis = _basis_from(spec.get("basis", args.basis))
        alpha = np.array([complex(re, im) for re, im in spec["alpha"]])
        a = peps_mod.complete_with_isometry(peps_mod.topo_solution(basis, alpha))
        rows, cols = int(args.rows or 2), int(args.cols or 2)
        patch = protocol_mod.PepsPatch([[a] * cols for _ in range(rows)],
                                       spec.get("orientation", "ur"))
        fails = 0
        worst = 1.0
        for k in range(args.trials):
            run = protocol_mod.run_peps_protocol(patch, seed=args.seed + k)
            fails += not run.success
            worst = min(worst, run.fidelity)
        report.check("all_trials_succeed", fails == 0)
        report.outputs["worst_fidelity"] = _fmt(worst)
        report.outputs["trials"] = args.trials
        return
    A = _mps_arg(args.chain)
    sites = args.sites or 4
    tensors = [A] * sites
    if args.enumerate:
        rep = protocol_mod.enumerate_outcomes(tensors, args.boundary)
        report.outputs["success_probability"] = _fmt(rep.success_probability)
        report.outputs["correctable_fraction"] = _fmt(rep.correctable_fraction)
        report.check("probabilities_normalized",
                     abs(sum(rep.probabilities) - 1) < 1e-9)
    successes, worst = 0, 1.0
    for k in range(args.trials):
        run = protocol_mod.run_mps_protocol(tensors, args.boundary, seed=args.seed + k)
        successes += run.success
        worst = min(worst, run.fidelity) if run.success else worst
    report.outputs["success_rate"] = _fmt(successes / max(args.trials, 1))
    report.outputs["worst_success_fidelity"] = _fmt(worst)
    if args.boundary == "open":
        report.check("deterministic_success", successes == args.trials)
    else:
        report.check("ran", True)


def _cmd_mpo(args, report):
    basis = _basis_from(args.basis)
    O = fixtures.controlled_pauli_mpo(basis)
    if args.mpo_action == "check":
        ok, const, resid = mpo_mod.check_mpo_isometry(O)
        report.check("isometry_condition", ok, resid)
        report.outputs["constant"] = _fmt(const)
        rep = mpo_mod.mpo_slices(O)
        report.check("slice_orthogonality", rep.passed, rep.orthogonality_residual)
    elif args.mpo_action == "purify":
        u = mpo_mod.build_purifying_unitary(O)
        resid = float(np.linalg.norm(u.data @ u.data.conj().T - np.eye(u.data.shape[0])))
        report.check("purifying_unitary", resid < 1e-10, resid)
    elif args.mpo_action == "relative":
        u0 = tensors_mod.random_unitary(O.d, protocol_mod.philox_rng(args.seed))
        got = mpo_mod.relative_local_unitary(O, O.apply_phys_in(u0))
        _, resid = tensors_mod.proportionality(got.reshape(-1), u0.reshape(-1))
        report.check("round_trip", resid < 1e-8, resid)
    elif args.mpo_action == "apply":
        n = args.sites or 3
        report.outputs["sites"] = n
        if n < 1:
            raise MalformedInput("--sites must be positive")
        mpo_mod.check_protocol_sites(n)  # before the d^n input is drawn
        rng = protocol_mod.philox_rng(args.seed)
        psi = rng.standard_normal(O.d**n) + 1j * rng.standard_normal(O.d**n)
        run = mpo_mod.apply_mpo_via_protocol([O] * n, psi, "open", seed=args.seed)
        report.check("matches_direct_action", run.fidelity >= 1 - 1e-8, 1 - run.fidelity)
    else:
        raise MalformedInput(f"unknown mpo action {args.mpo_action!r}")


def _cmd_clifford_synth(args, report):
    spec = _load_json(args.map)
    n, d = int(spec["n"]), int(spec["d"])
    images = tuple(
        (_pauli_from(i["source"]), _pauli_from(i["target"])) for i in spec["images"]
    )
    m = qc.PartialCliffordMap(n, d, images)
    adm = qc.check_admissible(m)
    report.check("admissible", adm.admissible)
    if adm.admissible:
        u = qc.synthesize_clifford(m)
        report.check("is_clifford", qc.is_clifford(u.data, n, d))
        worst = 0.0
        for src, tgt in images:
            worst = max(worst, float(np.linalg.norm(
                u.data @ src.matrix() @ u.data.conj().T - tgt.matrix())))
        report.check("images_reproduced", worst < 1e-9, worst)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(u.to_json(), fh)
            report.artifacts.append(args.out)
    else:
        report.outputs["failures"] = adm.failures


HANDLERS = {
    "basis": _cmd_basis,
    "solve-family": _cmd_solve_family,
    "check-mps": _cmd_check_mps,
    "decompose-mps": _cmd_decompose_mps,
    "spt": _cmd_spt,
    "block": _cmd_block,
    "expect": _cmd_expect,
    "check-peps": _cmd_check_peps,
    "topo-solve": _cmd_topo_solve,
    "transfer": _cmd_transfer,
    "degeneracy": _cmd_degeneracy,
    "simulate": _cmd_simulate,
    "mpo": _cmd_mpo,
    "clifford-synth": _cmd_clifford_synth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mftn",
        description="Measurement-and-feedback tensor network toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    common = dict(add_help=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, **common)
        p.add_argument("--basis", default="WH:2")
        p.add_argument("--constraints")
        p.add_argument("--alpha")
        p.add_argument("--tensor")
        p.add_argument("--topo")
        p.add_argument("--chain")
        p.add_argument("--peps")
        p.add_argument("--string")
        p.add_argument("--map")
        p.add_argument("--composite")
        p.add_argument("--mode", default="product")
        p.add_argument("--L", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--d", type=int)
        p.add_argument("--sites", type=int)
        p.add_argument("--rows", type=int)
        p.add_argument("--cols", type=int)
        p.add_argument("--boundary", default="open", choices=["open", "periodic"])
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol")
        p.add_argument("--out")
        p.add_argument("--out-basis")
        p.add_argument("--enumerate", action="store_true")
        p.add_argument("--brute", action="store_true")
        if name == "mpo":
            p.add_argument("mpo_action", choices=["check", "purify", "relative", "apply"])
    return parser


def _tolerance(text) -> float:
    """A --tol or MFTN_TOL value; it must be a finite number above zero."""
    try:
        tol = float(text)
    except ValueError:
        raise MalformedInput(f"tolerance {text!r} is not a number") from None
    if not (math.isfinite(tol) and tol > 0):
        raise MalformedInput(f"tolerance {text!r} must be finite and above zero")
    return tol


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for errors, matching the contract
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return 2
    saved_tol = tensors_mod.DEFAULT_TOL
    try:
        try:
            tol = args.tol if args.tol is not None else os.environ.get("MFTN_TOL")
            if tol is not None:
                tensors_mod.DEFAULT_TOL = _tolerance(tol)
                if args.tol is not None:
                    # stored as a float, as argparse did, so the inputs digest is unchanged
                    args.tol = tensors_mod.DEFAULT_TOL
            report = RunReport(args.command, [vars(args)])
            HANDLERS[args.command](args, report)
        except MalformedInput as exc:
            print(json.dumps({"error": f"malformed input: {exc}"}))
            return 3
        except MftnError as exc:
            report.check("completed", False)
            report.outputs["error"] = str(exc)
            report.finish(None)
            return 1
        return report.finish(None)
    finally:
        # the override holds for this report only
        tensors_mod.DEFAULT_TOL = saved_tol


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

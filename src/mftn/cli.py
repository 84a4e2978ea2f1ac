"""Command-line frontend: every checker, solver, decomposition, spectrum, and
simulation as a subcommand with JSON input/output and stable exit codes.

Exit codes: 0 all checks passed, 1 a check failed, 2 an unknown subcommand
or a bad argument (missing, foreign to the subcommand, or refused by its
type or choices), 3 malformed input (a value out of range, or a basis or
JSON spec that cannot be read).  Reports are deterministic for fixed inputs
and seed (timing field aside); numbers are serialized with 17 significant
digits.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .tensors import (COMMUTANT_FLOOR, EIGEN_FLOOR, NORM_GUARD, UNITARY_FLOOR, VERDICT_FLOOR, DenseTensor,
                      isometry_residual)

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


def _fmt(x):
    if isinstance(x, float):
        return float(f"{x:.17g}")
    if isinstance(x, complex):
        return [_fmt(x.real), _fmt(x.imag)]
    return x


class RunReport:
    def __init__(self, command: str, inputs: dict, tol: float):
        self.command = command
        self.tol = tol
        text = json.dumps(inputs, sort_keys=True, default=str)
        self.inputs_digest = hashlib.sha256(text.encode()).hexdigest()
        self.checks = []
        self.artifacts = []
        self.outputs = {}
        self._t0 = time.monotonic()

    def check(self, name: str, passed: bool, residual: float | None = None):
        entry = {"name": name, "passed": bool(passed)}
        if residual is not None:
            entry["residual"] = _fmt(float(residual))
        self.checks.append(entry)

    def artifact(self, path, make):
        """Write the JSON value make() to path, when a path was given."""
        if path:
            with open(path, "w") as fh:
                json.dump(make(), fh)
            self.artifacts.append(path)

    def finish(self):
        doc = {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "checks": self.checks,
            "artifacts": self.artifacts,
            "outputs": self.outputs,
            "tolerance": _fmt(self.tol),
            "elapsed_ms": int((time.monotonic() - self._t0) * 1000),
        }
        print(json.dumps(doc, sort_keys=True, indent=1))
        return 0 if all(c["passed"] for c in self.checks) else 1


class MalformedInput(Exception):
    """A value out of range, or a basis or JSON spec that cannot be read (exit 3)."""


def _load_json(arg):
    """A JSON value given as a path, as JSON text, or already parsed."""
    if not isinstance(arg, str):
        return arg
    try:
        if os.path.exists(arg):
            with open(arg) as fh:
                return json.load(fh)
        return json.loads(arg)
    except (OSError, ValueError) as exc:
        raise MalformedInput(str(exc)) from exc


def _spec_from(arg) -> dict:
    spec = _load_json(arg)
    if not isinstance(spec, dict):
        raise MalformedInput("spec must be a JSON object")
    return spec


@contextlib.contextmanager
def _reading(what):
    """Report a value that is not of the form `what` needs as malformed input."""
    try:
        yield
    except KeyError as exc:
        raise MalformedInput(f"{what} has no {exc.args[0]!r} entry") from None
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise MalformedInput(f"bad {what}: {exc}") from None


def _entries(what, parse, items) -> list:
    """parse applied to each entry of a JSON list; a bad entry is malformed input."""
    if not isinstance(items, list):
        raise MalformedInput(f"{what} must be a JSON list")
    out = []
    for k, item in enumerate(items):
        with _reading(f"{what} entry {k}"):
            out.append(parse(item))
    return out


def _basis_from(arg) -> basis_mod.MFBasis:
    """The one reader of a basis: "WH:D" for an integer D >= 2, or basis JSON."""
    if not isinstance(arg, str):
        raise MalformedInput("a basis is 'WH:D', a path or JSON text")
    with _reading("basis"):
        if arg.upper().startswith("WH:"):
            return basis_mod.weyl_heisenberg_basis(int(arg[3:]))
        return basis_mod.MFBasis.from_json(_load_json(arg))


def _coefficient(entry) -> complex:
    re, im = entry
    return complex(re, im)


def _basis_alpha(basis_arg, alpha_arg):
    """A basis and coefficients [[re, im], ...] (or {"alpha": [...]}) over its elements."""
    basis = _basis_from(basis_arg)
    obj = _load_json(alpha_arg)
    if isinstance(obj, dict) and "alpha" in obj:
        obj = obj["alpha"]
    alpha = np.array(_entries("alpha", _coefficient, obj))
    if alpha.size != len(basis.elements):
        raise MalformedInput(f"alpha needs {len(basis.elements)} coefficients")
    return basis, alpha


def _topo_from(arg, default_basis):
    """(spec, basis, alpha) of a --topo or --peps spec."""
    spec = _spec_from(arg)
    with _reading("spec"):
        basis, alpha = _basis_alpha(spec.get("basis", default_basis), spec["alpha"])
    return spec, basis, alpha


def _topo_symmetry(spec, basis) -> peps_mod.TopoSymmetrySpec:
    with _reading("spec"):
        sub = tuple(sorted(basis.index(l) for l in spec["subgroup"]))
        return peps_mod.TopoSymmetrySpec(basis, sub, float(spec.get("phi", 0.0)))


FIXTURES = {"aklt": fixtures.aklt_tensor, "cluster": fixtures.cluster_tensor}


def _mps_from(arg) -> mps_mod.MPSTensor:
    """A chain tensor from a fixture name, {"fixture": name}, or a JSON chain spec."""
    spec = arg if arg in FIXTURES else _load_json(arg)
    if isinstance(spec, dict) and "fixture" in spec:
        spec = spec["fixture"]
    if isinstance(spec, str):
        if spec not in FIXTURES:
            raise MalformedInput(f"unknown fixture {spec!r}")
        return FIXTURES[spec]()
    spec = _spec_from(spec)
    basis = _basis_from(spec.get("basis"))
    with _reading("chain spec"):
        tensor = DenseTensor.from_json(spec["tensor"])
    constraints = _constraints_from(spec.get("constraints", []), basis)
    return mps_mod.MPSTensor(tensor, basis, constraints)


def _constraints_from(items, basis):
    def constraint(item):
        u = item.get("u_phys")
        if u == "solve" or u is None:
            return (item["p_in"], None, item["p_out"])
        return mps_mod.SymmetryConstraint(
            basis.index(item["p_in"]), DenseTensor.from_json(u).data, basis.index(item["p_out"]))

    return _entries("constraints", constraint, items)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_basis(args, report):
    b = _basis_from(args.basis)
    if args.composite:
        b = basis_mod.composite_basis(b, _basis_from(args.composite), mode=args.mode)
    resid = isometry_residual(b.completeness_map())
    report.check("completeness_unitary", resid < VERDICT_FLOOR, resid)
    table = basis_mod.check_group_closure(b)
    report.check("group_closure", table is not None)
    report.outputs["dim"] = b.dim
    report.outputs["labels"] = list(b.labels)
    report.artifact(args.out_basis, b.to_json)


def _cmd_solve_family(args, report):
    spec = _spec_from(args.constraints)
    basis = _basis_from(spec.get("basis", args.basis))
    with _reading("spec"):
        constraints = _constraints_from(spec["constraints"], basis)
        d = spec.get("d", args.d)
        d = basis.dim if d is None else int(d)
    family = mps_mod.solve_symmetry_family(basis, constraints, d=d, tol=report.tol)
    report.outputs["dimension"] = len(family)
    for t in family:
        rep = mps_mod.check_mf_symmetry(t, report.tol)
        report.check("member_symmetry", rep.passed, rep.max_residual)
    report.artifact(args.out, lambda: [t.tensor.to_json() for t in family])


def _cmd_check_mps(args, report):
    A = _mps_from(args.tensor)
    rep = mps_mod.check_mf_symmetry(A, report.tol)
    report.check("mf_symmetry", rep.passed, rep.max_residual)
    ok, const, resid = mps_mod.canonical_form_check(A, report.tol)
    report.check("canonical_form", ok, resid)
    report.outputs["canonical_constant"] = _fmt(const)


def _cmd_decompose_mps(args, report):
    A = _mps_from(args.tensor)
    split = mps_mod.split_polar(A, report.tol)
    resid = split.reconstruction_residual
    report.check("polar_reconstruction", resid < max(report.tol, VERDICT_FLOOR), resid)
    report.check("null_space_match", split.null_space_match)
    worst = max(split.commutant_residuals, default=0.0)
    report.check("q_commutants", worst < max(report.tol, COMMUTANT_FLOOR), worst)
    corr = mps_mod.correction_consistency(split, report.tol)
    report.check("correction_consistency", corr.passed, max(corr.residuals, default=0.0))
    try:
        form = mps_mod.clifford_magic_decompose(split, A.basis)
        resid = form.reconstruction_residual
        report.check("clifford_magic_reconstruction", resid < max(report.tol, VERDICT_FLOOR), resid)
        report.outputs["psi_is_stabilizer"] = mps_mod.is_stabilizer_state(form.psi, 2, A.D)
    except MftnError as exc:
        report.outputs["clifford_magic_skipped"] = str(exc)
    report.outputs["rank"] = split.rank


def _cmd_spt(args, report):
    basis, alpha = _basis_alpha(args.basis, args.alpha)
    q = mps_mod.spt_solution(basis, alpha, report.tol)
    rep = mps_mod.check_mf_symmetry(q, report.tol)
    report.check("solution_symmetry", rep.passed, rep.max_residual)
    ok, _, resid = mps_mod.canonical_form_check(q, report.tol)
    report.check("canonical_form", ok, resid)
    report.artifact(args.out, q.tensor.to_json)


def _cmd_block(args, report):
    A = _mps_from(args.tensor)
    order = mps_mod.map_order(A)
    report.outputs["bijective"] = order.bijective
    report.outputs["order"] = order.order
    k = args.k if args.k is not None else (order.order or 1)
    blocked = mps_mod.block(A, k)
    rep = mps_mod.check_mf_symmetry(blocked, report.tol)
    report.check("blocked_symmetry", rep.passed, rep.max_residual)
    spt_type = all(c.p_in == c.p_out for c in blocked.constraints)
    report.outputs["blocked_spt_type"] = spt_type
    report.outputs["k"] = k


def _cmd_expect(args, report):
    basis, alpha = _basis_alpha(args.basis, args.alpha)
    q = mps_mod.spt_solution(basis, alpha, report.tol)
    string = _entries("string", qc.PauliVector.from_json, _load_json(args.string))
    value = mps_mod.pauli_expectation([q] * len(string), string, tol=report.tol)
    report.outputs["value"] = _fmt(complex(value))
    report.check("evaluated", True)


def _cmd_check_peps(args, report):
    basis, alpha = _basis_alpha(args.basis, args.alpha)
    tol = report.tol
    q = peps_mod.topo_solution(basis, alpha, tol)
    rep = peps_mod.check_peps_mf_symmetry(q, tol)
    report.check("peps_mf_symmetry", rep.passed, rep.max_residual)
    a = peps_mod.complete_with_isometry(q, tol)
    ok, const, resid = peps_mod.peps_isometry_check(a, tol)
    report.check("isometry_condition", ok, resid)
    split = peps_mod.peps_split_polar(q, tol)
    worst = max(split.commutant_residuals, default=0.0)
    report.check("q_commutants", worst < max(report.tol, COMMUTANT_FLOOR), worst)
    if split.clifford is not None:
        resid = split.clifford.reconstruction_residual
        report.check("clifford_form", resid < max(report.tol, VERDICT_FLOOR), resid)
    inj = peps_mod.injectivity_check(q, tol=tol)
    report.outputs["rank"] = inj.rank
    report.outputs["injective"] = inj.injective


def _cmd_topo_solve(args, report):
    spec, basis, alpha = _topo_from(args.topo, args.basis)
    q = peps_mod.topo_solution(basis, alpha, report.tol)
    rep = peps_mod.check_peps_mf_symmetry(q, report.tol)
    report.check("solution_symmetry", rep.passed, rep.max_residual)
    if spec.get("subgroup"):
        tspec = _topo_symmetry(spec, basis)
        topo = peps_mod.check_topo_symmetry(q, tspec, alpha, report.tol)
        report.check("topo_symmetry", topo.passed,
                     max(topo.residuals.values(), default=0.0))
        report.outputs["phases"] = {basis.labels[k]: _fmt(v) for k, v in topo.phases.items()}
        inj = peps_mod.injectivity_check(q, tspec, report.tol)
        report.check("non_injectivity_signature", bool(inj.consistent_with_spec))
    report.artifact(args.out, q.tensor.to_json)


def _cmd_transfer(args, report):
    basis, alpha = _basis_alpha(args.basis, args.alpha)
    spec = peps_mod.transfer_spectrum_analytic(alpha, basis, args.L)
    report.outputs["e_values"] = {l: _fmt(complex(e)) for l, e in zip(spec.labels, spec.e_values)}
    report.outputs["t_values"] = {l: _fmt(complex(t)) for l, t in zip(spec.labels, spec.t_values)}
    report.outputs["degeneracy_of_max"] = spec.degeneracy_of_max
    if args.brute:
        q = peps_mod.topo_solution(basis, alpha, report.tol)
        brute = peps_mod.transfer_matrix_brute(q, args.L)
        want = np.sort(np.abs(spec.t_values))[::-1]
        got = np.sort(np.abs(brute))[::-1][: len(want)]
        resid = float(np.max(np.abs(got - want)) / max(want.max(), NORM_GUARD))
        report.check("brute_matches_analytic", resid < max(report.tol, EIGEN_FLOOR), resid)
    report.check("spectrum_computed", True)


def _cmd_degeneracy(args, report):
    spec, basis, alpha = _topo_from(args.topo, args.basis)
    tspec = _topo_symmetry(spec, basis)
    with _reading("spec"):
        L = spec.get("L", args.L)
        L = len(tspec.subgroup) if L is None else int(L)
    if L < 1 or L % len(tspec.subgroup):
        raise MalformedInput(f"L = {L} must be a positive multiple of the subgroup order")
    rep = peps_mod.degeneracy_report(tspec, alpha, L, report.tol)
    report.check("degeneracy_signature", rep.passed)
    report.outputs["degeneracy_of_max"] = rep.spectrum.degeneracy_of_max
    report.outputs["subgroup_order"] = rep.subgroup_order
    report.outputs["max_value"] = _fmt(rep.max_value)
    report.outputs["note"] = "degeneracy is a signature only; symmetry-broken order produces it too"


def _cmd_simulate(args, report):
    tol = report.tol
    if args.peps is not None:
        spec, basis, alpha = _topo_from(args.peps, args.basis)
        a = peps_mod.complete_with_isometry(peps_mod.topo_solution(basis, alpha, tol), tol)
        with _reading("spec"):
            patch = protocol_mod.PepsPatch([[a] * args.cols for _ in range(args.rows)],
                                           spec.get("orientation", "ur"), tol)
        fails, worst = 0, math.inf
        for k in range(args.trials):
            run = protocol_mod.run_peps_protocol(patch, seed=args.seed + k, tol=tol)
            fails += not run.success
            worst = min(worst, run.fidelity)
        report.check("all_trials_succeed", fails == 0)
        report.outputs["worst_fidelity"] = _fmt(worst)
        report.outputs["trials"] = args.trials
        return
    tensors = [_mps_from(args.chain)] * args.sites
    if args.enumerate:
        rep = protocol_mod.enumerate_outcomes(tensors, args.boundary, tol)
        report.outputs["success_probability"] = _fmt(rep.success_probability)
        report.outputs["correctable_fraction"] = _fmt(rep.correctable_fraction)
        report.check("probabilities_normalized",
                     abs(sum(rep.probabilities) - 1) < VERDICT_FLOOR)
    successes, worst, agree = 0, math.inf, True
    for k in range(args.trials):
        run = protocol_mod.run_mps_protocol(tensors, args.boundary, args.seed + k, tol)
        successes += run.success
        agree &= run.success == run.predicted_success
        worst = min(worst, run.fidelity) if run.success else worst
    report.outputs["success_rate"] = _fmt(successes / args.trials)
    report.outputs["worst_success_fidelity"] = _fmt(worst if successes else 1.0)
    if args.boundary == "open":
        report.check("deterministic_success", successes == args.trials)
    else:
        report.check("ran", True)
    report.check("success_matches_prediction", agree)


def _cmd_mpo(args, report):
    tol = report.tol
    basis = _basis_from(args.basis)
    O = fixtures.controlled_pauli_mpo(basis)
    if args.mpo_action == "check":
        ok, const, resid = mpo_mod.check_mpo_isometry(O, tol)
        report.check("isometry_condition", ok, resid)
        report.outputs["constant"] = _fmt(const)
        rep = mpo_mod.mpo_slices(O, tol)
        report.check("slice_orthogonality", rep.passed, rep.orthogonality_residual)
    elif args.mpo_action == "purify":
        u = mpo_mod.build_purifying_unitary(O, tol)
        resid = isometry_residual(u.data)
        report.check("purifying_unitary", resid < VERDICT_FLOOR, resid)
    elif args.mpo_action == "relative":
        u0 = tensors_mod.random_unitary(O.d, protocol_mod.philox_rng(args.seed))
        got = mpo_mod.relative_local_unitary(O, O.apply_phys_in(u0), tol)
        _, resid = tensors_mod.proportionality(got.reshape(-1), u0.reshape(-1))
        report.check("round_trip", resid < max(report.tol, UNITARY_FLOOR), resid)
    elif args.mpo_action == "apply":
        n = args.sites
        report.outputs["sites"] = n
        mpo_mod.check_protocol_sites(n)  # before the d^n input is drawn
        rng = protocol_mod.philox_rng(args.seed)
        psi = rng.standard_normal(O.d**n) + 1j * rng.standard_normal(O.d**n)
        run = mpo_mod.apply_mpo_via_protocol([O] * n, psi, "open", args.seed, tol)
        report.check("matches_direct_action", run.success, abs(1 - run.fidelity))


def _cmd_clifford_synth(args, report):
    def image(entry):
        return qc.PauliVector.from_json(entry["source"]), qc.PauliVector.from_json(entry["target"])

    spec = _spec_from(args.map)
    with _reading("spec"):
        n, d = int(spec["n"]), int(spec["d"])
        images = tuple(_entries("images", image, spec["images"]))
    m = qc.PartialCliffordMap(n, d, images)
    adm = qc.check_admissible(m)
    report.check("admissible", adm.admissible)
    if adm.admissible:
        u = qc.synthesize_clifford(m)
        report.check("is_clifford", qc.is_clifford(u.data, n, d))
        worst = max((qc.image_residual(u.data, src, tgt) for src, tgt in images), default=0.0)
        report.check("images_reproduced", worst < VERDICT_FLOOR, worst)
        report.artifact(args.out, u.to_json)
    else:
        report.outputs["failures"] = adm.failures


# integer flags that count something; below 1 they are malformed input
COUNTS = ("--L", "--k", "--d", "--sites", "--rows", "--cols", "--trials")

# add_argument keywords of every flag that has any
FLAGS = {
    **dict.fromkeys(COUNTS, dict(type=int)),
    "mpo_action": dict(choices=["check", "purify", "relative", "apply"]),
    "--basis": dict(default="WH:2"),
    "--mode": dict(default="product", choices=["product", "mixed_clock"]),
    "--boundary": dict(choices=["open", "periodic"]),
    "--seed": dict(type=int, default=0),
    "--enumerate": dict(action="store_true", default=None),
    "--brute": dict(action="store_true"),
}


# subcommand -> (handler, the flags it reads besides --tol, its own defaults);
# "!" marks a required flag and "--a|--b" a required choice of exactly one,
# and a dict default holds the flags only that choice reads (see _Parser)
SUBCOMMANDS = {
    "basis": (_cmd_basis, "--basis --composite --mode --out-basis", {}),
    "solve-family": (_cmd_solve_family, "--constraints! --basis --d --out", {}),
    "check-mps": (_cmd_check_mps, "--tensor!", {}),
    "decompose-mps": (_cmd_decompose_mps, "--tensor!", {}),
    "spt": (_cmd_spt, "--alpha! --basis --out", {}),
    "block": (_cmd_block, "--tensor! --k", {}),
    "expect": (_cmd_expect, "--alpha! --string! --basis", {}),
    "check-peps": (_cmd_check_peps, "--alpha! --basis", {}),
    "topo-solve": (_cmd_topo_solve, "--topo! --basis --out", {}),
    "transfer": (_cmd_transfer, "--alpha! --basis --L --brute", {"L": 2}),
    "degeneracy": (_cmd_degeneracy, "--topo! --basis --L", {}),
    "simulate": (_cmd_simulate, "--chain|--peps --basis --sites --boundary --enumerate --trials "
                 "--seed --rows --cols", {"trials": 1, "peps": {"rows": 2, "cols": 2},
                 "chain": {"sites": 4, "boundary": "open", "enumerate": False}}),
    "mpo": (_cmd_mpo, "mpo_action --basis --sites --seed", {"sites": 3}),
    "clifford-synth": (_cmd_clifford_synth, "--map! --out", {}),
}


class _Parser(argparse.ArgumentParser):
    """Refuses the flags only one choice reads (``branches``: choice -> {flag:
    default}) unless that choice was given, then fills in their defaults."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        for choice, defaults in getattr(self, "branches", {}).items():
            for flag, default in defaults.items():
                if getattr(ns, flag) is None:
                    setattr(ns, flag, default)
                elif getattr(ns, choice) is None:
                    self.error(f"argument --{flag}: not allowed without argument --{choice}")
        return ns, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mftn", description="Measurement-and-feedback tensor network toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, defaults) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.branches = {k: v for k, v in defaults.items() if isinstance(v, dict)}
        for flag in flags.split() + ["--tol"]:
            if "|" in flag:
                group = p.add_mutually_exclusive_group(required=True)
                for choice in flag.split("|"):
                    group.add_argument(choice, **FLAGS.get(choice, {}))
            elif flag.endswith("!"):
                p.add_argument(flag[:-1], required=True, **FLAGS.get(flag[:-1], {}))
            else:
                p.add_argument(flag, **FLAGS.get(flag, {}))
        p.set_defaults(**{k: v for k, v in defaults.items() if k not in p.branches})
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for errors, matching the contract
        return int(exc.code or 0)
    try:
        text = args.tol if args.tol is not None else os.environ.get("MFTN_TOL")
        tol = tensors_mod.DEFAULT_TOL if text is None else _tolerance(text)
        if args.tol is not None:
            # stored as a float, as argparse did, so the inputs digest is unchanged
            args.tol = tol
        for flag in COUNTS:
            if getattr(args, flag[2:], None) is not None and getattr(args, flag[2:]) < 1:
                raise MalformedInput(f"{flag} must be at least 1")
        report = RunReport(args.command, vars(args), tol)
        SUBCOMMANDS[args.command][0](args, report)
    except MalformedInput as exc:
        print(json.dumps({"error": f"malformed input: {exc}"}))
        return 3
    except MftnError as exc:
        report.check("completed", False)
        report.outputs["error"] = str(exc)
        report.finish()
        return 1
    return report.finish()


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``
to see them inline; they also appear in captured output).
"""

import time

import numpy as np
import pytest

from mftn.basis import weyl_heisenberg_basis
from mftn.clifford import PartialCliffordMap, PauliVector, check_admissible, is_clifford, synthesize_clifford
from mftn.fixtures import aklt_tensor, controlled_pauli_mpo
from mftn.mpo import apply_mpo_via_protocol, relative_local_unitary
from mftn.mps import (
    MPSTensor,
    canonical_form_check,
    check_mf_symmetry,
    clifford_magic_decompose,
    correction_consistency,
    is_stabilizer_state,
    solve_symmetry_family,
    split_polar,
    spt_solution,
)
from mftn.peps import (
    TopoSymmetrySpec,
    complete_with_isometry,
    injectivity_check,
    topo_solution,
    transfer_matrix_brute,
    transfer_spectrum_analytic,
)
from mftn.protocol import PepsPatch, enumerate_outcomes, run_mps_protocol, run_peps_protocol
from mftn.tensors import DenseTensor, proportionality, random_unitary
from oracles import enumerate_peps_outcomes, peps_routing_complete, projector_onto
from reference_tensors import copy_h_tensor, copy_tensor, ghz_alpha, interpolated_alpha

WH2 = weyl_heisenberg_basis(2)
WH3 = weyl_heisenberg_basis(3)


def announce(num, ok, label):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def family_proj(family):
    cols = np.stack(
        [t.tensor.transpose_to(("phys", "left", "right")).data.reshape(-1) for t in family],
        axis=1,
    )
    return projector_onto(cols)


def overlap(proj, tensor):
    vec = tensor.tensor.transpose_to(("phys", "left", "right")).data.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return float(np.vdot(vec, proj @ vec).real)


def test_criterion_1_solver_families():
    t0 = time.monotonic()
    fam1 = solve_symmetry_family(
        WH2, [("X", WH2.element("X"), "X"), ("Z", np.eye(2), "Z")], d=2
    )
    fam2 = solve_symmetry_family(
        WH2, [("X", WH2.element("X"), "Z"), ("Z", WH2.element("Z"), "I")], d=2
    )
    ok = len(fam1) == 2 and len(fam2) == 2
    p1, p2 = family_proj(fam1), family_proj(fam2)
    for member in (copy_tensor(), copy_tensor(alpha=0.8)):
        ok = ok and overlap(p1, member) >= 1 - 1e-9
    for member in (copy_h_tensor(), copy_h_tensor(alpha=-0.6)):
        ok = ok and overlap(p2, member) >= 1 - 1e-9
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    announce(1, ok, f"solver families 2-dimensional, closed forms in span ({elapsed:.2f}s)")


def test_criterion_2_aklt_structure():
    t0 = time.monotonic()
    aklt = aklt_tensor()
    split = split_polar(aklt)
    corr = correction_consistency(split)
    s2 = 1 / np.sqrt(2)
    triplet = np.array([0, s2, s2, 0])
    singlet = np.array([0, s2, -s2, 0])
    domain = [np.eye(4)[:, 0], triplet, np.eye(4)[:, 3]]
    v = split.V
    ok = corr.passed
    for lab, p in (("Z", WH2.element("Z")), ("X", WH2.element("X"))):
        u = next(c.u_phys for c in aklt.constraints if WH2.labels[c.p_in] == lab)
        lhs = v.conj().T @ u @ v
        bare = np.kron(p.conj(), p)
        for w in domain:
            ok = ok and np.linalg.norm((lhs - bare) @ w) < 1e-10
        ok = ok and np.linalg.norm((lhs - bare) @ singlet) > 0.5
        ok = ok and np.linalg.norm(lhs - bare @ split.R) < 1e-10
    form = clifford_magic_decompose(split, WH2)
    ok = ok and form.reconstruction_residual < 1e-9
    ok = ok and not is_stabilizer_state(form.psi, 2, 2)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    announce(2, ok, f"AKLT polar/correction identities and magic psi ({elapsed:.2f}s)")


def test_criterion_3_canonical_form_property():
    rng = np.random.default_rng(37)
    pools = []
    pools.append(solve_symmetry_family(WH2, [("X", WH2.element("X"), "X"), ("Z", np.eye(2), "Z")], d=2))
    pools.append(solve_symmetry_family(WH2, [("X", WH2.element("X"), "Z"), ("Z", WH2.element("Z"), "I")], d=2))
    x2, y2, z2, i2 = (WH2.element(l) for l in ("X", "XZ", "Z", "I"))
    pools.append(
        solve_symmetry_family(
            WH2,
            [("X", np.kron(x2.conj(), y2), "XZ"), ("Z", np.kron(z2.conj(), i2), "I")],
            d=4,
        )
    )
    checked = 0
    worst = 0.0
    for _ in range(40):
        pool = pools[int(rng.integers(len(pools)))]
        coeff = rng.standard_normal(len(pool)) + 1j * rng.standard_normal(len(pool))
        data = sum(c * t.tensor.transpose_to(("phys", "left", "right")).data for c, t in zip(coeff, pool))
        member = MPSTensor(DenseTensor(data, ("phys", "left", "right")), WH2, pool[0].constraints)
        ok_sym = check_mf_symmetry(member, 1e-8).passed
        okc, _, resid = canonical_form_check(member, 1e-8)
        worst = max(worst, resid)
        assert ok_sym and okc
        checked += 1
    for basis in (WH2, WH3):
        for _ in range(35):
            alpha = rng.standard_normal(len(basis.elements)) + 1j * rng.standard_normal(len(basis.elements))
            member = spt_solution(basis, alpha)
            okc, _, resid = canonical_form_check(member, 1e-8)
            worst = max(worst, resid)
            assert okc
            checked += 1
    announce(3, checked >= 100 and worst < 1e-8,
             f"canonical form holds on {checked} random family members (worst {worst:.2e})")


@pytest.mark.parametrize("D", [2, 3])
def test_criterion_4_ghz(D):
    basis = weyl_heisenberg_basis(D)
    q = spt_solution(basis, ghz_alpha(basis))
    rank = np.linalg.matrix_rank(q.as_matrix())
    arr = q.tensor.transpose_to(("phys", "left", "right")).data.reshape(D, D, D, D)
    want = np.zeros((D, D, D, D))
    for a in range(D):
        want[a, a, a, a] = 1.0
    _, resid = proportionality(arr.reshape(-1), want.reshape(-1))
    announce(4, rank == D and resid < 1e-9,
             f"GHZ tensor at D={D}: physical rank {rank}, delta residual {resid:.2e}")


def test_criterion_5_transfer_spectra():
    t0 = time.monotonic()
    ok = True
    for a in (0.0, 0.3, 0.7, 1.0):
        spec = transfer_spectrum_analytic(interpolated_alpha(WH2, a), WH2, 1)
        by = dict(zip(spec.labels, spec.e_values))
        ok = ok and abs(by["I"] - (2 + 2 * a**2)) < 1e-12
        ok = ok and abs(by["X"] - (2 + 2 * a**2)) < 1e-12
        ok = ok and abs(by["XZ"] - 4 * a) < 1e-12
        ok = ok and abs(by["Z"] - 4 * a) < 1e-12
        ok = ok and spec.degeneracy_of_max == (2 if a < 1 else 4)
    for a in (0.3, 0.7, 1.0):
        alpha = interpolated_alpha(WH2, a)
        q = topo_solution(WH2, alpha)
        for L in (2, 3):
            analytic = transfer_spectrum_analytic(alpha, WH2, L)
            brute = transfer_matrix_brute(q, L)
            want = np.sort(np.abs(analytic.t_values))[::-1]
            got = np.sort(np.abs(brute))[::-1][: len(want)]
            rel = np.max(np.abs(got - want)) / max(want.max(), 1e-300)
            ok = ok and rel < 1e-8
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    announce(5, ok, f"interpolated-family transfer spectra, brute force match ({elapsed:.2f}s)")


def test_criterion_6_non_injectivity():
    def x_power_alpha(basis, charge=0):
        D = basis.dim
        alpha = np.zeros(len(basis.elements), dtype=complex)
        cur = np.eye(D, dtype=complex)
        for i in range(D):
            idx, _ = basis.resolve(cur)
            alpha[idx] = np.exp(2j * np.pi * charge * i / D)
            cur = basis.element("X") @ cur
        return alpha

    ok = True
    cases = []
    for basis in (WH2, WH3):
        sub_x = [basis.resolve(np.linalg.matrix_power(basis.element("X"), k))[0] for k in range(basis.dim)]
        cases.append((basis, x_power_alpha(basis), tuple(sorted(sub_x))))
        cases.append((basis, np.ones(len(basis.elements)), tuple(range(len(basis.elements)))))
    for basis, alpha, sub in cases:
        q = topo_solution(basis, alpha)
        spec = TopoSymmetrySpec(basis, sub, 0.0)
        rep = injectivity_check(q, spec)
        ok = ok and (not rep.injective) and rep.consistent_with_spec
    for basis in (WH2, WH3):
        alpha = np.zeros(len(basis.elements))
        alpha[basis.identity_index] = 1.0
        trivial = TopoSymmetrySpec(basis, (basis.identity_index,), 0.0)
        rep = injectivity_check(topo_solution(basis, alpha), trivial)
        ok = ok and rep.injective and rep.consistent_with_spec
    announce(6, ok, "nontrivial subgroups force rank deficiency; identity alpha is injective")


def test_criterion_7_protocol_determinism():
    t0 = time.monotonic()
    chain = [aklt_tensor()] * 6
    successes = 0
    worst = 1.0
    for seed in range(500):
        run = run_mps_protocol(chain, "open", seed=seed)
        successes += run.success and run.fidelity >= 1 - 1e-9
        worst = min(worst, run.fidelity)
    ok = successes == 500
    open_report = enumerate_outcomes([aklt_tensor()] * 4, "open")
    ok = ok and abs(open_report.success_probability - 1.0) < 1e-9
    pbc = enumerate_outcomes([aklt_tensor()] * 3, "periodic")
    ok = ok and pbc.correctable_fraction == pytest.approx(4 / 16, abs=1e-12)
    hits = sum(run_mps_protocol([aklt_tensor()] * 3, "periodic", seed=s).success for s in range(400))
    p = pbc.success_probability
    sigma = np.sqrt(p * (1 - p) / 400)
    ok = ok and abs(hits / 400 - p) < 3 * sigma
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    announce(7, ok,
             f"AKLT open 500/500 (worst fidelity {worst:.3e}); periodic fraction 4/16, "
             f"Born probability {p:.4f} within 3 sigma ({elapsed:.1f}s)")


def test_criterion_8_peps_protocol():
    alpha = np.zeros(4)
    alpha[WH2.index("I")] = 1.0
    alpha[WH2.index("X")] = 1.0
    a = complete_with_isometry(topo_solution(WH2, alpha))
    ok = True
    patch2 = PepsPatch([[a, a], [a, a]], "ur")
    report = enumerate_peps_outcomes(patch2)
    ok = ok and all(report.correctable)
    ok = ok and abs(report.success_probability - 1.0) < 1e-9
    ok = ok and all(f is None or f >= 1 - 1e-9 for f in report.fidelities)
    for seed in range(10):
        run = run_peps_protocol(patch2, seed=seed)
        ok = ok and run.success and run.fidelity >= 1 - 1e-9
    orient = [["ul", "ur", "ur"], ["ul", "ur", "ur"], ["dl", "dr", "dr"]]
    patch3 = PepsPatch([[a] * 3 for _ in range(3)], orient)
    ok = ok and peps_routing_complete(patch3)
    for seed in range(5):
        run = run_peps_protocol(patch3, seed=seed)
        ok = ok and run.success and run.fidelity >= 1 - 1e-9
    announce(8, ok, "toric 2x2 fully enumerated and 3x3 four-corner patches deterministic")


def test_criterion_9_clifford_synthesis():
    rng = np.random.default_rng(11)

    def random_admissible(n, d):
        def sympl(a, b):
            return int((a[n:] @ b[:n] - a[:n] @ b[n:]) % d)

        while True:
            a = rng.integers(0, d, 2 * n)
            if not a.any():
                continue
            b = rng.integers(0, d, 2 * n)
            s = sympl(a, b)
            if s == 0:
                continue
            # scale b so the pair reproduces the (X, Z) commutator exactly
            b = (b * (pow(s, -1, d) * (d - 1))) % d
            break

        def phased(vec):
            base = PauliVector(n, d, tuple(vec[:n]), tuple(vec[n:]), 0)
            acc = base.power(d)
            for p in range(2 * d):
                if (d * p + acc.phase_exp) % (2 * d) == 0:
                    return PauliVector(n, d, tuple(vec[:n]), tuple(vec[n:]),
                                       p + 2 * int(rng.integers(0, d)))
            raise AssertionError

        return PartialCliffordMap(
            n, d,
            ((PauliVector.x_gen(n, d, 0), phased(a)),
             (PauliVector.z_gen(n, d, 0), phased(b))),
        )

    ok = True
    ghz_map = PartialCliffordMap(
        3, 2,
        ((PauliVector(3, 2, (1, 0, 0), (0, 0, 0)), PauliVector(3, 2, (1, 1, 1), (0, 0, 0))),
         (PauliVector(3, 2, (0, 0, 0), (1, 0, 0)), PauliVector(3, 2, (0, 0, 0), (1, 1, 1)))),
    )
    maps = [ghz_map]
    for n, d in ((3, 2), (2, 3)):
        count = 0
        while count < 25:
            m = random_admissible(n, d)
            if not check_admissible(m).admissible:
                continue
            maps.append(m)
            count += 1
    for m in maps:
        u = synthesize_clifford(m).data
        ok = ok and is_clifford(u, m.n, m.d)
        for src, tgt in m.images:
            resid = np.linalg.norm(u @ src.matrix() @ u.conj().T - tgt.matrix())
            ok = ok and resid < 1e-9
    announce(9, ok, f"{len(maps)} synthesized Cliffords reproduce their maps with phases")


def test_criterion_10_mpo_round_trip():
    rng = np.random.default_rng(23)
    O = controlled_pauli_mpo(WH2)
    ok = True
    for k in range(20):
        u0 = random_unitary(4, rng)
        inst = O.apply_phys_in(u0)
        got = relative_local_unitary(O, inst)
        _, resid = proportionality(got.reshape(-1), u0.reshape(-1))
        ok = ok and resid < 1e-8
        if k < 4:
            psi = rng.standard_normal(4**3) + 1j * rng.standard_normal(4**3)
            run = apply_mpo_via_protocol([inst] * 3, psi, seed=k)
            ok = ok and run.fidelity >= 1 - 1e-8
    announce(10, ok, "20 random local-unitary instances round-trip; protocol matches direct action")

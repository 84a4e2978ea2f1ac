"""MF symmetry checking, family solving, and the MPS polar/Clifford structure."""

import numpy as np
import pytest

from mftn.clifford import PauliVector
from mftn.errors import SymmetryError
from mftn.fixtures import aklt_tensor, cluster_tensor
from mftn.mps import (
    MPSTensor,
    SymmetryConstraint,
    block,
    canonical_form_check,
    chain_state,
    check_mf_symmetry,
    clifford_magic_decompose,
    correction_consistency,
    is_stabilizer_state,
    map_order,
    pauli_expectation,
    solve_symmetry_family,
    split_polar,
    spt_solution,
)
from mftn.tensors import DenseTensor, proportionality

from conftest import random_complex, site_stacks
from oracles import projector_onto, spt_family_projector
from reference_tensors import aklt_alpha, copy_h_tensor, copy_tensor, ghz_alpha


def family_projector(family):
    cols = np.stack(
        [t.tensor.transpose_to(("phys", "left", "right")).data.reshape(-1) for t in family],
        axis=1,
    )
    return projector_onto(cols)


class TestCheckSymmetry:
    def test_copy_tensor_passes(self):
        rep = check_mf_symmetry(copy_tensor())
        assert rep.max_residual < 1e-12

    def test_aklt_passes(self):
        rep = check_mf_symmetry(aklt_tensor())
        assert rep.max_residual < 1e-12

    def test_random_tensor_fails(self, wh2, rng):
        t = DenseTensor(random_complex(rng, 2, 3, 2), ("left", "phys", "right"))
        bad = MPSTensor(t, wh2, aklt_tensor().constraints)
        rep = check_mf_symmetry(bad)
        assert rep.max_residual > 0.1

    def test_overflowing_tensor_fails(self):
        # entries near 1e300 overflow the norm, and a NaN residual must not pass
        A = aklt_tensor()
        huge = MPSTensor(DenseTensor(1e300 * A.tensor.data, A.tensor.legs), A.basis, A.constraints)
        with np.errstate(all="ignore"):
            rep = check_mf_symmetry(huge)
        assert any(np.isnan(rep.residuals))
        assert not rep.passed


class TestSolveFamily:
    def test_first_family_two_dimensional(self, wh2):
        constraints = [("X", wh2.element("X"), "X"), ("Z", np.eye(2), "Z")]
        family = solve_symmetry_family(wh2, constraints, d=2)
        assert len(family) == 2
        proj = family_projector(family)
        for alpha in (0.0, 0.5, -1.3):
            member = copy_tensor(alpha=alpha)
            vec = member.tensor.transpose_to(("phys", "left", "right")).data.reshape(-1)
            vec = vec / np.linalg.norm(vec)
            assert np.vdot(vec, proj @ vec).real > 1 - 1e-9

    def test_second_family_two_dimensional(self, wh2):
        constraints = [
            ("X", wh2.element("X"), "Z"),
            ("Z", wh2.element("Z"), "I"),
        ]
        family = solve_symmetry_family(wh2, constraints, d=2)
        assert len(family) == 2
        proj = family_projector(family)
        for alpha in (0.0, 0.7):
            member = copy_h_tensor(alpha=alpha)
            vec = member.tensor.transpose_to(("phys", "left", "right")).data.reshape(-1)
            vec = vec / np.linalg.norm(vec)
            assert np.vdot(vec, proj @ vec).real > 1 - 1e-9

    def test_no_constraints_full_space(self, wh2):
        family = solve_symmetry_family(wh2, [], d=3)
        assert len(family) == 3 * 4

    def test_every_member_satisfies_symmetry_and_canonical_form(self, wh2, rng):
        constraints = [("X", wh2.element("X"), "X"), ("Z", np.eye(2), "Z")]
        family = solve_symmetry_family(wh2, constraints, d=2)
        for _ in range(20):
            coeff = random_complex(rng, len(family))
            mix = sum(
                c * t.tensor.transpose_to(("phys", "left", "right")).data
                for c, t in zip(coeff, family)
            )
            member = MPSTensor(
                DenseTensor(mix, ("phys", "left", "right")), wh2, family[0].constraints
            )
            assert check_mf_symmetry(member).max_residual < 1e-9
            ok, _, resid = canonical_form_check(member)
            assert ok and resid < 1e-9

    def test_unknown_corrections_solved_jointly(self, wh2):
        # drop the known AKLT corrections and ask the solver to recover them
        constraints = [("X", None, "X"), ("Z", None, "Z"), ("XZ", None, "XZ")]
        family = solve_symmetry_family(wh2, constraints, d=3)
        assert len(family) >= 1
        for t in family:
            assert check_mf_symmetry(t, 1e-8).passed


class TestCanonicalForm:
    def test_aklt(self):
        ok, const, _ = canonical_form_check(aklt_tensor())
        assert ok
        assert const.real == pytest.approx(1.5, abs=1e-12)

    def test_family_member(self):
        ok, _, _ = canonical_form_check(copy_tensor(alpha=0.7))
        assert ok

    def test_perturbed_tensor_fails(self, wh2, rng):
        base = aklt_tensor()
        data = base.tensor.transpose_to(("phys", "left", "right")).data.copy()
        data[0, 0, 0] += 0.3
        bad = MPSTensor(DenseTensor(data, ("phys", "left", "right")), wh2, base.constraints)
        ok, _, _ = canonical_form_check(bad)
        assert not ok


class TestSplitPolar:
    def test_aklt_commutants(self):
        split = split_polar(aklt_tensor())
        assert max(split.commutant_residuals) < 1e-10
        assert split.reconstruction_residual < 1e-12
        assert split.null_space_match
        assert split.rank == 3

    def test_injective_member_has_full_projector(self, wh2):
        # generic-coefficient Q-form members are injective (rank D^2), so R = I
        alpha = np.array([1.0, 0.3, 0.2 + 0.1j, -0.4])
        split = split_polar(spt_solution(wh2, alpha))
        assert split.rank == 4
        np.testing.assert_allclose(split.R, np.eye(4), atol=1e-10)

    def test_unitary_times_copy_matches_copy_polar(self, wh2, rng):
        from mftn.tensors import polar_nd, random_unitary

        u = random_unitary(2, rng)
        base = copy_tensor()
        rotated = MPSTensor.from_site_matrices(
            [sum(u[i, j] * m for j, m in enumerate(base.site_matrices())) for i in range(2)],
            wh2,
        )
        _, q = polar_nd(rotated.as_matrix())
        np.testing.assert_allclose(q, split_polar(base).Q, atol=1e-10)
        assert np.linalg.norm(split_polar(base).V @ split_polar(base).Q - base.as_matrix()) < 1e-10

    def test_requires_symmetry(self, wh2, rng):
        t = DenseTensor(random_complex(rng, 2, 3, 2), ("left", "phys", "right"))
        bad = MPSTensor(t, wh2, aklt_tensor().constraints)
        with pytest.raises(SymmetryError):
            split_polar(bad)


class TestCorrectionConsistency:
    def setup_method(self):
        self.split = split_polar(aklt_tensor())
        self.report = correction_consistency(self.split)
        s2 = 1 / np.sqrt(2)
        self.triplet = np.array([0, s2, s2, 0])
        self.singlet = np.array([0, s2, -s2, 0])
        e = np.eye(4)
        self.domain = [e[:, 0], self.triplet, e[:, 3]]

    def test_projected_identity_exact(self):
        assert self.report.passed
        assert max(self.report.residuals) < 1e-10

    def test_explicit_aklt_matrices(self, wh2):
        # V† U_Z V = |00><00| + |11><11| - |T><T| and the X analogue
        v = self.split.V
        u_z = aklt_tensor().constraints[3].u_phys
        got = v.conj().T @ u_z @ v
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = want[3, 3] = 1.0
        want -= np.outer(self.triplet, self.triplet)
        np.testing.assert_allclose(got, want, atol=1e-10)
        u_x = aklt_tensor().constraints[1].u_phys
        got_x = v.conj().T @ u_x @ v
        want_x = np.zeros((4, 4), dtype=complex)
        want_x[0, 3] = want_x[3, 0] = 1.0
        want_x += np.outer(self.triplet, self.triplet)
        np.testing.assert_allclose(got_x, want_x, atol=1e-10)

    def test_agreement_on_domain_and_singlet_discrepancy(self, wh2):
        v = self.split.V
        z = wh2.element("Z")
        x = wh2.element("X")
        u_z = aklt_tensor().constraints[3].u_phys
        u_x = aklt_tensor().constraints[1].u_phys
        for u, p in ((u_z, z), (u_x, x)):
            lhs = v.conj().T @ u @ v
            bare = np.kron(p.conj(), p)
            for w in self.domain:
                assert np.linalg.norm((lhs - bare) @ w) < 1e-10
            # the bare operator moves the singlet, the projected one kills it
            assert np.linalg.norm((lhs - bare) @ self.singlet) > 0.9

    def test_injective_member_exact_equality(self, wh2):
        alpha = np.array([1.0, 0.3, 0.2 + 0.1j, -0.4])
        split = split_polar(spt_solution(wh2, alpha))
        rep = correction_consistency(split)
        assert rep.passed
        assert max(rep.bare_discrepancies) < 1e-9


class TestCliffordMagic:
    def test_aklt_psi_is_magic(self, wh2):
        # psi itself is only fixed up to the Clifford gauge on the purification
        # legs, so the invariant assertions are exact reconstruction and
        # non-stabilizerness, plus U_C being Clifford.
        from mftn.clifford import is_clifford

        split = split_polar(aklt_tensor())
        form = clifford_magic_decompose(split, wh2)
        assert form.reconstruction_residual < 1e-9
        assert is_clifford(form.u_c, 3, 2)
        assert abs(np.linalg.norm(form.psi) - 1.0) < 1e-12
        assert not is_stabilizer_state(form.psi, 2, 2)

    def test_cluster_blocked_psi_is_stabilizer(self, wh2):
        blocked = block(cluster_tensor(), 2)
        assert map_order(cluster_tensor()).order == 2
        split = split_polar(blocked)
        form = clifford_magic_decompose(split, wh2)
        assert form.reconstruction_residual < 1e-9
        assert is_stabilizer_state(form.psi, 2, 2)

    def test_spt_identity_alpha_gives_product_stabilizer(self, wh2):
        alpha = np.zeros(4)
        alpha[wh2.index("I")] = 1.0
        q = spt_solution(wh2, alpha)
        form = clifford_magic_decompose(split_polar(q), wh2)
        assert form.reconstruction_residual < 1e-9
        assert is_stabilizer_state(form.psi, 2, 2)


class TestSptSolution:
    def test_aklt_alpha_reproduces_q_up_to_local_unitary(self, wh2):
        # alpha = (3,-1,-1,-1)/norm gives the triplet projector up to a
        # one-sided local unitary: Q = 4 (I - |Phi+><Phi+|) rotates onto
        # 4 (I - |S><S|) under I x XZ.
        q = spt_solution(wh2, aklt_alpha(wh2))
        mat = q.as_matrix()  # rows (b,c), cols (a,d)
        phip = np.array([1, 0, 0, 1]) / np.sqrt(2)
        want = 4 * (np.eye(4) - np.outer(phip, phip))
        got_q = split_polar(q).Q
        np.testing.assert_allclose(got_q, want, atol=1e-9)
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        rot = np.kron(np.eye(2), wh2.element("XZ"))
        np.testing.assert_allclose(
            rot @ want @ rot.conj().T, 4 * (np.eye(4) - np.outer(singlet, singlet)), atol=1e-9
        )

    @pytest.mark.parametrize("D", [2, 3])
    def test_ghz_is_delta_tensor(self, D):
        from mftn.basis import weyl_heisenberg_basis

        basis = weyl_heisenberg_basis(D)
        q = spt_solution(basis, ghz_alpha(basis))
        arr = q.tensor.transpose_to(("phys", "left", "right")).data.reshape(D, D, D, D)
        # entries delta_{a,b} delta_{b,c} delta_{c,d} up to one global scale;
        # the all-equal delta is fully symmetric so axis order is immaterial
        want = np.zeros((D, D, D, D))
        for a in range(D):
            want[a, a, a, a] = 1.0
        _, resid = proportionality(arr.reshape(-1), want.reshape(-1))
        assert resid < 1e-12
        assert np.linalg.matrix_rank(q.as_matrix()) == D

    def test_identity_alpha_is_bell_projector_chain(self, wh2):
        alpha = np.zeros(4)
        alpha[wh2.index("I")] = 1.0
        q = spt_solution(wh2, alpha)
        np.testing.assert_allclose(split_polar(q).Q, np.eye(4), atol=1e-12)

    def test_solution_space_matches_span(self, wh2):
        # the solver on the SPT-type symmetry returns exactly span{P^* x P}
        constraints = [
            SymmetryConstraint(i, np.kron(p.conj(), p), i)
            for i, p in enumerate(wh2.elements)
        ]
        family = solve_symmetry_family(wh2, constraints, d=4)
        assert len(family) == 4
        np.testing.assert_allclose(
            family_projector(family), spt_family_projector(wh2), atol=1e-9
        )


class TestBlockAndMapOrder:
    def test_rotation_map_order_three(self, wh2):
        rot = {"X": "XZ", "XZ": "Z", "Z": "X", "I": "I"}
        # build a synthetic constraint list with identity corrections on a
        # 4-level physical space; only the map structure matters here
        constraints = [SymmetryConstraint(wh2.index(k), np.eye(4), wh2.index(v)) for k, v in rot.items()]
        A = MPSTensor(DenseTensor(np.zeros((2, 4, 2)), ("left", "phys", "right")), wh2, constraints)
        res = map_order(A)
        assert res.bijective and res.order == 3

    def test_non_bijective_family(self, wh2):
        res = map_order(copy_h_tensor())
        assert not res.bijective
        assert res.order is None

    def test_identity_map(self, wh2):
        res = map_order(spt_solution(wh2, aklt_alpha(wh2)))
        assert res.bijective and res.order == 1

    def test_block_one_is_identity(self):
        a = aklt_tensor()
        assert block(a, 1) is a

    def test_cluster_blocked_twice_is_spt_type(self):
        blocked = block(cluster_tensor(), 2)
        assert blocked.d == 4
        assert check_mf_symmetry(blocked).max_residual < 1e-12
        assert all(c.p_in == c.p_out for c in blocked.constraints)

    def test_non_bijective_blocked_survivors_z2(self, wh2):
        # the map X -> Y, Z -> I is carried by the d = 4 family with Q-form
        # corrections; blocking twice leaves only {I, Y} pushable as SPT type
        x, y, z, i2 = (wh2.element(l) for l in ("X", "XZ", "Z", "I"))
        constraints = [
            ("X", np.kron(x.conj(), y), "XZ"),
            ("Z", np.kron(z.conj(), i2), "I"),
        ]
        family = solve_symmetry_family(wh2, constraints, d=4)
        assert len(family) == 4
        member_data = sum(
            c * t.tensor.transpose_to(("phys", "left", "right")).data
            for c, t in zip([1.0, 0.4, -0.2, 0.9j], family)
        )
        member = MPSTensor(
            DenseTensor(member_data, ("phys", "left", "right")), wh2, family[0].constraints
        )
        assert check_mf_symmetry(member).max_residual < 1e-9
        assert not map_order(member).bijective
        blocked = block(member, 2)
        assert check_mf_symmetry(blocked, 1e-8).passed
        survivors = {c.p_in for c in blocked.constraints if c.p_in == c.p_out}
        assert survivors == {wh2.index("I"), wh2.index("XZ")}


class TestPauliExpectation:
    def chain_and_string(self, wh2, alpha, n, string_spec):
        q = spt_solution(wh2, alpha)
        family = [q] * n
        string = [PauliVector(2, 2, s[0], s[1], 0) for s in string_spec]
        return family, string

    def dense_expectation(self, family, string):
        # independent oracle: <psi| (I_edge x op x I_edge) |psi> by dense contraction
        psi = chain_state(site_stacks(family))  # (D, d, d, ..., D)
        n = len(family)
        op = np.array([[1.0 + 0j]])
        for s in string:
            op = np.kron(op, s.matrix())
        mid = np.tensordot(
            op.reshape([4] * (2 * n)), psi, axes=(list(range(n, 2 * n)), list(range(1, n + 1)))
        )
        mid = np.moveaxis(mid, -2, 0)
        return np.vdot(psi, mid)

    def test_ghz_chain_matches_dense(self, wh2):
        family, string = self.chain_and_string(
            wh2, ghz_alpha(wh2), 4, [((0, 0), (1, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 0)), ((0, 0), (0, 0))]
        )
        got = pauli_expectation(family, string)
        want = self.dense_expectation(family, string)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_identity_string_gives_norm(self, wh2):
        family, string = self.chain_and_string(
            wh2, aklt_alpha(wh2), 3, [((0, 0), (0, 0))] * 3
        )
        got = pauli_expectation(family, string)
        psi = chain_state(site_stacks(family))
        assert got == pytest.approx(np.vdot(psi, psi), rel=1e-9)

    def test_aklt_chain_random_strings(self, wh2, rng):
        q = spt_solution(wh2, aklt_alpha(wh2))
        family = [q] * 5
        for _ in range(4):
            string = [
                PauliVector(2, 2, tuple(rng.integers(0, 2, 2)), tuple(rng.integers(0, 2, 2)), 0)
                for _ in range(5)
            ]
            got = pauli_expectation(family, string)
            want = self.dense_expectation(family, string)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


class TestRotationFamily:
    def test_rotation_map_blocks_to_spt_type(self, wh2):
        # the X -> Y -> Z -> X rotation is carried by the d = 4 family with
        # corrections P^* x M(P); blocking three times yields SPT type
        x, y, z = (wh2.element(l) for l in ("X", "XZ", "Z"))
        constraints = [
            ("X", np.kron(x.conj(), y), "XZ"),
            ("XZ", np.kron(y.conj(), z), "Z"),
            ("Z", np.kron(z.conj(), x), "X"),
        ]
        family = solve_symmetry_family(wh2, constraints, d=4)
        assert len(family) == 4
        member_data = sum(
            c * t.tensor.transpose_to(("phys", "left", "right")).data
            for c, t in zip([0.9, 0.4j, -0.3, 0.7], family)
        )
        member = MPSTensor(
            DenseTensor(member_data, ("phys", "left", "right")), wh2, family[0].constraints
        )
        res = map_order(member)
        assert res.bijective and res.order == 3
        blocked = block(member, 3)
        assert check_mf_symmetry(blocked, 1e-8).passed
        assert blocked.constraints and all(c.p_in == c.p_out for c in blocked.constraints)


class TestQutritExpectation:
    def test_wh3_chain_matches_dense(self, wh3, rng):
        # exercises qutrit Clifford synthesis and phase tracking end to end
        alpha = np.zeros(9, dtype=complex)
        alpha[wh3.index("I")] = 1.0
        alpha[wh3.index("Z")] = 0.6
        alpha[wh3.index("Z^2")] = 0.6
        q = spt_solution(wh3, alpha)
        family = [q] * 3
        for _ in range(3):
            string = [
                PauliVector(2, 3, tuple(rng.integers(0, 3, 2)), tuple(rng.integers(0, 3, 2)), 0)
                for _ in range(3)
            ]
            got = pauli_expectation(family, string)
            psi = chain_state(site_stacks(family))
            op = np.array([[1.0 + 0j]])
            for s in string:
                op = np.kron(op, s.matrix())
            mid = np.tensordot(op.reshape([9] * 6), psi, axes=([3, 4, 5], [1, 2, 3]))
            mid = np.moveaxis(mid, -2, 0)
            want = np.vdot(psi, mid)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_chain_state_matches_one_einsum(rng, boundary):
    # the reference: the whole chain as one einsum, with uneven physical dimensions
    stacks = [random_complex(rng, d, 3, 3) for d in (2, 3, 1, 2)]
    n = len(stacks)
    left, right = (10, 11) if boundary == "open" else (12, 12)  # edge legs, or the wrap bond
    operands = []
    for k, s in enumerate(stacks):
        operands += [s, [k, 20 + k if k else left, 21 + k if k < n - 1 else right]]
    out = list(range(n)) if boundary == "periodic" else [left, *range(n), right]
    want = np.einsum(*operands, out)
    np.testing.assert_allclose(chain_state(stacks, boundary), want, rtol=0, atol=1e-12 * np.abs(want).max())

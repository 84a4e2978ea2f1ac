"""MF PEPS symmetries, topological solutions, and transfer-matrix spectra."""

from dataclasses import replace

import numpy as np
import pytest

from mftn import mps, peps
from mftn.basis import weyl_heisenberg_basis
from mftn.errors import SizeGuardError, SymmetryError
from mftn.mps import is_stabilizer_state, leg_operator
from mftn.peps import (
    PEPSTensor,
    TopoSymmetrySpec,
    check_peps_mf_symmetry,
    check_topo_symmetry,
    complete_with_isometry,
    degeneracy_report,
    injectivity_check,
    peps_isometry_check,
    peps_split_polar,
    topo_solution,
    transfer_matrix_brute,
    transfer_spectrum_analytic,
)
from mftn.protocol import solve_push_table
from mftn.tensors import numerical_rank

from conftest import random_complex, x_power_alpha
from oracles import bad_symmetry_obstruction
from reference_tensors import interpolated_alpha


def z_power_alpha(basis, charge=0):
    D = basis.dim
    alpha = np.zeros(len(basis.elements), dtype=complex)
    z = basis.element("Z")
    cur = np.eye(D, dtype=complex)
    for i in range(D):
        idx, _ = basis.resolve(cur)
        alpha[idx] = np.exp(2j * np.pi * charge * i / D)
        cur = z @ cur
    return alpha


def z_subgroup(basis):
    D = basis.dim
    out = []
    z = basis.element("Z")
    cur = np.eye(D, dtype=complex)
    for _ in range(D):
        out.append(basis.resolve(cur)[0])
        cur = z @ cur
    return tuple(sorted(out))


class TestSymmetryAndIsometry:
    def test_toric_q_passes(self, wh2):
        q = topo_solution(wh2, x_power_alpha(wh2))
        rep = check_peps_mf_symmetry(q)
        assert rep.passed
        assert len(q.constraints_a) == 4 and len(q.constraints_b) == 4

    def test_equal_sum_passes(self, wh2):
        q = topo_solution(wh2, np.ones(4))
        assert check_peps_mf_symmetry(q).passed

    def test_random_tensor_fails(self, wh2, rng):
        q = topo_solution(wh2, x_power_alpha(wh2))
        bad = PEPSTensor.from_matrix(
            random_complex(rng, q.d, 16), wh2, q.constraints_a, q.constraints_b
        )
        assert not check_peps_mf_symmetry(bad).passed

    def test_isometry_toric_completed(self, wh2):
        a = complete_with_isometry(topo_solution(wh2, x_power_alpha(wh2)))
        ok, const, _ = peps_isometry_check(a)
        assert ok and const.real > 0

    def test_isometry_bell_pair_tensor(self, wh2):
        alpha = np.zeros(4)
        alpha[wh2.index("I")] = 1.0
        q = topo_solution(wh2, alpha)
        ok, const, _ = peps_isometry_check(q)
        assert ok
        assert const.real == pytest.approx(4.0, abs=1e-9)

    def test_isometry_fails_for_perturbed(self, wh2, rng):
        q = topo_solution(wh2, x_power_alpha(wh2))
        data = q.as_matrix() + 0.2 * random_complex(rng, q.d, 16)
        bad = PEPSTensor.from_matrix(data, wh2)
        ok, _, _ = peps_isometry_check(bad)
        assert not ok

    def test_completion_refuses_constraints_that_do_not_hold(self, wh2):
        q = topo_solution(wh2, x_power_alpha(wh2))
        c = q.constraints_a[1]
        broken = q.constraints_a[:1] + (replace(c, out_right=(c.out_right + 1) % 4),) + q.constraints_a[2:]
        with pytest.raises(SymmetryError):
            complete_with_isometry(PEPSTensor(q.tensor, wh2, broken, q.constraints_b))

    def test_completion_runs_no_push_search(self, wh2, monkeypatch):
        q = topo_solution(wh2, interpolated_alpha(wh2, 0.3))
        monkeypatch.setattr(mps, "solve_pushes", None)
        monkeypatch.setattr(peps, "solve_pushes", None)
        a = complete_with_isometry(q)
        assert a.d == 8
        assert [(c.out_up, c.out_right) for c in a.constraints_a] == [(0, k) for k in range(4)]

    @pytest.mark.parametrize("a", [0.3, 0.5])
    def test_push_fits_on_a_rank_deficient_q(self, wh2, a, monkeypatch):
        """Q has rank 8 of 16.  Each U maps b as the Kronecker-product targets
        ask, is the identity off range(b), and moves by less than 1e-12 when
        every target is built as a Kronecker product and every target and
        stacked source is perturbed by 1e-14."""
        q = topo_solution(wh2, interpolated_alpha(wh2, a))
        b = q.as_matrix()
        assert numerical_rank(b) == 8
        range_b = np.linalg.svd(b)[0][:, :8]
        off_range = np.eye(16) - range_b @ range_b.conj().T
        for in_leg, constraints in ((0, q.constraints_a), (3, q.constraints_b)):
            assert [(c.p_in, c.out_up, c.out_right) for c in constraints] == [(k, 0, k) for k in range(4)]
            for c in constraints:
                source = b @ leg_operator((2,) * 4, {in_leg: wh2.elements[c.p_in].T})
                target = b @ leg_operator((2,) * 4, {1: wh2.elements[c.out_up], 2: wh2.elements[c.out_right]})
                assert np.linalg.norm(c.u_phys @ source - target) <= 1e-12 * np.linalg.norm(b)
                assert np.abs(off_range @ c.u_phys - off_range).max() <= 1e-12
        noise = np.random.default_rng(7)
        stacked = mps.stacked_leg_ops

        def perturbed_sources(b, dims, ops):
            sources = stacked(b, dims, ops)
            return sources + 1e-14 * random_complex(noise, *sources.shape)

        monkeypatch.setattr(mps, "apply_leg_ops", lambda m, dims, ops: (
            m @ leg_operator(dims, ops) + 1e-14 * random_complex(noise, *m.shape)))
        monkeypatch.setattr(mps, "stacked_leg_ops", perturbed_sources)
        for in_leg, constraints in ((0, q.constraints_a), (3, q.constraints_b)):
            again = solve_push_table(q, in_leg, (1, 2))
            assert [(k, c1, c2) for k, (_, c1, c2) in again.items()] == [(k, 0, k) for k in range(4)]
            for c in constraints:
                assert np.abs(again[c.p_in][0] - c.u_phys).max() < 1e-12


class TestSplitPolar:
    def test_toric_clifford_form(self, wh2):
        q = topo_solution(wh2, x_power_alpha(wh2))
        split = peps_split_polar(q)
        assert split.null_space_match
        assert max(split.commutant_residuals) < 1e-9
        assert split.clifford is not None
        assert split.clifford.reconstruction_residual < 1e-9
        from mftn.clifford import is_clifford

        assert is_clifford(split.clifford.u_c, 6, 2)
        assert is_stabilizer_state(split.clifford.psi, 4, 2)

    def test_charged_tensor(self, wh2):
        q = topo_solution(wh2, x_power_alpha(wh2, charge=1))
        split = peps_split_polar(q)
        assert split.null_space_match
        assert max(split.commutant_residuals) < 1e-9
        assert split.clifford is not None and split.clifford.reconstruction_residual < 1e-9

    def test_interpolated_psi_has_magic(self, wh2):
        q = topo_solution(wh2, interpolated_alpha(wh2, 0.3))
        split = peps_split_polar(q)
        assert split.clifford is not None
        assert split.clifford.reconstruction_residual < 1e-9
        assert not is_stabilizer_state(split.clifford.psi, 4, 2)

    def test_qutrit_parts_i_ii(self, wh3):
        q = topo_solution(wh3, x_power_alpha(wh3))
        split = peps_split_polar(q)
        assert split.null_space_match
        assert max(split.commutant_residuals) < 1e-9


class TestTopoSymmetry:
    def test_toric_z_subgroup_phase_zero(self, wh2):
        # Z-power-support double: the Z subgroup acts with phi = 0
        q = topo_solution(wh2, z_power_alpha(wh2))
        spec = TopoSymmetrySpec(wh2, z_subgroup(wh2), 0.0)
        rep = check_topo_symmetry(q, spec, alpha=z_power_alpha(wh2))
        assert rep.passed
        assert all(abs(p) < 1e-9 for p in rep.phases.values())

    def test_charged_tensor_phase(self, wh2):
        alpha = z_power_alpha(wh2, charge=1)
        q = topo_solution(wh2, alpha)
        spec = TopoSymmetrySpec(wh2, z_subgroup(wh2), 2 * np.pi * 1 / 2)
        rep = check_topo_symmetry(q, spec, alpha=alpha)
        assert rep.passed
        gen = spec.generator()
        assert np.exp(1j * rep.phases[gen]) == pytest.approx(np.exp(2j * np.pi / 2), abs=1e-9)

    @pytest.mark.parametrize("charge", [0, 1, 2])
    def test_qutrit_charges(self, wh3, charge):
        alpha = z_power_alpha(wh3, charge=charge)
        q = topo_solution(wh3, alpha)
        spec = TopoSymmetrySpec(wh3, z_subgroup(wh3), 2 * np.pi * charge / 3)
        rep = check_topo_symmetry(q, spec, alpha=alpha)
        assert rep.passed

    def test_interpolated_family_x_subgroup(self, wh2):
        alpha = interpolated_alpha(wh2, 0.4)
        q = topo_solution(wh2, alpha)
        spec = TopoSymmetrySpec(wh2, tuple(sorted([wh2.index("I"), wh2.index("X")])), 0.0)
        rep = check_topo_symmetry(q, spec, alpha=alpha)
        assert rep.passed

    def test_wrong_phase_fails(self, wh2):
        alpha = z_power_alpha(wh2, charge=1)
        q = topo_solution(wh2, alpha)
        spec = TopoSymmetrySpec(wh2, z_subgroup(wh2), 0.0)
        rep = check_topo_symmetry(q, spec, alpha=alpha)
        assert not rep.passed

    @pytest.mark.parametrize("D,k", [(2, 1), (3, 1), (3, 2)])
    def test_charge_annihilation_by_local_unitaries(self, D, k):
        # glue charge +k and charge -k tensors along a horizontal bond; the
        # local unitary Z^k x Z^{-k} on the two bond-adjacent physical legs
        # annihilates the charges, reproducing the charge-free pair
        basis = weyl_heisenberg_basis(D)
        plus = topo_solution(basis, x_power_alpha(basis, charge=k))
        minus = topo_solution(basis, x_power_alpha(basis, charge=-k))
        free = topo_solution(basis, x_power_alpha(basis, charge=0))
        z = basis.element("Z")
        zk = np.linalg.matrix_power(z, k)
        zmk = np.linalg.matrix_power(z, D - k)

        def eight(t):
            arr = t.tensor.transpose_to(("left", "up", "right", "down", "phys")).data
            return arr.reshape(D, D, D, D, D, D, D, D)  # l,u,r,d, lp,up,rp,dp

        def glue(lt, rt, rot_left_rp=None, rot_right_lp=None):
            a, b = eight(lt), eight(rt)
            if rot_left_rp is not None:
                a = np.einsum("lurdabcx,yc->lurdabyx", a, rot_left_rp)
            if rot_right_lp is not None:
                b = np.einsum("lurdabcx,ya->lurdybcx", b, rot_right_lp)
            return np.tensordot(a, b, axes=([2], [0]))

        # the Z^k x Z^{-k} pair reads right-to-left in our leg conventions
        got = glue(plus, minus, rot_left_rp=zmk, rot_right_lp=zk)
        want = glue(free, free)
        from mftn.tensors import proportionality

        _, resid = proportionality(got.reshape(-1), want.reshape(-1))
        assert resid < 1e-9


class TestTransferSpectra:
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.7, 1.0])
    def test_interpolated_analytic(self, wh2, a):
        spec = transfer_spectrum_analytic(interpolated_alpha(wh2, a), wh2, 1)
        by_label = dict(zip(spec.labels, spec.e_values))
        assert by_label["I"] == pytest.approx(2 + 2 * a**2, abs=1e-12)
        assert by_label["X"] == pytest.approx(2 + 2 * a**2, abs=1e-12)
        assert by_label["XZ"] == pytest.approx(4 * a, abs=1e-12)
        assert by_label["Z"] == pytest.approx(4 * a, abs=1e-12)
        assert spec.degeneracy_of_max == (2 if a < 1 else 4)

    def test_identity_indicator_trivial(self, wh2):
        alpha = np.zeros(4)
        alpha[wh2.index("I")] = 1.0
        spec = transfer_spectrum_analytic(alpha, wh2, 3)
        mags = np.sort(np.abs(spec.e_values))
        assert mags[-1] == pytest.approx(1.0)
        assert np.all(mags[:-1] < 1e-12)
        assert spec.degeneracy_of_max == 1

    @pytest.mark.parametrize("a,L", [(0.0, 2), (0.5, 2), (0.5, 3), (1.0, 2), (0.3, 3)])
    def test_brute_matches_analytic(self, wh2, a, L):
        alpha = interpolated_alpha(wh2, a)
        q = topo_solution(wh2, alpha)
        brute = transfer_matrix_brute(q, L)
        analytic = transfer_spectrum_analytic(alpha, wh2, L)
        want = np.sort(np.abs(analytic.t_values))[::-1]
        got = np.sort(np.abs(brute))[::-1][: len(want)]
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)
        rest = np.sort(np.abs(brute))[::-1][len(want):]
        assert np.all(rest < 1e-8 * max(want.max(), 1.0))

    @pytest.mark.parametrize("L", [2, 3])
    def test_z3_double_matches_brute(self, wh3, L):
        alpha = x_power_alpha(wh3)
        q = topo_solution(wh3, alpha)
        brute = transfer_matrix_brute(q, L)
        analytic = transfer_spectrum_analytic(alpha, wh3, L)
        want = np.sort(np.abs(analytic.t_values))[::-1]
        got = np.sort(np.abs(brute))[::-1][: len(want)]
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)

    def test_size_guard(self, wh2):
        q = topo_solution(wh2, np.ones(4))
        with pytest.raises(SizeGuardError):
            transfer_matrix_brute(q, 7)

    def test_cauchy_schwarz_bound(self, wh2, rng):
        for _ in range(25):
            alpha = random_complex(rng, 4)
            spec = transfer_spectrum_analytic(alpha, wh2, 1)
            bound = np.sum(np.abs(alpha) ** 2)
            assert np.all(np.abs(spec.e_values) <= bound + 1e-9)


class TestDegeneracy:
    def test_interpolated_subgroup(self, wh2):
        spec = TopoSymmetrySpec(wh2, tuple(sorted([wh2.index("I"), wh2.index("X")])), 0.0)
        rep = degeneracy_report(spec, interpolated_alpha(wh2, 0.6), L=2)
        assert rep.passed
        assert rep.spectrum.degeneracy_of_max >= 2
        assert rep.max_value == pytest.approx((2 + 2 * 0.36) ** 2, rel=1e-9)

    def test_full_group_at_alpha_one(self, wh2):
        spec = TopoSymmetrySpec(wh2, (0, 1, 2, 3), 0.0)
        rep = degeneracy_report(spec, np.ones(4), L=4)
        assert rep.passed and rep.spectrum.degeneracy_of_max >= 4

    def test_trivial_subgroup(self, wh2):
        spec = TopoSymmetrySpec(wh2, (wh2.identity_index,), 0.0)
        rep = degeneracy_report(spec, interpolated_alpha(wh2, 0.2), L=3)
        assert rep.passed and rep.spectrum.degeneracy_of_max >= 1

    def test_requires_multiple_of_m(self, wh2):
        spec = TopoSymmetrySpec(wh2, tuple(sorted([wh2.index("I"), wh2.index("X")])), 0.0)
        with pytest.raises(ValueError):
            degeneracy_report(spec, interpolated_alpha(wh2, 0.6), L=3)


class TestInjectivity:
    def test_identity_indicator_injective(self, wh2):
        alpha = np.zeros(4)
        alpha[wh2.index("I")] = 1.0
        q = topo_solution(wh2, alpha)
        spec = TopoSymmetrySpec(wh2, (wh2.identity_index,), 0.0)
        rep = injectivity_check(q, spec)
        assert rep.injective and rep.consistent_with_spec

    def test_toric_not_injective(self, wh2):
        q = topo_solution(wh2, x_power_alpha(wh2))
        spec = TopoSymmetrySpec(wh2, tuple(sorted([wh2.index("I"), wh2.index("X")])), 0.0)
        rep = injectivity_check(q, spec)
        assert not rep.injective and rep.consistent_with_spec
        assert rep.rank == 8

    def test_equal_sum_rank_deficient(self, wh2):
        q = topo_solution(wh2, np.ones(4))
        rep = injectivity_check(q, TopoSymmetrySpec(wh2, (wh2.identity_index,), 0.0))
        assert rep.rank < 16

    def test_every_nontrivial_subgroup_implies_rank_deficiency(self, wh2, rng):
        # property over random subgroup-symmetric coefficient vectors
        idx_tab, _ = wh2.product_table()
        sub = sorted([wh2.index("I"), wh2.index("X")])
        for _ in range(10):
            seed = random_complex(rng, 4)
            alpha = np.zeros(4, dtype=complex)
            for i in range(4):
                for m in sub:
                    alpha[int(idx_tab[i, m])] += seed[i]
            if not alpha.any():
                continue
            q = topo_solution(wh2, alpha)
            spec = TopoSymmetrySpec(wh2, tuple(sub), 0.0)
            assert check_topo_symmetry(q, spec).passed
            assert not injectivity_check(q, spec).injective


class TestBadSymmetry:
    def test_three_by_three_obstruction(self):
        assert bad_symmetry_obstruction(3, 3)

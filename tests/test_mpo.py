"""MPO isometry condition, slice structure, purification, and protocol runs."""

import tracemalloc

import numpy as np
import pytest

from mftn.errors import SymmetryError
from mftn import mpo
from mftn.fixtures import controlled_pauli_mpo
from mftn.mps import SymmetryReport
from mftn.mpo import (
    MPOTensor,
    apply_mpo_via_protocol,
    build_purifying_unitary,
    check_mpo_isometry,
    mpo_slices,
    relative_local_unitary,
)
from mftn.tensors import random_unitary, state_fidelity

from conftest import random_complex
from oracles import periodic_mpo_accounting


@pytest.fixture(scope="module")
def cp_mpo():
    from mftn.basis import weyl_heisenberg_basis

    return controlled_pauli_mpo(weyl_heisenberg_basis(2))


def random_instance(cp_mpo, rng):
    """Family member: the fixture composed with a random unitary on phys_in."""
    return cp_mpo.apply_phys_in(random_unitary(cp_mpo.d, rng))


class TestIsometry:
    def test_controlled_pauli(self, cp_mpo):
        ok, const, _ = check_mpo_isometry(cp_mpo)
        assert ok
        assert const.real == pytest.approx(2.0, abs=1e-12)

    def test_identity_mpo_bond_dimension_one(self):
        from mftn.basis import MFBasis
        from mftn.mps import SymmetryConstraint

        trivial = MFBasis(1, [np.eye(1)], labels=["I"])
        arr = np.zeros((2, 2, 1, 1), dtype=complex)
        arr[0, 0] = arr[1, 1] = 1.0
        ident = MPOTensor.from_array(arr, trivial, [SymmetryConstraint(0, np.eye(2), 0)])
        ok, const, _ = check_mpo_isometry(ident)
        assert ok
        assert const.real == pytest.approx(1.0, abs=1e-12)
        report = mpo_slices(ident)
        assert report.passed and len(report.slices) == 2
        u = build_purifying_unitary(ident).data
        assert u.shape == (2, 2)
        assert np.linalg.norm(u @ u.conj().T - np.eye(2)) < 1e-12

    def test_random_tensor_fails(self, wh2, rng):
        arr = random_complex(rng, 4, 4, 2, 2)
        bad = MPOTensor.from_array(arr, wh2, ())
        ok, _, _ = check_mpo_isometry(bad)
        assert not ok


class TestSlices:
    def test_pauli_slices_orthogonal(self, cp_mpo):
        report = mpo_slices(cp_mpo)
        assert report.passed
        assert report.orthogonality_residual < 1e-12
        assert len(report.slices) == 4

    def test_family_instance_preserves_orthogonality(self, cp_mpo, rng):
        inst = random_instance(cp_mpo, rng)
        report = mpo_slices(inst)
        assert report.passed

    def test_symmetry_precondition_enforced(self, cp_mpo, wh2, rng):
        arr = cp_mpo.array() + 0.1 * random_complex(rng, 4, 4, 2, 2)
        bad = MPOTensor.from_array(arr, wh2, cp_mpo.constraints)
        with pytest.raises(SymmetryError):
            mpo_slices(bad)


class TestPurifyingUnitary:
    def test_controlled_pauli_block_structure(self, cp_mpo, wh2):
        u = build_purifying_unitary(cp_mpo).data
        want = np.zeros((8, 8), dtype=complex)
        for a, p in enumerate(wh2.elements):
            want[2 * a : 2 * a + 2, 2 * a : 2 * a + 2] = p
        # U(|a> x |l>) = |a> x P_a |l> once the (o, r) rows are grouped by o
        got = u.reshape(4, 2, 4, 2)
        for a, p in enumerate(wh2.elements):
            np.testing.assert_allclose(got[a, :, a, :], p, atol=1e-12)
            for b in range(4):
                if b != a:
                    assert np.linalg.norm(got[b, :, a, :]) < 1e-12

    def test_unitarity_for_random_instances(self, cp_mpo, rng):
        for _ in range(3):
            inst = random_instance(cp_mpo, rng)
            u = build_purifying_unitary(inst).data
            assert np.linalg.norm(u @ u.conj().T - np.eye(8)) < 1e-10


class TestRelativeUnitary:
    def test_round_trip(self, cp_mpo, rng):
        u0 = random_unitary(4, rng)
        inst = cp_mpo.apply_phys_in(u0)
        got = relative_local_unitary(cp_mpo, inst)
        phase, resid = None, None
        from mftn.tensors import proportionality

        phase, resid = proportionality(got.reshape(-1), u0.reshape(-1))
        assert resid < 1e-8

    def test_identity_for_same_mpo(self, cp_mpo):
        got = relative_local_unitary(cp_mpo, cp_mpo)
        np.testing.assert_allclose(got, np.eye(4), atol=1e-10)

    def test_mismatched_constraints_error(self, cp_mpo, wh2):
        other = MPOTensor(cp_mpo.tensor, wh2, cp_mpo.constraints[:2])
        with pytest.raises(SymmetryError):
            relative_local_unitary(cp_mpo, other)


class TestProtocolApplication:
    def test_pauli_chain_matches_direct(self, cp_mpo, rng):
        n = 3
        psi = random_complex(rng, 4**n)
        psi /= np.linalg.norm(psi)
        for seed in range(4):
            run = apply_mpo_via_protocol([cp_mpo] * n, psi, seed=seed)
            assert run.success
            assert run.fidelity >= 1 - 1e-9

    def test_family_instance_matches_staircase(self, cp_mpo, rng):
        n = 3
        inst = random_instance(cp_mpo, rng)
        psi = random_complex(rng, 4**n)
        run = apply_mpo_via_protocol([inst] * n, psi, seed=7)
        assert run.fidelity >= 1 - 1e-8
        # oracle: one layer of U_tilde rotations followed by the U staircase
        u = build_purifying_unitary(cp_mpo).data
        ut = relative_local_unitary(cp_mpo, inst)
        stair = _staircase_state(u, ut, psi, n, 2, 4)
        assert state_fidelity(run.final_state.data, stair) >= 1 - 1e-8

    def test_identity_local_unitary_returns_input(self, cp_mpo):
        # U_tilde = I instance: the protocol output equals the direct MPO
        # action, itself the controlled-Pauli staircase
        psi = np.zeros(4**2, dtype=complex)
        psi[3] = 1.0
        run = apply_mpo_via_protocol([cp_mpo] * 2, psi, seed=0)
        assert run.fidelity >= 1 - 1e-9


def _staircase_state(u, ut, psi, n, D, d):
    """Oracle: U_tilde layer then the U staircase contracted densely."""
    state = np.asarray(psi, dtype=complex).reshape([d] * n)
    for k in range(n):
        state = np.moveaxis(np.tensordot(ut, state, axes=([1], [k])), 0, k)
    u4 = u.reshape(d, D, d, D)  # (o, r), (a, l)
    # cur axes: (l_edge, o_0..o_{k-1}, wire, a_k..)
    cur = np.tensordot(u4, state, axes=([2], [0]))  # (o0, r0, l0, a1..)
    cur = np.moveaxis(cur, 2, 0)  # (l_edge, o0, wire, a1..)
    for k in range(1, n):
        cur = np.tensordot(cur, u4, axes=([1 + k, 2 + k], [3, 2]))
        cur = np.moveaxis(cur, [-2, -1], [1 + k, 2 + k])
    return cur


class TestPeriodicAccounting:
    def test_controlled_pauli_ring(self, cp_mpo, rng):
        psi = random_complex(rng, 16)
        psi /= np.linalg.norm(psi)
        report = periodic_mpo_accounting([cp_mpo] * 2, psi)
        assert sum(report.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert 0 < report.success_probability < 1
        for ok, fid in zip(report.correctable, report.fidelities):
            if ok and fid is not None:
                assert fid >= 1 - 1e-9

    def test_probabilities_are_normalised_by_the_unmeasured_norm(self, cp_mpo, rng):
        # no division by the branches' own total: the weights sum to |psi|^2 D^n exactly
        psi = 3.0 * random_complex(rng, 4**3)
        report = periodic_mpo_accounting([cp_mpo] * 3, psi)
        assert abs(sum(report.probabilities) - 1) < 1e-12
        assert report.correctable_fraction == 0.25

    def test_refuses_a_broken_slice_symmetry(self, cp_mpo, rng):
        # a unitary on phys_out keeps the isometry but not the stored constraints
        v = random_unitary(cp_mpo.d, rng)
        twisted = MPOTensor.from_array(np.einsum("po,oalr->palr", v, cp_mpo.array()),
                                       cp_mpo.basis, cp_mpo.constraints)
        assert check_mpo_isometry(twisted)[0]
        with pytest.raises(SymmetryError, match="symmetry"):
            periodic_mpo_accounting([cp_mpo, twisted], np.ones(16))

    def test_refuses_a_broken_isometry(self, cp_mpo):
        scaled = MPOTensor.from_array(2 * cp_mpo.array(), cp_mpo.basis, cp_mpo.constraints)
        with pytest.raises(SymmetryError, match="isometry"):
            periodic_mpo_accounting([scaled] * 2, np.ones(16))

    def test_refuses_a_nan_symmetry_residual(self, cp_mpo, monkeypatch):
        # builtin max skips a NaN that does not come first, and NaN >= floor is False
        monkeypatch.setattr(mpo, "check_mf_symmetry",
                            lambda A, tol: SymmetryReport([0.0, float("nan"), 0.0], tol))
        assert np.isnan(mpo.check_mpo_symmetry(cp_mpo))
        with pytest.raises(SymmetryError, match="push-through symmetry"):
            periodic_mpo_accounting([cp_mpo] * 2, np.ones(16))
        with pytest.raises(SymmetryError, match="slice symmetry"):
            mpo_slices(cp_mpo)

    def test_keeps_no_branch_in_memory(self, cp_mpo, rng):
        psi = random_complex(rng, 4**4)
        periodic_mpo_accounting([cp_mpo] * 2, np.ones(16))  # warm the caches
        tracemalloc.start()
        try:
            periodic_mpo_accounting([cp_mpo] * 4, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2**20


class TestProtocolMapEquality:
    def test_twenty_random_inputs_match_direct_action(self, cp_mpo, rng):
        # the realized map equals the direct MPO action on many random inputs
        inst = random_instance(cp_mpo, rng)
        for k in range(20):
            psi = random_complex(rng, 4**2)
            run = apply_mpo_via_protocol([inst] * 2, psi, seed=100 + k)
            assert run.fidelity >= 1 - 1e-8


class TestIdentityMpoProtocol:
    def test_identity_chain_returns_input(self, rng):
        from mftn.basis import MFBasis
        from mftn.mps import SymmetryConstraint

        trivial = MFBasis(1, [np.eye(1)], labels=["I"])
        arr = np.zeros((2, 2, 1, 1), dtype=complex)
        arr[0, 0] = arr[1, 1] = 1.0
        ident = MPOTensor.from_array(arr, trivial, [SymmetryConstraint(0, np.eye(2), 0)])
        psi = random_complex(rng, 2**3)
        run = apply_mpo_via_protocol([ident] * 3, psi, seed=0)
        assert run.fidelity >= 1 - 1e-12
        # with bond dimension one the output physical state is the input
        out = run.final_state.data.reshape(-1)
        from mftn.tensors import state_fidelity

        assert state_fidelity(out, psi) >= 1 - 1e-12

"""Pushes in range form: an r x r block U_r on an orthonormal range basis L, the identity off it.

``MFTensor.push_residuals`` judges the pushes that share L and legs together
on R = L† B.  Each residual must be at least the dense one
(``push_oracles.dense_push_residuals``, read off the dense views) and
within 2 ||E||_F / ||B|| of it, E = B - L L† B; a slack of 1e-15 absorbs
round-off.  The search, the swap and the carry never form a D^4 x D^4 push,
so a WH:4 tensor keeps what its r-sized pushes take, and a Z3 patch run
builds no 81 x 81 dense view.
"""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mftn import cli, mps, peps, protocol
from mftn.basis import weyl_heisenberg_basis
from mftn.fixtures import controlled_pauli_mpo
from mftn.mps import spt_solution
from mftn.peps import PEPSTensor, complete_with_isometry, topo_solution
from mftn.tensors import isometry_residual

from conftest import random_complex, x_power_alpha
from push_oracles import dense_push_residuals
from reference_tensors import interpolated_alpha

WH2 = weyl_heisenberg_basis(2)
WH3 = weyl_heisenberg_basis(3)
SLACK = 1e-15
SEEDS = st.integers(0, 2**32 - 1)
X3 = [[1, 0] if k in (0, 3, 6) else [0, 0] for k in range(9)]


def off_range_norms(A):
    """||B - L L† B||_F / ||B|| for the range basis L of each push; 0 for a dense push."""
    b = A.as_matrix()
    return [0.0 if c.range_basis is None else
            np.linalg.norm(b - c.range_basis @ (c.range_basis.conj().T @ b)) / np.linalg.norm(b)
            for c, _, _ in A.pushes()]


def assert_residuals_bound_the_dense_ones(A):
    got = np.array(A.push_residuals)
    dense = np.array(dense_push_residuals(A))
    assert got.shape == (len(A.pushes()),)
    assert np.all(got >= dense - SLACK)
    assert np.all(got <= dense + 2 * np.array(off_range_norms(A)) + SLACK)


class TestResidualsAgainstTheDenseOracle:
    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from([WH2, WH3]), SEEDS)
    def test_random_spt_solutions(self, basis, seed):
        assert_residuals_bound_the_dense_ones(
            spt_solution(basis, random_complex(np.random.default_rng(seed), len(basis.elements))))

    @settings(max_examples=4, deadline=None)
    @given(st.sampled_from([WH2, WH3]), SEEDS)
    def test_random_topo_solutions(self, basis, seed):
        q = topo_solution(basis, random_complex(np.random.default_rng(seed), len(basis.elements)))
        assert all(c.range_basis is not None for c, _, _ in q.pushes())
        assert_residuals_bound_the_dense_ones(q)

    @pytest.mark.parametrize("basis", [WH2, WH3], ids=["wh2", "wh3"])
    def test_x_power_q_and_its_compression(self, basis):
        q = topo_solution(basis, x_power_alpha(basis))
        a = complete_with_isometry(q)
        assert all(c.range_basis is None and c.block.shape == (a.d, a.d) for c, _, _ in a.pushes())
        for tensor in (q, a):
            assert_residuals_bound_the_dense_ones(tensor)

    @pytest.mark.parametrize("a", [0.3, 0.5])
    def test_a_rank_deficient_q(self, a):
        """Q has rank 8 of 16: E is round-off, so the bound is tight."""
        q = topo_solution(WH2, interpolated_alpha(WH2, a))
        assert {c.range_basis.shape for c, _, _ in q.pushes()} == {(16, 8)}
        assert_residuals_bound_the_dense_ones(q)

    def test_data_moved_off_the_range_of_the_pushes(self, rng):
        """Q's pushes on Q + 1e-6 noise: the off-range part E is of the noise's size, and
        the range-form residual must still bound the dense one within 2 ||E||."""
        q = topo_solution(WH2, interpolated_alpha(WH2, 0.3))
        moved = PEPSTensor.from_matrix(q.as_matrix() + 1e-6 * random_complex(rng, 16, 16), WH2,
                                       q.constraints_a, q.constraints_b)
        assert min(off_range_norms(moved)) > 1e-8
        assert min(moved.push_residuals) > 1e-8
        assert_residuals_bound_the_dense_ones(moved)

    @pytest.mark.parametrize("basis", [WH2, WH3], ids=["wh2", "wh3"])
    def test_controlled_pauli_mpo_slices(self, basis):
        mpo = controlled_pauli_mpo(basis)
        for a in range(basis.dim * basis.dim):
            assert_residuals_bound_the_dense_ones(mpo.slice_tensor(a))


def test_the_b_type_pushes_are_the_swapped_a_type_ones(wh3):
    """One range basis per family, the B-type one a row permutation of the A-type one, and the same blocks."""
    q = topo_solution(wh3, x_power_alpha(wh3))
    assert len({id(c.range_basis) for c in q.constraints_a}) == len({id(c.range_basis) for c in q.constraints_b}) == 1
    l = q.constraints_a[0].range_basis
    swapped = l.reshape(3, 3, 3, 3, -1).transpose(3, 1, 2, 0, 4).reshape(l.shape)
    assert np.array_equal(q.constraints_b[0].range_basis, swapped)
    for ca, cb in zip(q.constraints_a, q.constraints_b):
        assert ca.block is cb.block


def test_the_dense_view_is_built_once_and_only_when_read(wh2):
    q = topo_solution(wh2, x_power_alpha(wh2))
    c = q.constraints_a[1]
    assert "u_phys" not in c.__dict__
    u = c.u_phys
    assert u is c.u_phys and u.shape == (16, 16) and not u.flags.writeable
    assert isometry_residual(u) < 1e-14


class TestMemory:
    def test_wh4_construction_keeps_its_pushes_r_sized(self):
        """Q and V Q at WH:4 with their pushes: 35.3 MiB kept and a 39.0 MiB peak with dense pushes."""
        wh4 = weyl_heisenberg_basis(4)
        alpha = x_power_alpha(wh4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            q = topo_solution(wh4, alpha)
            a = complete_with_isometry(q)
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert a.d == 64 and len(q.pushes()) == 32
        assert kept < 10 << 20
        assert peak < 39 << 20

    def test_check_peps_wh3_peak(self):
        """The sideways factorization holds U_C (8.1 MiB at WH:3) and no conjugate copy of it."""
        argv = ["check-peps", "--basis", "WH:3", "--alpha", json.dumps(X3)]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.dispatch(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(c["passed"] for c in json.loads(out.getvalue())["checks"])
        assert peak < 15 << 20

    def test_a_z3_patch_run_builds_no_dense_q_push(self, monkeypatch):
        """Routing reads the r x r pushes of V Q: no 81 x 81 view of Q's pushes is formed."""
        sizes = []
        real = mps.range_unitary

        def recording(l, block):
            sizes.append(len(l))
            return real(l, block)

        for module in (mps, peps, protocol):
            monkeypatch.setattr(module, "range_unitary", recording)
        argv = ["simulate", "--peps", json.dumps({"basis": "WH:3", "alpha": X3}), "--rows", "2",
                "--cols", "2", "--trials", "3", "--seed", "0"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.dispatch(argv) == 0
        assert json.loads(out.getvalue())["checks"] == [{"name": "all_trials_succeed", "passed": True}]
        assert sizes and max(sizes) == 27

"""Leg-labelled tensor algebra and the polar factorization behind everything else."""

import numpy as np
import pytest

from mftn.errors import DimensionMismatchError, LegError, NumericalRangeError
from mftn.tensors import DenseTensor, contract, fix_global_phase, polar_nd, procrustes_unitary

from conftest import random_complex
from oracles import projector_onto
from reference_tensors import bell_map_tensor


class TestDenseTensor:
    def test_invariants(self):
        with pytest.raises(LegError):
            DenseTensor(np.zeros((2, 2)), ("a", "a"))
        with pytest.raises(LegError):
            DenseTensor(np.zeros((2, 2)), ("a",))
        with pytest.raises(ValueError):
            DenseTensor(np.array([np.nan, 0.0]), ("a",))

    def test_matrix_view_is_row_major(self):
        t = DenseTensor(np.arange(8).reshape(2, 2, 2), ("a", "b", "c"))
        m = t.matrix(["a", "b"], ["c"])
        assert m.shape == (4, 2)
        assert m[1, 0] == 2  # (a=0, b=1, c=0)
        with pytest.raises(LegError):
            t.matrix(["a"], ["b"])

    def test_json_round_trip(self, rng):
        t = DenseTensor(random_complex(rng, 2, 3), ("u", "v"))
        back = DenseTensor.from_json(t.to_json())
        assert back.legs == t.legs
        np.testing.assert_allclose(back.data, t.data, atol=1e-15)


class TestContract:
    def test_identity_contraction_relabels(self, rng):
        v = DenseTensor(random_complex(rng, 2), ("b",))
        ident = DenseTensor(np.eye(2), ("a", "b"))
        out = contract(ident, v, [("b", "b")])
        assert out.legs == ("a",)
        np.testing.assert_allclose(out.data, v.data)

    def test_bell_map_on_x_gives_01_plus_10(self):
        # |X> = sum_ab X_ab |a b| = |01> + |10> up to normalization
        bell = bell_map_tensor(2)
        sel = DenseTensor(np.array([0.0, 0, 1, 0]), ("label",))  # X is label v*2+w = 2
        state = contract(bell, sel, [("label", "label")]).matrix(["a"], ["b"]).reshape(-1)
        target = np.array([0, 1, 1, 0], dtype=complex)
        overlap = abs(np.vdot(target, state)) / (np.linalg.norm(target) * np.linalg.norm(state))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_full_contraction_matches_entrywise_sum(self, rng):
        t = DenseTensor(random_complex(rng, 2, 3, 4), ("a", "b", "c"))
        out = contract(t, DenseTensor(t.data.conj(), t.legs), [("a", "a"), ("b", "b"), ("c", "c")])
        # independent oracle: explicit loop over all entries
        expected = 0.0
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    expected += t.data[i, j, k] * np.conj(t.data[i, j, k])
        assert out.data == pytest.approx(expected)
        assert out.legs == ()

    def test_no_pairs_is_outer_product(self, rng):
        a = DenseTensor(random_complex(rng, 2), ("a",))
        b = DenseTensor(random_complex(rng, 3), ("b",))
        out = contract(a, b, [])
        np.testing.assert_allclose(out.data, np.outer(a.data, b.data))

    def test_dimension_mismatch_raises(self):
        a = DenseTensor(np.zeros(2), ("a",))
        b = DenseTensor(np.zeros(3), ("b",))
        with pytest.raises(DimensionMismatchError):
            contract(a, b, [("a", "b")])

    def test_associativity_over_disjoint_legs(self, rng):
        t1 = DenseTensor(random_complex(rng, 2, 3), ("a", "b"))
        t2 = DenseTensor(random_complex(rng, 3, 4), ("b2", "c"))
        t3 = DenseTensor(random_complex(rng, 4, 2), ("c2", "d"))
        left = contract(contract(t1, t2, [("b", "b2")]), t3, [("c", "c2")])
        inner = contract(t2, t3, [("c", "c2")])
        right = contract(t1, inner, [("b", "b2")])
        np.testing.assert_allclose(
            left.transpose_to(("a", "d")).data, right.transpose_to(("a", "d")).data, atol=1e-10
        )


class TestPolar:
    def test_unitary_input(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        v, q = polar_nd(h)
        np.testing.assert_allclose(v, h, atol=1e-12)
        np.testing.assert_allclose(q, np.eye(2), atol=1e-12)

    def test_rank_one_diagonal(self):
        v, q = polar_nd(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(q, np.diag([2.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.diag([1.0, 0.0]), atol=1e-12)

    def test_random_reconstruction_and_psd(self, rng):
        m = random_complex(rng, 4, 4)
        v, q = polar_nd(m)
        assert np.linalg.norm(m - v @ q) < 1e-10
        assert np.linalg.norm(q - q.conj().T) < 1e-10
        assert np.linalg.eigvalsh((q + q.conj().T) / 2).min() > -1e-10
        # V†V equals the projector onto range(Q)
        evals, evecs = np.linalg.eigh(q)
        keep = evecs[:, evals > 1e-9 * evals.max()]
        np.testing.assert_allclose(v.conj().T @ v, projector_onto(keep), atol=1e-9)


class TestPhaseFix:
    def test_round_off_among_equal_moduli_does_not_move_the_lead(self, rng):
        # a stabilizer-like vector: 27 entries of one modulus with qutrit phases
        v = np.exp(2j * np.pi * rng.integers(0, 3, 27) / 3) / np.sqrt(27)
        fixed = fix_global_phase(v)
        assert abs(fixed[0] - abs(v[0])) < 1e-15
        for k in range(27):
            bumped = v.copy()
            bumped[k] *= 1 + 1e-14
            np.testing.assert_allclose(fix_global_phase(bumped), fixed, atol=1e-13)

    def test_lead_is_the_largest_entry_otherwise(self):
        v = np.array([0.1j, -0.9, 0.3])
        np.testing.assert_allclose(fix_global_phase(v), -v, atol=1e-15)


class TestProcrustes:
    def test_a_stack_fits_each_pair(self, rng):
        target, source = random_complex(rng, 3, 4, 4), random_complex(rng, 3, 4, 4)
        got = procrustes_unitary(target, source)
        for k in range(3):
            assert np.array_equal(got[k], procrustes_unitary(target[k], source[k]))
            np.testing.assert_allclose(got[k].conj().T @ got[k], np.eye(4), atol=1e-12)

    def test_a_stack_lapack_refuses_is_factored_by_its_conjugate_transpose(self, rng, monkeypatch):
        """gesdd can fail to converge where the conjugate transpose converges; the polar
        factor of M† is that of M, conjugated and transposed."""
        target, source = random_complex(rng, 3, 4, 4), random_complex(rng, 3, 4, 4)
        want = procrustes_unitary(target, source)
        svd, factored = np.linalg.svd, []

        def refuse_the_first(m, *args, **kwargs):
            factored.append(m)
            if len(factored) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", refuse_the_first)
        got = procrustes_unitary(target, source)
        assert len(factored) == 2 and np.array_equal(factored[1], factored[0].conj().swapaxes(-1, -2))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_a_stack_refused_both_ways_raises(self, rng, monkeypatch):
        def refuse(m, *args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        with pytest.raises(NumericalRangeError, match="did not converge"):
            procrustes_unitary(random_complex(rng, 4, 4), random_complex(rng, 4, 4))

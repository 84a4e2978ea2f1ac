"""MF basis constructions: Weyl-Heisenberg, composites, Hadamard/Latin squares."""

import numpy as np
import pytest

from mftn.basis import MFBasis, composite_basis, shift_clock, weyl_heisenberg_basis
from mftn.errors import BasisError, NonGroupBasisError, SizeGuardError
from mftn.tensors import DEFAULT_TOL, random_unitary
from reference_tensors import fourier_matrix, hadamard_latin_basis

# A 5x5 Latin square whose row permutations do not close under composition,
# i.e. not the Cayley table of any group.
NON_GROUP_LATIN_5 = np.array(
    [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
)


class TestWeylHeisenberg:
    def test_d2_elements_match_paulis(self, wh2):
        x, z = shift_clock(2)
        np.testing.assert_allclose(wh2.element("I"), np.eye(2))
        np.testing.assert_allclose(wh2.element("X"), x)
        np.testing.assert_allclose(wh2.element("Z"), z)
        np.testing.assert_allclose(wh2.element("XZ"), x @ z)
        gram = np.array(
            [
                [np.trace(p.conj().T @ q) for q in wh2.elements]
                for p in wh2.elements
            ]
        )
        np.testing.assert_allclose(gram, 2 * np.eye(4), atol=1e-12)

    def test_d2_cocycle_anticommutation(self, wh2):
        assert wh2.cocycle.omega(wh2.index("X"), wh2.index("Z")) == pytest.approx(-1.0)

    def test_d3_completeness_gram(self, wh3):
        m = wh3.completeness_map()
        assert np.linalg.norm(m.conj().T @ m - np.eye(9)) < 1e-10

    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_generator_relations(self, D):
        b = weyl_heisenberg_basis(D)
        x, z = b.element("X"), b.element("Z")
        np.testing.assert_allclose(np.linalg.matrix_power(x, D), np.eye(D), atol=1e-12)
        np.testing.assert_allclose(np.linalg.matrix_power(z, D), np.eye(D), atol=1e-12)
        np.testing.assert_allclose(z @ x, np.exp(2j * np.pi / D) * x @ z, atol=1e-12)

    def test_completeness_sum(self, wh3):
        acc = sum(np.outer(p.reshape(-1), p.reshape(-1).conj()) for p in wh3.elements)
        np.testing.assert_allclose(acc / 3, np.eye(9), atol=1e-9)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            weyl_heisenberg_basis(1)

    def test_rejects_dimension_above_the_guard(self):
        assert weyl_heisenberg_basis(MFBasis.MAX_DIM).dim == 16
        with pytest.raises(SizeGuardError):
            weyl_heisenberg_basis(17)
        with pytest.raises(SizeGuardError):
            MFBasis(17, [])
        with pytest.raises(SizeGuardError):
            composite_basis(weyl_heisenberg_basis(2), weyl_heisenberg_basis(9))

    @pytest.mark.parametrize("D", [2, 3, 5, 8])
    def test_cocycle_matches_the_elementwise_formula(self, D):
        # the reference: omega(j, k) = exp(2 pi i (v w' - w v') / D), one pair at a time
        vw = [(v, w) for v in range(D) for w in range(D)]
        want = np.array([[np.exp(2j * np.pi * (v * wp - w * vp) / D) for vp, wp in vw]
                         for v, w in vw])
        b = weyl_heisenberg_basis(D)
        np.testing.assert_allclose(b.cocycle.phases, want, rtol=0, atol=1e-13)
        # and the definition P_k P_j = omega(j, k) P_j P_k
        for j, k in [(1, D), (D + 1, 2 * D - 1), (D * D - 1, 1)]:
            pj, pk = b.elements[j], b.elements[k]
            np.testing.assert_allclose(pk @ pj, b.cocycle.omega(j, k) * pj @ pk, atol=1e-12)


class TestIndex:
    def test_labels_and_in_range_integers(self, wh2):
        assert wh2.index("XZ") == 3
        assert wh2.index(3) == 3 and wh2.index(np.int64(0)) == 0

    @pytest.mark.parametrize("key", [4, 99, -1, np.int64(-4), True, False, np.True_, "Y"])
    def test_refuses_what_names_no_element(self, wh2, key):
        with pytest.raises(ValueError):
            wh2.index(key)


class TestComposite:
    def test_product_of_wh2(self, wh2):
        b = composite_basis(wh2, wh2, mode="product")
        assert b.dim == 4 and len(b.elements) == 16
        assert b.is_group

    def test_product_cocycle_factorizes(self, wh2):
        b = composite_basis(wh2, wh2, mode="product")
        # brute-force commutator phases against the factor cocycles
        for j1 in range(4):
            for j2 in range(4):
                for k1 in range(4):
                    for k2 in range(4):
                        j = 4 * j1 + j2
                        k = 4 * k1 + k2
                        want = wh2.cocycle.omega(j1, k1) * wh2.cocycle.omega(j2, k2)
                        assert b.cocycle.omega(j, k) == pytest.approx(want, abs=1e-9)

    def test_mixed_clock(self, wh2):
        b = composite_basis(wh2, wh2, mode="mixed_clock")
        assert b.dim == 4 and len(b.elements) == 16
        assert b.is_group

    @pytest.mark.parametrize("d1, d2", [(2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 5)])
    def test_mixed_clock_refuses_every_other_pair_before_any_product(self, d1, d2, monkeypatch):
        from mftn import basis

        def closure(*args):
            raise AssertionError("the closure ran")

        monkeypatch.setattr(basis, "_generate_closure", closure)
        with pytest.raises(NonGroupBasisError, match="only for WH:2 with WH:2"):
            composite_basis(weyl_heisenberg_basis(d1), weyl_heisenberg_basis(d2), mode="mixed_clock")

    @pytest.mark.parametrize("d1, d2", [(2, 3), (3, 2), (2, 4), (3, 3)])
    def test_the_refused_generators_do_not_close(self, d1, d2):
        from mftn.basis import _generate_closure

        (x1, _), (x2, _), (_, zd) = shift_clock(d1), shift_clock(d2), shift_clock(d1 * d2)
        gens = [np.kron(x1, np.eye(d2)), np.kron(np.eye(d1), x2), zd]
        assert _generate_closure(gens, (d1 * d2) ** 2) is None

    def test_product_requires_groups(self, wh2):
        broken = hadamard_latin_basis([fourier_matrix(5)] * 5, NON_GROUP_LATIN_5)
        with pytest.raises(NonGroupBasisError):
            composite_basis(broken, wh2, mode="product")
        with pytest.raises(NonGroupBasisError):
            composite_basis(wh2, broken, mode="product")


class TestHadamardLatin:
    def test_d2_reproduces_paulis_up_to_phase(self, wh2):
        h = np.array([[1, 1], [1, -1]], dtype=complex)
        lam = np.array([[0, 1], [1, 0]])  # lambda(j, k) = j + k mod 2
        b = hadamard_latin_basis([h, h], lam)
        for u in b.elements:
            idx, phase = wh2.resolve(u)
            assert abs(abs(phase) - 1) < 1e-9

    def test_non_latin_rejected(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex)
        with pytest.raises(BasisError):
            hadamard_latin_basis([h, h], np.array([[0, 0], [1, 1]]))

    def test_d3_fourier_is_group(self):
        f = fourier_matrix(3)
        lam = np.array([[(j + k) % 3 for k in range(3)] for j in range(3)])
        b = hadamard_latin_basis([f, f, f], lam)
        assert b.is_group

    def test_d5_non_group_latin_square(self):
        f = fourier_matrix(5)
        b = hadamard_latin_basis([f] * 5, NON_GROUP_LATIN_5)
        assert b.cocycle is None
        assert not b.is_group


class TestClosureAndCocycle:
    def test_wh2_closure_present(self, wh2):
        table = wh2.cocycle
        assert table is not None
        assert table.omega(wh2.index("X"), wh2.index("Z")) == pytest.approx(-1.0)

    def test_wh3_closure_exhaustive(self, wh3):
        assert wh3.cocycle is not None

    def test_cocycle_antisymmetry(self, wh3):
        t = wh3.cocycle
        for j in range(9):
            for k in range(9):
                assert t.omega(j, k) * t.omega(k, j) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_wh_cocycle_matches_formula(self, D):
        # omega((v,w),(v',w')) = exp(2 pi i (v w' - w v') / D), element order v*D+w
        table = weyl_heisenberg_basis(D).cocycle
        vw = [(v, w) for v in range(D) for w in range(D)]
        for j, (v, w) in enumerate(vw):
            for k, (vp, wp) in enumerate(vw):
                want = np.exp(2j * np.pi * (v * wp - w * vp) / D)
                assert table.omega(j, k) == pytest.approx(want, abs=1e-12)


def _loop_resolve(b, m, tol=DEFAULT_TOL):
    """The element-by-element trace test, kept as the reference for resolve."""
    t = max(tol, 1e-7)
    for k, p in enumerate(b.elements):
        c = np.trace(p.conj().T @ m) / b.dim
        if abs(abs(c) - 1.0) < t and np.linalg.norm(m - c * p) < t * b.dim:
            return k, complex(c)
    return None


def _latin_sum(D):
    return np.array([[(j + k) % D for k in range(D)] for j in range(D)])


ORACLE_BASES = {
    **{f"WH:{D}": (lambda D=D: weyl_heisenberg_basis(D)) for D in (2, 3, 4, 5)},
    "product": lambda: composite_basis(weyl_heisenberg_basis(2), weyl_heisenberg_basis(2)),
    "mixed_clock": lambda: composite_basis(
        weyl_heisenberg_basis(2), weyl_heisenberg_basis(2), mode="mixed_clock"
    ),
    "latin3": lambda: hadamard_latin_basis([fourier_matrix(3)] * 3, _latin_sum(3)),
    "latin5-non-group": lambda: hadamard_latin_basis([fourier_matrix(5)] * 5, NON_GROUP_LATIN_5),
}


class TestResolveOracle:
    @pytest.mark.parametrize("name", list(ORACLE_BASES))
    def test_projection_matches_the_loop(self, name, rng):
        b = ORACLE_BASES[name]()
        for k, p in enumerate(b.elements):
            for phase in np.exp(2j * np.pi * rng.random(4)):
                want = _loop_resolve(b, phase * p)
                assert want is not None and want[0] == k
                got = b.resolve(phase * p)
                assert got[0] == want[0]
                assert abs(got[1] - want[1]) < 1e-12
        n = len(b.elements)
        for _ in range(5):
            m = random_unitary(b.dim, rng)
            i, j = rng.choice(n, size=2, replace=False)
            pair = b.elements[i] + b.elements[j]  # |c_i| = 1: only the residual rejects it
            for bad in (m, 0.5 * b.elements[i], pair / np.sqrt(2), pair):
                assert _loop_resolve(b, bad) is None
                with pytest.raises(NonGroupBasisError):
                    b.resolve(bad)

    @pytest.mark.parametrize("name", list(ORACLE_BASES))
    def test_product_table_matches_the_loop(self, name):
        b = ORACLE_BASES[name]()
        want = [[_loop_resolve(b, p @ q) for q in b.elements] for p in b.elements]
        if any(r is None for row in want for r in row):
            with pytest.raises(NonGroupBasisError):
                b.product_table()
            return
        idx, ph = b.product_table()
        for i, row in enumerate(want):
            for j, (k, c) in enumerate(row):
                assert idx[i, j] == k
                assert abs(ph[i, j] - c) < 1e-12


class TestConstructionRejections:
    def test_non_unitary_elements_rejected(self, wh2):
        elements = [p.copy() for p in wh2.elements]
        elements[1] = 0.5 * elements[1]
        with pytest.raises(BasisError):
            MFBasis(2, elements)

    def test_orthogonality_failure_rejected(self, wh2):
        elements = [p.copy() for p in wh2.elements]
        elements[3] = elements[2]
        with pytest.raises(BasisError):
            MFBasis(2, elements)

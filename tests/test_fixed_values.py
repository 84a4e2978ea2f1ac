"""Bases and MPO tensors are fixed values, as MF tensors are.

A basis derives its group facts (product table, cocycle, ``is_group``, the
identity and the conjugate/transpose/dagger tables) from its elements, each
at most once and none while it is built.  An MPO's push-through lift to its
purification is implied by its slice residuals, so it is not re-checked."""

import numpy as np
import pytest

from mftn.basis import MFBasis, composite_basis
from mftn.errors import NonGroupBasisError, SymmetryError
from mftn.fixtures import controlled_pauli_mpo
from mftn.mpo import MPOTensor, build_purifying_unitary
from mftn.mps import MFTensor, check_mf_symmetry, require_abelian
from mftn.tensors import Fixed, random_unitary

from conftest import random_complex
from test_basis import NON_GROUP_LATIN_5
from reference_tensors import fourier_matrix, hadamard_latin_basis


def _non_group_basis():
    return hadamard_latin_basis([fourier_matrix(5)] * 5, NON_GROUP_LATIN_5)


def _bare(basis):
    """A basis built from another's elements alone."""
    return MFBasis(basis.dim, basis.elements, labels=basis.labels)


@pytest.fixture()
def products(monkeypatch):
    """How many times any basis computes its product table."""
    prop = MFBasis.__dict__["_products"]
    count, func = [0], prop.func

    def counting(self):
        count[0] += 1
        return func(self)

    monkeypatch.setattr(prop, "func", counting)
    return count


class TestFixed:
    def test_one_guard_serves_every_value(self):
        for cls in (MFTensor, MFBasis, MPOTensor):
            assert issubclass(cls, Fixed)
            assert all("__setattr__" not in vars(k) for k in cls.__mro__ if k not in (Fixed, object))

    def test_basis_attributes_are_set_once(self, wh2):
        b = _bare(wh2)
        for name in ("dim", "elements", "labels", "_conj_vecs", "cocycle", "is_group", "identity_index",
                     "_products", "_images"):
            with pytest.raises(AttributeError):
                setattr(b, name, getattr(b, name))

    def test_elements_and_labels_are_read_only(self, wh2):
        b = _bare(wh2)
        assert isinstance(b.elements, tuple) and isinstance(b.labels, tuple)
        with pytest.raises(TypeError):
            b.elements[0] = b.elements[1]
        with pytest.raises(ValueError):
            b.elements[0][0, 0] = 2

    def test_derived_facts_refuse_assignment_before_first_use(self, wh2):
        b = _bare(wh2)
        for name, value in (("cocycle", None), ("_products", None), ("_identity", 3), ("_images", {})):
            with pytest.raises(AttributeError):
                setattr(b, name, value)
        assert b.is_group and b.identity_index == 0 and b.transpose_table()

    def test_mpo_attributes_are_set_once(self, wh2):
        O = controlled_pauli_mpo(wh2)
        for name in ("tensor", "basis", "constraints"):
            with pytest.raises(AttributeError):
                setattr(O, name, getattr(O, name))


class TestGroupFactsFromElements:
    def test_a_bare_group_basis_composes(self, wh2):
        b = composite_basis(_bare(wh2), wh2)
        assert b.dim == 4 and b.is_group

    def test_bare_copy_has_the_constructor_facts(self, wh3):
        b = _bare(wh3)
        assert b.is_group
        np.testing.assert_allclose(b.cocycle.phases, wh3.cocycle.phases, rtol=0, atol=1e-13)

    def test_require_abelian_only_reads(self, wh2):
        b = _bare(wh2)
        require_abelian(b)
        assert b.is_group and b.cocycle is not None
        with pytest.raises(NonGroupBasisError):
            require_abelian(_non_group_basis())

    def test_json_round_trip_derives_the_facts(self, wh3):
        b = MFBasis.from_json(wh3.to_json())
        assert b.is_group
        np.testing.assert_allclose(b.cocycle.phases, wh3.cocycle.phases, rtol=0, atol=1e-13)

    def test_nothing_is_derived_while_building(self, products, wh2):
        b = _bare(wh2)
        _non_group_basis()
        assert products[0] == 0
        assert not {"_products", "cocycle", "_identity", "_images"} & set(vars(b))

    def test_a_non_group_basis_computes_its_products_once(self, products):
        b = _non_group_basis()
        for _ in range(3):
            with pytest.raises(NonGroupBasisError):
                b.product_table()
            with pytest.raises(NonGroupBasisError):
                b.compose((0, 1), (1, 1))
            assert not b.is_group
            assert b.cocycle is None
        assert products[0] == 1

    def test_a_group_basis_computes_its_products_once(self, products, wh2):
        b = _bare(wh2)
        for _ in range(3):
            b.product_table()
            b.compose((1, 1), (2, 1))
            assert b.is_group and b.cocycle is not None
        assert products[0] == 1

    @pytest.mark.parametrize("make", [lambda b: b, lambda b: _non_group_basis()], ids=["wh3", "latin5-non-group"])
    def test_image_tables_match_resolve(self, wh3, make):
        b = make(wh3)
        for table, image in ((b.dagger_table(), lambda p: p.conj().T), (b.conjugate_table(), np.conj),
                             (b.transpose_table(), np.transpose)):
            for j, p in enumerate(b.elements):
                hit = b.try_resolve(image(p))
                assert (j in table) == (hit is not None)
                if hit is not None:
                    assert table[j][0] == hit[0]
                    assert abs(table[j][1] - hit[1]) < 1e-12


def _lift_and_slice_bound(O):
    """Per constraint: ||U (I x P^T) - (U_P† x P'^T) U||_F and sqrt(sum_a ||A_a||^2 r_a^2), with
    U[(o, r), (a, l)] = O[o, a, l, r] assembled whether or not it is unitary; and ||U||_F."""
    arr = O.array()
    d, D = O.d, O.D
    u = arr.transpose(0, 3, 1, 2).reshape(d * D, d * D)
    slices = [O.slice_tensor(a) for a in range(d)]
    residuals = [check_mf_symmetry(s).residuals for s in slices]
    norms = [np.linalg.norm(arr[:, a]) for a in range(d)]
    pairs = []
    for k, c in enumerate(O.constraints):
        p, pp = O.basis.elements[c.p_in], O.basis.elements[c.p_out]
        lift = np.linalg.norm(u @ np.kron(np.eye(d), p.T) - np.kron(c.u_phys.conj().T, pp.T) @ u)
        bound = np.sqrt(sum((n * r[k]) ** 2 for n, r in zip(norms, residuals)))
        pairs.append((lift, bound))
    return pairs, np.linalg.norm(u)


class TestLiftIsTheSliceResidual:
    @pytest.fixture(params=["WH:2", "WH:3"])
    def fixture_mpo(self, request, wh2, wh3):
        return controlled_pauli_mpo(wh2 if request.param == "WH:2" else wh3)

    def _variants(self, O, rng):
        d = O.d
        yield O
        for _ in range(3):
            yield O.apply_phys_in(random_unitary(d, rng))
        v = random_unitary(d, rng)
        yield MPOTensor.from_array(np.einsum("po,oalr->palr", v, O.array()), O.basis, O.constraints)
        yield MPOTensor.from_array(O.array() + 1e-6 * random_complex(rng, *O.array().shape), O.basis,
                                   O.constraints)

    def test_lift_equals_the_slice_bound(self, fixture_mpo, rng):
        for O in self._variants(fixture_mpo, rng):
            pairs, u_norm = _lift_and_slice_bound(O)
            for lift, bound in pairs:
                assert abs(lift - bound) <= 1e-12 * u_norm + 1e-9 * bound

    def test_purification_is_the_assembled_u(self, fixture_mpo, rng):
        O = fixture_mpo.apply_phys_in(random_unitary(fixture_mpo.d, rng))
        want = O.array().transpose(0, 3, 1, 2).reshape(O.d * O.D, -1)
        np.testing.assert_array_equal(build_purifying_unitary(O).data, want)

    def test_a_twisted_mpo_is_still_refused(self, fixture_mpo, rng):
        v = random_unitary(fixture_mpo.d, rng)
        twisted = MPOTensor.from_array(np.einsum("po,oalr->palr", v, fixture_mpo.array()),
                                       fixture_mpo.basis, fixture_mpo.constraints)
        assert max(lift for lift, _ in _lift_and_slice_bound(twisted)[0]) > 1e-3
        with pytest.raises(SymmetryError):
            build_purifying_unitary(twisted)

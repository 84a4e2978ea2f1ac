"""Property-based invariants over randomized inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mftn.basis import weyl_heisenberg_basis
from mftn.clifford import PauliVector
from mftn.fixtures import controlled_pauli_mpo
from mftn.mps import spt_solution
from mftn.peps import transfer_spectrum_analytic
from mftn.protocol import enumerate_outcomes
from mftn.tensors import random_unitary
from oracles import periodic_mpo_accounting

WH2 = weyl_heisenberg_basis(2)
WH3 = weyl_heisenberg_basis(3)

finite = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


@st.composite
def complex_vectors(draw, n):
    re = draw(st.lists(finite, min_size=n, max_size=n))
    im = draw(st.lists(finite, min_size=n, max_size=n))
    return np.array(re) + 1j * np.array(im)


@settings(max_examples=60, deadline=None)
@given(alpha=complex_vectors(4))
def test_cauchy_schwarz_bound_wh2(alpha):
    # |e_{P_i}| <= sum_j |alpha_j|^2 for every coefficient vector
    spec = transfer_spectrum_analytic(alpha, WH2, 1)
    bound = float(np.sum(np.abs(alpha) ** 2))
    assert np.all(np.abs(spec.e_values) <= bound + 1e-9)


@settings(max_examples=25, deadline=None)
@given(alpha=complex_vectors(9))
def test_cauchy_schwarz_bound_wh3(alpha):
    spec = transfer_spectrum_analytic(alpha, WH3, 1)
    bound = float(np.sum(np.abs(alpha) ** 2))
    assert np.all(np.abs(spec.e_values) <= bound + 1e-9)


@settings(max_examples=40, deadline=None)
@given(j=st.integers(0, 8), k=st.integers(0, 8))
def test_cocycle_antisymmetry_wh3(j, k):
    t = WH3.cocycle
    assert abs(t.omega(j, k) * t.omega(k, j) - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    va=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    wa=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    vb=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    wb=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    pa=st.integers(0, 5),
    pb=st.integers(0, 5),
)
def test_pauli_composition_is_projective_homomorphism(d, va, wa, vb, wb, pa, pb):
    a = PauliVector(2, d, va, wa, pa)
    b = PauliVector(2, d, vb, wb, pb)
    np.testing.assert_allclose(a.matrix() @ b.matrix(), a.compose(b).matrix(), atol=1e-10)
    # commutation exponent matches the matrix-level commutator phase
    c = a.commutation_exponent(b)
    lhs = a.matrix() @ b.matrix()
    rhs = np.exp(2j * np.pi * c / d) * b.matrix() @ a.matrix()
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


CP_MPO = controlled_pauli_mpo(WH2)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sites=st.integers(1, 3))
def test_periodic_mpo_born_weights_sum_to_one(seed, sites):
    # a random member of the controlled-Pauli family on a random input
    rng = np.random.default_rng(seed)
    member = CP_MPO.apply_phys_in(random_unitary(CP_MPO.d, rng))
    psi = rng.standard_normal(4**sites) + 1j * rng.standard_normal(4**sites)
    report = periodic_mpo_accounting([member] * sites, psi)
    assert abs(sum(report.probabilities) - 1) < 1e-12


@settings(max_examples=10, deadline=None)
@given(alpha=complex_vectors(4).filter(lambda a: a.any()), sites=st.integers(2, 3),
       boundary=st.sampled_from(["open", "periodic"]))
def test_spt_chain_born_weights_sum_to_one(alpha, sites, boundary):
    report = enumerate_outcomes([spt_solution(WH2, alpha)] * sites, boundary)
    assert abs(sum(report.probabilities) - 1) < 1e-12

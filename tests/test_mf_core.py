"""The shared MF-tensor core against the explicit Kronecker formulas it replaced.

MPS and PEPS tensors compute their symmetry residuals, commutants, push
tables, polar splits and sideways Clifford forms through one implementation
(``mps.symmetry_report``, ``polar_structure``, ``solve_pushes`` and
``clifford_form``).  The references below spell each quantity out with
``np.kron`` for the two-leg and the four-leg case separately, as the
per-geometry code did, and are checked on random coefficient vectors alpha.
The Clifford forms are also checked to be independent of the scale of Q.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mftn.basis import shift_clock, weyl_heisenberg_basis
from mftn.mps import (
    apply_leg_ops,
    check_mf_symmetry,
    clifford_magic_decompose,
    correction_consistency,
    leg_operator,
    split_polar,
    spt_solution,
)
from mftn.peps import check_peps_mf_symmetry, peps_split_polar, topo_solution
from mftn.protocol import ORIENTATIONS, solve_push_table
from mftn.tensors import DEFAULT_TOL

WH2 = weyl_heisenberg_basis(2)
WH3 = weyl_heisenberg_basis(3)
TOL = 1e-12

# zero, or a magnitude whose square is a normal double, so that norms of Q do not underflow
component = st.one_of(st.just(0.0), st.floats(1e-100, 2), st.floats(-2, -1e-100))


@st.composite
def alphas(draw, n):
    re = np.array(draw(st.lists(component, min_size=n, max_size=n)))
    im = np.array(draw(st.lists(component, min_size=n, max_size=n)))
    alpha = re + 1j * im
    if not alpha.any():
        alpha[0] = 1.0
    return alpha


def relative(x, scale):
    return float(np.linalg.norm(x)) / max(np.linalg.norm(scale), 1e-300)


# -- references: the explicit per-geometry formulas ------------------------


def mps_residuals(A):
    """||U_P B (P^T x I) - B (I x P')|| / ||B|| per constraint."""
    b, eye, el = A.as_matrix(), np.eye(A.D), A.basis.elements
    return [relative(c.u_phys @ b @ np.kron(el[c.p_in].T, eye) - b @ np.kron(eye, el[c.p_out]), b)
            for c in A.constraints]


def mps_commutants(A):
    el = A.basis.elements
    return [np.kron(el[c.p_in].conj(), el[c.p_out]) for c in A.constraints]


def slot_operator(D, slot, m):
    ops = [np.eye(D)] * 4
    ops[slot] = m
    return functools.reduce(np.kron, ops)


def peps_out_operator(basis, slots, images):
    """P_{images[0]} on slots[0] times P_{images[1]} on slots[1]."""
    D, el = basis.dim, basis.elements
    return slot_operator(D, slots[0], el[images[0]]) @ slot_operator(D, slots[1], el[images[1]])


def peps_residuals(A):
    """A-type (in on left), then B-type (in on down) residuals."""
    b, el = A.as_matrix(), A.basis.elements
    out = []
    for slot, constraints in ((0, A.constraints_a), (3, A.constraints_b)):
        for c in constraints:
            lhs = c.u_phys @ b @ slot_operator(A.D, slot, el[c.p_in].T)
            out.append(relative(lhs - b @ peps_out_operator(A.basis, (1, 2), (c.out_up, c.out_right)), b))
    return out


def peps_commutants(A):
    """P^* x P1 x P2 x I (A-type) and I x P1 x P2 x P^* (B-type)."""
    el, eye = A.basis.elements, np.eye(A.D)
    a = [np.kron(np.kron(el[c.p_in].conj(), el[c.out_up]), np.kron(el[c.out_right], eye))
         for c in A.constraints_a]
    b = [np.kron(np.kron(eye, el[c.out_up]), np.kron(el[c.out_right], el[c.p_in].conj()))
         for c in A.constraints_b]
    return a, b


def push_scan(A, in_slot, in_mats, out_slots, tol):
    """Per incoming matrix: the first (P1, P2) with a Procrustes unitary U
    fitting U b (m on in_slot) = b (P1 on out1)(P2 on out2), single-leg pushes
    first; None when nothing fits."""
    b = A.as_matrix()
    n, ident = len(A.basis.elements), A.basis.identity_index
    pairs = sorted(itertools.product(range(n), range(n)),
                   key=lambda p: (p[0] != ident) + (p[1] != ident))
    table = []
    for m in in_mats:
        lhs = b @ slot_operator(A.D, in_slot, m)
        hit = None
        for pair in pairs:
            target = b @ peps_out_operator(A.basis, out_slots, pair)
            u, _, wh = np.linalg.svd(target @ lhs.conj().T)
            if np.linalg.norm(u @ wh @ lhs - target) < tol * np.linalg.norm(b):
                hit = (pair, u @ wh)
                break
        table.append(hit)
    return table


def commutant_residuals(q, ops):
    return [relative(q @ s - s @ q, q) for s in ops]


def check_polar(split, b):
    """Q = (B† B)^{1/2}, V Q = B, R = V† V the projector onto range(Q)."""
    evals, evecs = np.linalg.eigh(b.conj().T @ b)
    q = (evecs * np.sqrt(np.clip(evals, 0, None))) @ evecs.conj().T
    np.testing.assert_allclose(split.Q, q, atol=1e-6 * max(np.linalg.norm(q), 1))
    assert relative(split.V @ split.Q - b, split.Q) == pytest.approx(split.reconstruction_residual, abs=TOL)
    assert split.reconstruction_residual < 1e-12
    np.testing.assert_allclose(split.R @ split.R, split.R, atol=1e-9)
    np.testing.assert_allclose(split.R @ split.Q, split.Q, atol=1e-9 * max(np.linalg.norm(q), 1))
    s = np.linalg.svd(b, compute_uv=False)
    assert split.rank == int(np.sum(s > 1e-9 * s[0]))
    assert split.null_space_match


def check_generator_images(form, basis, wire_images, n_inner):
    """U_C (S on a wire) U_C† equals the explicit push image of S for S in {X, Z}."""
    D = basis.dim
    width = n_inner + len(wire_images)
    assert form.u_c.shape == (D**width, D**width)
    for wire, image_of in wire_images:
        for gen in shift_clock(D):
            ops = [np.eye(D)] * width
            ops[wire] = gen
            source = functools.reduce(np.kron, ops)
            got = form.u_c @ source @ form.u_c.conj().T
            np.testing.assert_allclose(got, image_of(gen), atol=1e-9)


# -- MPS: the two-leg case -------------------------------------------------


@pytest.mark.parametrize("basis,examples", [(WH2, 8), (WH3, 4)], ids=["WH2", "WH3"])
def test_spt_core_matches_kron_formulas(basis, examples):
    @settings(max_examples=examples, deadline=None)
    @given(alpha=alphas(len(basis.elements)))
    def check(alpha):
        A = spt_solution(basis, alpha)
        rep = check_mf_symmetry(A)
        np.testing.assert_allclose(rep.residuals, mps_residuals(A), atol=TOL)
        assert rep.passed

        split = split_polar(A)
        check_polar(split, A.as_matrix())
        np.testing.assert_allclose(split.commutant_residuals,
                                   commutant_residuals(split.Q, mps_commutants(A)), atol=TOL)
        corr = correction_consistency(split)
        want = [np.linalg.norm(split.V.conj().T @ c.u_phys @ split.V - s @ split.R)
                for c, s in zip(A.constraints, mps_commutants(A))]
        np.testing.assert_allclose(corr.residuals, want, atol=1e-10)

        form = clifford_magic_decompose(split, basis)
        assert form.reconstruction_residual < 1e-9
        el = basis.elements

        def image_of(gen):
            # the SPT push of S^T = P leaves P on the right leg: S x P^† x P^T
            p = el[basis.resolve(gen.T)[0]]
            return np.kron(gen, np.kron(p.conj().T, p.T))

        check_generator_images(form, basis, [(2, image_of)], 2)

    check()


# -- PEPS: the four-leg case -----------------------------------------------


def check_push_tables(A, orientations):
    el, t = A.basis.elements, DEFAULT_TOL
    for slot, constraints in ((0, A.constraints_a), (3, A.constraints_b)):
        want = push_scan(A, slot, [p.T for p in el], (1, 2), t)
        assert [(c.out_up, c.out_right) for c in constraints] == [w[0] for w in want]
        for c, (_, u) in zip(constraints, want):
            np.testing.assert_allclose(c.u_phys, u, atol=1e-9)
    for in_slots, out_slots in (ORIENTATIONS[o] for o in orientations):
        for in_slot in in_slots:
            table = solve_push_table(A, in_slot, out_slots)
            want = push_scan(A, in_slot, [p.T for p in el], out_slots, t)
            assert [table[k][1:] for k in range(len(el))] == [w[0] for w in want]
            for k, (_, u) in enumerate(want):
                np.testing.assert_allclose(table[k][0], u, atol=1e-9)


def check_peps_core(A, orientations):
    rep = check_peps_mf_symmetry(A)
    np.testing.assert_allclose(rep.residuals, peps_residuals(A), atol=TOL)
    assert rep.passed
    check_push_tables(A, orientations)


@settings(max_examples=3, deadline=None)
@given(alpha=alphas(4))
# a push that ignores the 1e-8 part fits within 1e-8 but fails the 1e-9 symmetry check
@example(alpha=np.array([0, 1e-8j, 2j, 0]))
def test_topo_core_matches_kron_formulas_wh2(alpha):
    A = topo_solution(WH2, alpha)
    check_peps_core(A, ORIENTATIONS)
    split = peps_split_polar(A)
    check_polar(split, A.as_matrix())
    ref_a, ref_b = peps_commutants(A)
    np.testing.assert_allclose(split.commutant_residuals, commutant_residuals(split.Q, ref_a + ref_b), atol=TOL)
    assert split.clifford is not None, split.clifford_error
    assert split.clifford.reconstruction_residual < 1e-9
    el = WH2.elements

    def image(kind):
        def image_of(gen):
            # the push of S^T entering on the left (A) or down (B) leg
            c = next(c for c in (A.constraints_a if kind == "a" else A.constraints_b)
                     if c.p_in == WH2.resolve(gen.T)[0])
            p1, p2 = el[c.out_up], el[c.out_right]
            inner = [np.eye(2)] * 4
            inner[0 if kind == "a" else 3] = gen
            inner[1:3] = [p1.conj().T, p2.conj().T]
            return np.kron(functools.reduce(np.kron, inner), np.kron(p1.T, p2.T))
        return image_of

    check_generator_images(split.clifford, WH2, [(4, image("a")), (5, image("b"))], 4)


@settings(max_examples=2, deadline=None)
@given(alpha=alphas(9))
def test_topo_core_matches_kron_formulas_wh3(alpha):
    A = topo_solution(WH3, alpha)
    check_peps_core(A, ["ur"])
    split = peps_split_polar(A)
    check_polar(split, A.as_matrix())
    ref_a, ref_b = peps_commutants(A)
    np.testing.assert_allclose(split.commutant_residuals, commutant_residuals(split.Q, ref_a + ref_b), atol=TOL)


@pytest.mark.parametrize("scale", [1e-13, 1e-150])
def test_clifford_forms_do_not_depend_on_the_scale_of_q(scale):
    alpha = np.array([1, 0.3, 0.2j, 0.5])
    for make, form_of in (
        (spt_solution, lambda A: clifford_magic_decompose(split_polar(A), WH2)),
        (topo_solution, lambda A: peps_split_polar(A).clifford),
    ):
        want, got = form_of(make(WH2, alpha)), form_of(make(WH2, scale * alpha))
        assert got is not None and got.reconstruction_residual < 1e-9
        np.testing.assert_allclose(got.u_c, want.u_c, atol=1e-12)
        np.testing.assert_allclose(got.psi, want.psi, atol=1e-12)
        assert got.scale == pytest.approx(scale * want.scale, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=4), rows=st.integers(1, 5),
       picks=st.sets(st.integers(0, 3)), seed=st.integers(0, 2**32 - 1))
def test_apply_leg_ops_equals_the_kronecker_product(dims, rows, picks, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(rows, int(np.prod(dims)))) + 1j * rng.normal(size=(rows, int(np.prod(dims))))
    ops = {k: rng.normal(size=(dims[k],) * 2) + 1j * rng.normal(size=(dims[k],) * 2)
           for k in sorted(picks) if k < len(dims)}
    want = b @ leg_operator(dims, ops)
    np.testing.assert_allclose(apply_leg_ops(b, dims, ops), want, atol=1e-12 * max(np.abs(want).max(), 1))

"""One tolerance policy: every bound is a named module-level constant of
``mftn.tensors``, and every unitarity or isometry residual is
``isometry_residual``, compared against ``UNITARY_INPUT_BOUND`` (inputs) or
``VERDICT_FLOOR`` (verdicts)."""

import ast
from pathlib import Path

import numpy as np
import pytest

from mftn.basis import CocycleTable, MFBasis, weyl_heisenberg_basis
from mftn.clifford import is_clifford
from mftn.errors import BasisError, SymmetryError
from mftn.fixtures import controlled_pauli_mpo
from mftn.mpo import MPOTensor, relative_local_unitary
from mftn.mps import Push, SymmetryConstraint
from mftn.tensors import DEFAULT_TOL, UNITARY_INPUT_BOUND, isometry_residual, random_unitary

from conftest import random_complex
from reference_tensors import hadamard_latin_basis

SRC = Path(__file__).resolve().parent.parent / "src" / "mftn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "tensors.py")


def _has_eye(node):
    return any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "eye" for n in ast.walk(node))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_threshold_outside_tensors(path):
    """A small float appears only as the value of a module-level named constant of tensors.py."""
    tree = ast.parse(path.read_text())
    named = {id(node.value) for node in tree.body if path.name == "tensors.py"
             and isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets)}
    small = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < node.value < 1e-3
             and id(node) not in named]
    assert small == [], f"bare thresholds at lines {small}: name them in mftn.tensors"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_implicit_rtol(path):
    """np.allclose and np.isclose add rtol = 1e-5 unless told otherwise, widening a named atol."""
    tree = ast.parse(path.read_text())
    implicit = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("allclose", "isclose")
                and not any(k.arg == "rtol" for k in node.keywords)]
    assert implicit == [], f"np.allclose/np.isclose without rtol at lines {implicit}"


def test_cocycle_table_refuses_a_relative_error_above_its_bound(wh2):
    CocycleTable(4, wh2.cocycle.phases * (1 + 0.5 * DEFAULT_TOL))
    with pytest.raises(BasisError, match="unit modulus"):
        CocycleTable(4, wh2.cocycle.phases * (1 + 1e-6))


def test_relative_unitary_refuses_constraints_rotated_by_more_than_tol(wh2):
    O = controlled_pauli_mpo(wh2)
    rotated = [SymmetryConstraint(c.p_in, np.exp(1e-6j) * c.u_phys, c.p_out) for c in O.constraints]
    with pytest.raises(SymmetryError, match="identical constraint sets"):
        relative_local_unitary(O, MPOTensor(O.tensor, wh2, rotated))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_written_unitarity_residual(path):
    tree = ast.parse(path.read_text())
    residuals = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and _has_eye(node.right)
                 and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.MatMult)]
    assert residuals == [], f"product minus identity at lines {residuals}: call isometry_residual"


class TestIsometryResidual:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_square_equals_the_u_u_dagger_form(self, rng, n):
        for m in (random_complex(rng, n, n), random_unitary(n, rng) + 1e-6 * random_complex(rng, n, n)):
            old = np.linalg.norm(m @ m.conj().T - np.eye(n)) / n
            assert isometry_residual(m) == pytest.approx(old, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("rows, cols", [(4, 2), (8, 2), (12, 3)])
    def test_tall_equals_the_slice_form(self, rng, rows, cols):
        m = random_complex(rng, rows, cols)
        old = np.linalg.norm(m.conj().T @ m - np.eye(cols)) / cols
        assert isometry_residual(m) == pytest.approx(old, rel=1e-12)
        q = np.linalg.qr(m)[0]
        assert isometry_residual(q) < 1e-15

    def test_hadamard_form(self, rng):
        h = np.exp(2j * np.pi * rng.random((3, 3)))
        old = np.linalg.norm(h @ h.conj().T - 3 * np.eye(3))
        assert isometry_residual(h / np.sqrt(3)) * 3**2 == pytest.approx(old, rel=1e-12)


def _scaled(u, resid):
    """c u for a unitary or isometry u, with c chosen so that isometry_residual(c u) = resid."""
    n = u.shape[1]
    return np.sqrt(1 + resid * np.sqrt(n)) * u


def _push(resid):
    Push(0, _scaled(np.eye(3, dtype=complex), resid))


def _range_factors(resid, scaled):
    """A unitary 3 x 3 block and an orthonormal 5 x 3 range basis, the ``scaled`` one scaled so that
    the factored residual of I + L (U_r - I) L†, (||U_r† U_r - I||_F + ||L† L - I||_F) / 5, is resid."""
    rng = np.random.default_rng(3)
    factors = {"block": random_unitary(3, rng), "range_basis": np.linalg.qr(random_complex(rng, 5, 3))[0]}
    factors[scaled] = _scaled(factors[scaled], resid * 5 / 3)
    return factors


def _range_push_block(resid):
    Push(0, **_range_factors(resid, "block"))


def _range_push_basis(resid):
    Push(0, **_range_factors(resid, "range_basis"))


@pytest.mark.parametrize("resid", [1e-9, 0.5 * UNITARY_INPUT_BOUND])
def test_a_range_push_residual_with_an_orthonormal_basis_is_the_dense_views(resid):
    push = Push(0, **_range_factors(resid, "block"))
    assert isometry_residual(push.u_phys) == pytest.approx(resid, rel=1e-6)


def _basis_element(resid):
    # scaling one element by c moves its residual |c^2 - 1| / sqrt(D), the completeness map's by / D^2
    wh = weyl_heisenberg_basis(2)
    elements = list(wh.elements)
    elements[1] = _scaled(elements[1], resid)
    MFBasis(2, elements)


def _basis_completeness(resid):
    # X -> cos t X + i sin t I stays unitary and overlaps I by i sin t: residual sqrt(2) |sin t| / 4
    wh = weyl_heisenberg_basis(2)
    elements = list(wh.elements)
    k, t = wh.index("X"), np.arcsin(resid * 4 / np.sqrt(2))
    elements[k] = np.cos(t) * elements[k] + 1j * np.sin(t) * np.eye(2)
    assert isometry_residual(elements[k]) < 1e-15
    MFBasis(2, elements)


def _hadamard(resid):
    # unit-modulus entries with ||H H† - 2 I|| / 2 = sqrt(2) |sin(phi / 2)|, held to the bound as before
    phi = 2 * np.arcsin(resid / np.sqrt(2))
    h = np.array([[1, 1], [1, -np.exp(1j * phi)]])
    hadamard_latin_basis([h, h], np.array([[0, 1], [1, 0]]))


def _clifford_input(resid):
    is_clifford(_scaled(np.eye(4, dtype=complex), resid), 2, 2)


# check(r) builds an input at r on the scale of the check as it was written before isometry_residual,
# ||U U† - I|| / n > 1e-7 (||H H† - D I|| / D for a Hadamard matrix); the error is what it raises
INPUT_CHECKS = {
    "push": (_push, ValueError),
    "range_push_block": (_range_push_block, ValueError),
    "range_push_basis": (_range_push_basis, ValueError),
    "basis_element": (_basis_element, BasisError),
    "basis_completeness": (_basis_completeness, BasisError),
    "hadamard": (_hadamard, BasisError),
    "is_clifford": (_clifford_input, ValueError),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_checks_refuse_just_above_their_bound(name):
    check, error = INPUT_CHECKS[name]
    check(0.99 * UNITARY_INPUT_BOUND)
    with pytest.raises(error, match="unitary|H H"):
        check(1.01 * UNITARY_INPUT_BOUND)

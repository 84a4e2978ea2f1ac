"""One tolerance policy: every bound lives in ``mftn.tensors``, and every
unitarity or isometry residual is ``isometry_residual``, compared against
``UNITARY_INPUT_BOUND`` (inputs) or ``VERDICT_FLOOR`` (verdicts)."""

import ast
from pathlib import Path

import numpy as np
import pytest

from mftn.basis import MFBasis, hadamard_latin_basis, weyl_heisenberg_basis
from mftn.clifford import is_clifford
from mftn.errors import BasisError
from mftn.mps import Push
from mftn.tensors import UNITARY_INPUT_BOUND, isometry_residual, random_unitary

from conftest import random_complex

SRC = Path(__file__).resolve().parent.parent / "src" / "mftn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "tensors.py")


def _has_eye(node):
    return any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "eye" for n in ast.walk(node))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_threshold_outside_tensors(path):
    tree = ast.parse(path.read_text())
    small = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < node.value < 1e-3]
    assert small == [], f"bare thresholds at lines {small}: name them in mftn.tensors"


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
    """c u for a unitary u, with c chosen so that isometry_residual(c u) = resid."""
    n = len(u)
    return np.sqrt(1 + resid * np.sqrt(n)) * u


def _push(resid):
    Push(0, _scaled(np.eye(3, dtype=complex), resid))


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

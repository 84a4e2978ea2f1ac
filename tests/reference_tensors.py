"""Reference tensors and bases that only the tests build.

The copy-tensor families, the AKLT, GHZ and interpolated coefficient
vectors, the Bell map, and Hadamard/Latin-square bases with the Fourier
matrix that makes their Hadamard rows.
"""

import numpy as np

from mftn.basis import MFBasis, weyl_heisenberg_basis
from mftn.errors import BasisError
from mftn.mps import MPSTensor, SymmetryConstraint
from mftn.tensors import DEFAULT_TOL, UNITARY_INPUT_BOUND, DenseTensor, isometry_residual


def copy_tensor(basis: MFBasis | None = None, alpha: complex = 0.0) -> MPSTensor:
    """Copy tensor plus alpha * (|+> deposit), the first solvable family."""
    basis = basis or weyl_heisenberg_basis(2)
    term = alpha / np.sqrt(2)
    mats = [np.diag([1.0, 0.0]) + term * np.eye(2), np.diag([0.0, 1.0]) + term * np.eye(2)]
    x = basis.element("X")
    z = basis.element("Z")
    i2 = np.eye(2)
    constraints = [
        SymmetryConstraint(basis.index("X"), x, basis.index("X")),
        SymmetryConstraint(basis.index("Z"), i2, basis.index("Z")),
    ]
    return MPSTensor.from_site_matrices(mats, basis, constraints)


def copy_h_tensor(basis: MFBasis | None = None, alpha: complex = 0.0) -> MPSTensor:
    """Copy-then-Hadamard plus alpha * bend |0>, the non-bijective family."""
    basis = basis or weyl_heisenberg_basis(2)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    mats = []
    for i in range(2):
        ei = np.zeros((2, 2), dtype=complex)
        ei[i] = h[i]
        bend = np.zeros((2, 2), dtype=complex)
        bend[i, 0] = 1.0
        mats.append(ei + alpha * bend)
    constraints = [
        SymmetryConstraint(basis.index("X"), basis.element("X"), basis.index("Z")),
        SymmetryConstraint(basis.index("Z"), basis.element("Z"), basis.index("I")),
    ]
    return MPSTensor.from_site_matrices(mats, basis, constraints)


def aklt_alpha(basis: MFBasis) -> np.ndarray:
    """Coefficients (3, -1, -1, -1) over (I, X, Y, Z) in basis label order."""
    alpha = np.empty(len(basis.elements), dtype=complex)
    for k, lab in enumerate(basis.labels):
        alpha[k] = 3.0 if lab == "I" else -1.0
    return alpha


def ghz_alpha(basis: MFBasis) -> np.ndarray:
    """Indicator of the Z-power subgroup (including the identity)."""
    alpha = np.zeros(len(basis.elements), dtype=complex)
    for k, lab in enumerate(basis.labels):
        if lab == "I" or lab.startswith("Z"):
            alpha[k] = 1.0
    return alpha


def interpolated_alpha(basis: MFBasis, a: float) -> np.ndarray:
    """alpha = 1 on {I, X} and a on {Y, Z} for the qubit Weyl-Heisenberg basis."""
    alpha = np.zeros(4, dtype=complex)
    alpha[basis.index("I")] = 1.0
    alpha[basis.index("X")] = 1.0
    alpha[basis.index("XZ")] = a
    alpha[basis.index("Z")] = a
    return alpha


def bell_map_tensor(D: int) -> DenseTensor:
    """Map |i> -> sum_ab (P_i)_ab |a b> / sqrt(D) as a three-leg tensor."""
    basis = weyl_heisenberg_basis(D)
    data = np.stack([p / np.sqrt(D) for p in basis.elements])
    return DenseTensor(data, ("label", "a", "b"))


def hadamard_latin_basis(H: list[np.ndarray], lam: np.ndarray) -> MFBasis:
    """Basis U_{ij}|k> = H^j_{ik} |lam(j,k)> from Hadamard matrices and a Latin square."""
    lam = np.asarray(lam, dtype=int)
    D = MFBasis.guard_dim(lam.shape[0])
    if lam.shape != (D, D):
        raise BasisError("Latin square must be D x D")
    for row in lam:
        if sorted(row.tolist()) != list(range(D)):
            raise BasisError("Latin square rows must be permutations of 0..D-1")
    for col in lam.T:
        if sorted(col.tolist()) != list(range(D)):
            raise BasisError("Latin square columns must be permutations of 0..D-1")
    if len(H) != D:
        raise BasisError("need one Hadamard matrix per row index j")
    for h in H:
        h = np.asarray(h)
        if h.shape != (D, D) or not np.allclose(np.abs(h), 1.0, rtol=0, atol=DEFAULT_TOL):
            raise BasisError("Hadamard entries must all have unit modulus")
        # H / sqrt(D) unitary to UNITARY_INPUT_BOUND / D keeps ||H H† - D I|| within UNITARY_INPUT_BOUND x D
        if isometry_residual(h / np.sqrt(D)) > UNITARY_INPUT_BOUND / D:
            raise BasisError("H H† must equal D * identity")
    elements, labels = [], []
    for i in range(D):
        for j in range(D):
            u = np.zeros((D, D), dtype=np.complex128)
            for k in range(D):
                u[lam[j, k], k] = H[j][i, k]
            elements.append(u)
            labels.append(f"U[{i},{j}]")
    return MFBasis(D, elements, labels=labels)



def fourier_matrix(D: int) -> np.ndarray:
    """DFT matrix scaled to the |entries| = 1 Hadamard convention."""
    a = np.arange(D)
    return np.exp(2j * np.pi * np.outer(a, a) / D)

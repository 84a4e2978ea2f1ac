"""Reference tensors the CLI names: the AKLT and cluster chains, and the
controlled-Pauli MPO.

The AKLT conventions are fixed here once: physical basis order
(|+1>, |0>, |-1>), triplet |T> = (|01> + |10>)/sqrt(2), singlet
|S> = (|01> - |10>)/sqrt(2), virtual pair flattened row-major.
"""

from __future__ import annotations

import numpy as np

from .basis import MFBasis, weyl_heisenberg_basis
from .mpo import MPOTensor
from .mps import MPSTensor, SymmetryConstraint, solve_pushes
from .tensors import DEFAULT_TOL


def aklt_tensor(basis: MFBasis | None = None) -> MPSTensor:
    """AKLT site tensor A = V on span{|00>, |T>, |11>} with its corrections.

    A^{+1} = |1><1|, A^0 = (|0><1| + |1><0|)/sqrt(2), A^{-1} = |0><0|; the
    corrections are U_I, U_X, U_Y, U_Z acting on (|+1>, |0>, |-1>).
    """
    basis = basis or weyl_heisenberg_basis(2)
    s2 = 1 / np.sqrt(2)
    mats = [
        np.array([[0, 0], [0, 1]], dtype=complex),
        np.array([[0, s2], [s2, 0]], dtype=complex),
        np.array([[1, 0], [0, 0]], dtype=complex),
    ]
    u_i = np.eye(3, dtype=complex)
    u_x = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    u_y = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
    u_z = np.diag([1.0, -1.0, 1.0]).astype(complex)
    constraints = [
        SymmetryConstraint(basis.index("I"), u_i, basis.index("I")),
        SymmetryConstraint(basis.index("X"), u_x, basis.index("X")),
        SymmetryConstraint(basis.index("XZ"), u_y, basis.index("XZ")),
        SymmetryConstraint(basis.index("Z"), u_z, basis.index("Z")),
    ]
    return MPSTensor.from_site_matrices(mats, basis, constraints)


def cluster_tensor(basis: MFBasis | None = None) -> MPSTensor:
    """Cluster-state tensor A^0 = |+><0|, A^1 = |-><1| with X <-> Z transport."""
    basis = basis or weyl_heisenberg_basis(2)
    s2 = 1 / np.sqrt(2)
    plus = np.array([s2, s2])
    minus = np.array([s2, -s2])
    mats = [np.outer(plus, [1, 0]), np.outer(minus, [0, 1])]
    constraints = [
        SymmetryConstraint(basis.index("X"), np.eye(2), basis.index("Z")),
        SymmetryConstraint(basis.index("Z"), basis.element("X"), basis.index("X")),
    ]
    return MPSTensor.from_site_matrices(mats, basis, constraints)


def controlled_pauli_mpo(basis: MFBasis):
    """MPO U = sum_a |a><a| x P_a sliced into tensors O^{(o,a)}_{lr} = d_oa (P_a)_{rl}.

    The push-through corrections are diagonal phase gates, solved here by the
    one push search on the o x (a, l, r) flattening, with P^T on l and the
    pushed element on r.
    """
    D = basis.dim
    d = D * D
    arr = np.zeros((d, d, D, D), dtype=complex)
    for a, p in enumerate(basis.elements):
        arr[a, a] = p.T
    l, fits = solve_pushes(
        arr.reshape(d, d * D * D), basis, (d, D, D), 1, (2,), DEFAULT_TOL,
        lambda k: RuntimeError("controlled-Pauli MPO misses a transport rule"),
    )
    constraints = [SymmetryConstraint(k, u, out, range_basis=l) for k, ((out,), u) in enumerate(fits)]
    return MPOTensor.from_array(arr, basis, constraints)

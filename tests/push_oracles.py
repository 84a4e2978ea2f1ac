"""The push searches and push residuals that the stacked, range-form ones replace.

``full_space_pushes`` fits one d x d Procrustes unitary on b (m on the
in-leg) per candidate target b (P_images on the out-legs), as
``mps.solve_pushes`` did before it moved its search into range(b).
``range_pushes`` is that range-reduced search one element and one
candidate at a time, with the dense U = L U_r L† + (I - L L†), as
``mps.solve_pushes`` did before it stacked its search.  The candidate order
and the absolute threshold ``tol * ||b||`` are the same in all three, so all
must pick the same image tuples and the same U b; the full-space U may
differ only off range(b).

``dense_push_residuals`` is ``MFTensor.push_residuals`` on the dense views,
one push at a time.
"""

import itertools

import numpy as np

from mftn.mps import apply_leg_ops
from mftn.tensors import procrustes_unitary


def first_unitary_fit(source: np.ndarray, candidates, tol: float):
    """First (key, U) with ||U @ source - target|| < tol, or None.

    ``candidates`` yields (key, target) pairs in preference order and may be
    lazy: targets after the first fit are never built.  U is the Procrustes
    unitary of each pair, and ``tol`` is an absolute Frobenius residual.
    """
    for key, target in candidates:
        u = procrustes_unitary(target, source)
        if np.linalg.norm(u @ source - target) < tol:
            return key, u
    return None


def _candidates(basis, out_legs):
    ident = basis.identity_index
    return sorted(
        itertools.product(range(len(basis.elements)), repeat=len(out_legs)),
        key=lambda images: sum(k != ident for k in images),
    )


def _fits(b, basis, dims, in_leg, in_mats, out_legs, tol, scale):
    fits = []
    for m in in_mats:
        targets = (
            (images, apply_leg_ops(b, dims, {leg: basis.elements[i] for leg, i in zip(out_legs, images)}))
            for images in _candidates(basis, out_legs)
        )
        fits.append(first_unitary_fit(apply_leg_ops(b, dims, {in_leg: m}), targets, tol * scale))
    return fits


def full_space_pushes(b, basis, dims, in_leg, in_mats, out_legs, tol):
    """[(images, U) or None] per incoming matrix, searched in the full space."""
    return _fits(b, basis, dims, in_leg, in_mats, out_legs, tol, max(np.linalg.norm(b), 1e-300))


def range_pushes(b, basis, dims, in_leg, out_legs, tol):
    """[(images, dense U) or None] per basis element P_k (P_k^T on the in-leg),
    searched one element and one candidate at a time on R = L† b."""
    scale = max(np.linalg.norm(b), 1e-300)
    l, s, _ = np.linalg.svd(b, full_matrices=False)
    l = l[:, : int(np.sum(s > s.max(initial=0.0) * max(b.shape) * np.finfo(s.dtype).eps))]
    off_range = np.eye(len(l)) - l @ l.conj().T
    fits = _fits(l.conj().T @ b, basis, dims, in_leg, [p.T for p in basis.elements], out_legs, tol, scale)
    return [None if f is None else (f[0], l @ f[1] @ l.conj().T + off_range) for f in fits]


def dense_push_residuals(A):
    """||U_P B W_in - B W_out|| / ||B|| per push, from each push's dense U."""
    b = A.as_matrix()
    scale = max(np.linalg.norm(b), 1e-300)
    dims, elements = (A.D,) * len(A.LEGS), A.basis.elements
    residuals = []
    for c, in_leg, outs in A.pushes():
        moved = apply_leg_ops(c.u_phys @ b, dims, {in_leg: elements[c.p_in].T})
        pushed = apply_leg_ops(b, dims, {leg: elements[k] for leg, k in outs.items()})
        residuals.append(float(np.linalg.norm(moved - pushed)) / scale)
    return residuals

"""The full-space push search: the oracle of the range-reduced one.

This fits one d x d Procrustes unitary on b (m on the in-leg) per candidate
target b (P_images on the out-legs), as ``mps.solve_pushes`` did before it
moved its search into range(b).  The candidate order and the absolute
threshold ``tol * ||b||`` are the same, so both must pick the same image
tuples and the same U b; U itself may differ only off range(b).
"""

import itertools

import numpy as np

from mftn.mps import apply_leg_ops
from mftn.tensors import first_unitary_fit


def full_space_pushes(b, basis, dims, in_leg, in_mats, out_legs, tol):
    """[(images, U) or None] per incoming matrix, searched in the full space."""
    scale = max(np.linalg.norm(b), 1e-300)
    ident = basis.identity_index
    candidates = sorted(
        itertools.product(range(len(basis.elements)), repeat=len(out_legs)),
        key=lambda images: sum(k != ident for k in images),
    )
    fits = []
    for m in in_mats:
        targets = (
            (images, apply_leg_ops(b, dims, {leg: basis.elements[i] for leg, i in zip(out_legs, images)}))
            for images in candidates
        )
        fits.append(first_unitary_fit(apply_leg_ops(b, dims, {in_leg: m}), targets, tol * scale))
    return fits

"""MF tensors, and MPS tensors among them: checking, solving, structure.

Conventions
-----------
An MF tensor has a physical leg and n virtual legs of the basis dimension D
(n = 2 for an MPS here, n = 4 for a PEPS in ``peps``), flattened to the
d x D^n matrix B with columns over its virtual legs in a fixed order.  A
push-through constraint (P, U_P, {P'_k}) moves the basis element P entering
on an in-leg onto the elements P'_k on the out-legs:

    U_P B W_in = B W_out,   W_in = P^T on the in-leg,  W_out = P'_k on out-leg k,

with identities on every other leg.  The polar split B = V Q then gives

    [Q, W_in† W_out] = 0,   W_in† W_out = P^* on the in-leg, P'_k on out-leg k,

and V† U_P V = (W_in† W_out) R with R = V† V the projector onto range(Q).
Read sideways, from the in-legs to the rows and out-legs of Q, Q is an
isometry V_Q = scale * U_C (psi x I) for a Clifford U_C fixed by the pushes
of the Weyl-Heisenberg generators.  One implementation of each of these
steps serves every n.

An MPS tensor A has legs (left, phys, right) of dimensions (D, d, D) and
B = A.matrix(["phys"], ["left", "right"]); defects enter on the left leg and
leave on the right one.  A constraint (P, U_P, P') states, per physical
index,

    sum_j (U_P)_{ij} P A^j = A^i P'      (A^j the D x D matrix at phys = j)

equivalently U_P B (P^T x I) = B (I x P'), so [Q, P^* x P'] = 0, and the
SPT-type analytic solution reads Q = sum_i alpha_i P_i^* x P_i.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import clifford as qc
from .basis import MFBasis, wh_generators
from .errors import (
    BoundaryError,
    DimensionMismatchError,
    NonGroupBasisError,
    NonPrimeDimensionError,
    SizeGuardError,
    SymmetryError,
)
from .tensors import (
    ALS_RESIDUAL_FLOOR,
    ALS_STEP_FLOOR,
    DEFAULT_TOL,
    MATCH_FLOOR,
    MAX_DENSE_ELEMENTS,
    NORM_GUARD,
    UNITARY_INPUT_BOUND,
    ZERO_FLOOR,
    DenseTensor,
    Fixed,
    fix_global_phase,
    gram_proportionality,
    isometry_residual,
    nullspace,
    numerical_rank,
    polar_nd,
    procrustes_unitary,
    proportionality,
    random_unitary,
)

# ---------------------------------------------------------------------------
# the MF-tensor core, for any number of virtual legs
# ---------------------------------------------------------------------------


def leg_operator(dims, ops: dict) -> np.ndarray:
    """ops[k] on leg k and the identity on every other leg of dimensions ``dims``."""
    return functools.reduce(np.kron, [ops[k] if k in ops else np.eye(n) for k, n in enumerate(dims)])


def apply_leg_ops(b, dims, ops: dict) -> np.ndarray:
    """b @ leg_operator(dims, ops), applying each op to its leg of b's columns
    instead of forming the Kronecker product; b may also be one tensor of
    shape ``dims``.  Ops act in the order of ``ops``."""
    t = b.reshape(-1, *dims)
    for k, m in ops.items():
        t = np.moveaxis(np.tensordot(t, m, axes=([k + 1], [0])), -1, k + 1)
    return t.reshape(b.shape)


def stacked_leg_ops(b, dims, ops: dict) -> np.ndarray:
    """``apply_leg_ops`` over a stack: each op is an (m, n, n) stack for its leg, b one
    (rows, cols) matrix or an (m, rows, cols) stack, and item k of the (m, rows, cols)
    result carries op[k] on every leg of ``ops``."""
    rows = b.shape[-2]
    t = b.reshape(-1, rows, *dims)
    for k, m in ops.items():
        t = np.moveaxis(t, k + 2, -1)
        t = np.moveaxis((t.reshape(len(t), -1, dims[k]) @ m).reshape(len(m), *t.shape[1:]), -1, k + 2)
    return t.reshape(-1, rows, b.shape[-1])


def push_operators(basis: MFBasis, n_legs: int, in_leg: int, p_in: int, outs: dict):
    """(W_in, W_out) of one push over n_legs virtual legs: P_in^T on in_leg and
    the basis element outs[k] on each out-leg k."""
    dims = (basis.dim,) * n_legs
    out_ops = {leg: basis.elements[k] for leg, k in outs.items()}
    return leg_operator(dims, {in_leg: basis.elements[p_in].T}), leg_operator(dims, out_ops)


def commutant(basis: MFBasis, n_legs: int, in_leg: int, p_in: int, outs: dict) -> np.ndarray:
    """W_in† W_out of one push: P_in^* on in_leg and outs[k] on each out-leg k."""
    ops = {leg: basis.elements[k] for leg, k in outs.items()}
    ops[in_leg] = basis.elements[p_in].conj()
    return leg_operator((basis.dim,) * n_legs, ops)


def range_unitary(l: np.ndarray, block: np.ndarray) -> np.ndarray:
    """I + L (U_r - I) L†: the r x r block U_r on the range of the d x r isometry L,
    the identity off it."""
    return np.eye(len(l), dtype=np.complex128) + l @ ((block - np.eye(len(block))) @ l.conj().T)


@dataclass(frozen=True)
class Push:
    """The incoming basis index of a push-through constraint and its unitary
    correction U on the physical leg, held as the r x r ``block`` U_r on the
    range of the d x r isometry L, ``range_basis``, and the identity off it
    (``range_unitary``).  A dense U is the case L = I: ``range_basis`` None.

    U is refused when ||U† U - I||_F / d, read off the factors as
    (||U_r† U_r - I||_F + ||L† L - I||_F) / d, exceeds ``UNITARY_INPUT_BOUND``;
    for an orthonormal L the first term is exact.
    """

    p_in: int
    block: np.ndarray
    range_basis: np.ndarray | None = field(default=None, kw_only=True)

    def __post_init__(self):
        u = np.asarray(self.block, dtype=np.complex128)
        l = u if self.range_basis is None else np.asarray(self.range_basis, dtype=np.complex128)
        r = len(u)
        if u.shape != (r, r) or l.shape[1:] != (r,) or len(l) < r:
            raise ValueError("u_phys must be unitary: a square block on a d x r basis L, r <= d")
        deviation = isometry_residual(u) + (0.0 if l is u else isometry_residual(l))
        if r * deviation / len(l) > UNITARY_INPUT_BOUND:
            raise ValueError("u_phys must be unitary")
        u.setflags(write=False)
        object.__setattr__(self, "block", u)
        if l is not u:
            l.setflags(write=False)
            object.__setattr__(self, "range_basis", l)

    @functools.cached_property
    def u_phys(self) -> np.ndarray:
        """The dense d x d unitary, built on first read."""
        if self.range_basis is None:
            return self.block
        u = range_unitary(self.range_basis, self.block)
        u.setflags(write=False)
        return u


class MFTensor(Fixed):
    """A tensor with a "phys" leg and the virtual legs ``LEGS``, each of the
    basis dimension, bound to an MF basis.  Defects enter on ``IN_LEGS``."""

    LEGS: tuple[str, ...] = ()
    IN_LEGS: tuple[int, ...] = ()

    def __init__(self, tensor: DenseTensor, basis: MFBasis):
        if set(tensor.legs) != set(self.LEGS) | {"phys"}:
            raise DimensionMismatchError(
                f"{type(self).__name__} needs legs {'/'.join(self.LEGS)}/phys"
            )
        if any(tensor.leg_dim(leg) != basis.dim for leg in self.LEGS):
            raise DimensionMismatchError("virtual legs must match the basis dimension")
        self.tensor = tensor
        self.basis = basis

    @property
    def d(self) -> int:
        return self.tensor.leg_dim("phys")

    @property
    def D(self) -> int:
        return self.basis.dim

    def as_matrix(self) -> np.ndarray:
        """d x D^n flattening with columns over ``LEGS`` row-major."""
        return self.tensor.matrix(["phys"], list(self.LEGS))

    def pushes(self) -> list:
        """(constraint, in-leg, {out-leg: basis index}) for every constraint."""
        raise NotImplementedError

    def push_images(self) -> dict:
        """(in-leg, basis index) -> {out-leg: basis index} of the first push of each."""
        images: dict = {}
        for c, in_leg, outs in self.pushes():
            images.setdefault((in_leg, c.p_in), outs)
        return images

    @functools.cached_property
    def push_residuals(self) -> tuple[float, ...]:
        """Relative residual ||U_P B W_in - B W_out|| / ||B|| of every push, in ``pushes()`` order:
        computed at most once, as the tensor is fixed when it is built; ``symmetry_report``
        judges it at any tol.

        Consecutive pushes that share a range basis L and legs are judged together, in one
        stacked pass on R = L† B: with E = B - L R, the residual is ||U_r R W_in - R W_out||
        and the off-range part ||E (W_in - W_out)|| <= 2 ||E||_F, orthogonal to it, added in
        quadrature.  That is an upper bound within 2 ||E||_F of the dense residual, equal to
        it when L spans the physical space.  Dense pushes are judged one at a time on B.
        """
        b = self.as_matrix()
        scale = max(np.linalg.norm(b), NORM_GUARD)
        dims, elements = (self.D,) * len(self.LEGS), np.asarray(self.basis.elements)
        residuals = []
        for (_, in_leg, legs), group in itertools.groupby(
                self.pushes(), key=lambda push: (id(push[0].range_basis), push[1], tuple(push[2]))):
            group = list(group)
            l = group[0][0].range_basis
            if l is None:  # dense pushes share no range basis: each is judged on B itself
                for c, _, outs in group:
                    moved = apply_leg_ops(c.block @ b, dims, {in_leg: elements[c.p_in].T})
                    pushed = apply_leg_ops(b, dims, {leg: elements[k] for leg, k in outs.items()})
                    residuals.append(float(np.linalg.norm(moved - pushed)) / scale)
                continue
            r_b = l.conj().T @ b
            off = 0.0 if l.shape[0] == l.shape[1] else 2 * np.linalg.norm(b - l @ r_b)
            moved = np.stack([c.block for c, _, _ in group]) @ stacked_leg_ops(
                r_b, dims, {in_leg: elements[[c.p_in for c, _, _ in group]].transpose(0, 2, 1)})
            pushed = stacked_leg_ops(r_b, dims, {leg: elements[[outs[leg] for _, _, outs in group]] for leg in legs})
            residuals += (np.hypot(np.linalg.norm(moved - pushed, axis=(1, 2)), off) / scale).tolist()
        return tuple(residuals)


@dataclass
class SymmetryReport:
    residuals: list[float]
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def passed(self) -> bool:
        return all(r < self.tol for r in self.residuals)  # a NaN residual fails

    def require(self, message: str) -> None:
        """Raise SymmetryError(message % max_residual) unless the report passed."""
        if not self.passed:
            raise SymmetryError(message % self.max_residual)


def symmetry_report(A: MFTensor, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """A's ``push_residuals``, judged at tol."""
    return SymmetryReport(list(A.push_residuals), tol)


@dataclass
class PolarSplit:
    """B = V Q with Q PSD Hermitian on the virtual legs and R = V† V."""

    V: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    source: MFTensor
    rank: int
    reconstruction_residual: float
    commutant_residuals: list[float] = field(default_factory=list)
    null_space_match: bool = True


def polar_structure(A: MFTensor, tol: float) -> PolarSplit:
    """Polar split of A's flattening with its rank, its reconstruction and
    commutant residuals (relative to ||Q||) and the null-space match of V and Q."""
    b = A.as_matrix()
    v, q = polar_nd(b, tol)
    scale = max(np.linalg.norm(q), NORM_GUARD)
    commutants = (commutant(A.basis, len(A.LEGS), in_leg, c.p_in, outs) for c, in_leg, outs in A.pushes())
    rank = numerical_rank(q, tol)
    return PolarSplit(
        V=v,
        Q=q,
        R=v.conj().T @ v,
        source=A,
        rank=rank,
        reconstruction_residual=float(np.linalg.norm(v @ q - b)) / scale,
        commutant_residuals=[float(np.linalg.norm(q @ s - s @ q)) / scale for s in commutants],
        null_space_match=rank == numerical_rank(v, tol),
    )


def solve_pushes(b, basis: MFBasis, dims, in_leg: int, out_legs, tol: float, fail):
    """The first fit of U b (P_k^T on in_leg) = b (P_images on out_legs) for each basis
    element P_k: (L, [(images, U_r) per k]), the push of constraint k being the block
    U_r on range(L) and the identity off it (``Push``).

    Every source and target lies in range(b), so the search runs on R = L† b, with L
    an orthonormal basis of range(b) of numpy's ``matrix_rank`` size r.  Image tuples
    are scanned with single-leg pushes first; each is tried on every element still
    open at once, by one stacked r x r Procrustes fit, and an element keeps its first
    fit, one within ``tol`` relative to ||b||.  When some element fits no tuple, the
    exception ``fail(k)`` is raised for the lowest such k.
    """
    scale = max(np.linalg.norm(b), NORM_GUARD)
    l, s, _ = np.linalg.svd(b, full_matrices=False)
    l = l[:, : int(np.sum(s > s.max(initial=0.0) * max(b.shape) * np.finfo(s.dtype).eps))]
    r_b = l.conj().T @ b
    elements = np.asarray(basis.elements)
    sources = stacked_leg_ops(r_b, dims, {in_leg: elements.transpose(0, 2, 1)})
    ident = basis.identity_index
    candidates = sorted(
        itertools.product(range(len(elements)), repeat=len(out_legs)),
        key=lambda images: sum(k != ident for k in images),
    )
    fits, open_ = [None] * len(elements), np.arange(len(elements))
    for images in candidates:
        if not open_.size:
            break
        target = apply_leg_ops(r_b, dims, {leg: elements[i] for leg, i in zip(out_legs, images)})
        source = sources[open_]
        u = procrustes_unitary(target, source)
        fit = np.linalg.norm(u @ source - target, axis=(1, 2)) < tol * scale
        for k, u_k in zip(open_[fit], u[fit]):
            fits[k] = (images, u_k)
        open_ = open_[~fit]
    if open_.size:
        raise fail(int(open_[0]))
    return l, fits


def require_abelian(basis: MFBasis) -> None:
    if not basis.is_group:
        raise NonGroupBasisError("operation requires a group basis")
    idx, _ = basis.product_table()
    if not np.array_equal(idx, idx.T):
        raise NonGroupBasisError("operation requires an abelian quotient group")


def abelian_coefficients(basis: MFBasis, alpha) -> np.ndarray:
    """alpha as one nonzero complex vector over the elements of an abelian group basis."""
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    if alpha.shape[0] != len(basis.elements):
        raise DimensionMismatchError("alpha needs one coefficient per basis element")
    if not alpha.any():
        raise ValueError("alpha must be nonzero")
    require_abelian(basis)
    return alpha


@dataclass
class CliffordMagicForm:
    """V_Q = scale * U_C (psi x I): Q read sideways as an isometry."""

    u_c: np.ndarray
    psi: np.ndarray
    scale: float
    reconstruction_residual: float


def sideways_isometry(split: PolarSplit) -> np.ndarray:
    """Q as the map from its in-leg columns to its rows and out-leg columns.

    For an MPS, Q[(b,c),(a,d)] becomes the D^3 x D map a -> (b, c, d).
    """
    A = split.source
    n, D = len(A.LEGS), A.D
    outs = [n + k for k in range(n) if k not in A.IN_LEGS]
    ins = [n + k for k in A.IN_LEGS]
    v = split.Q.reshape((D,) * (2 * n)).transpose(list(range(n)) + outs + ins)
    return v.reshape(D ** (n + len(outs)), D ** len(ins))


def factor_sideways_isometry(u_c: np.ndarray, v_q: np.ndarray):
    """Factor V_Q = scale * U_C (psi x I_k) for a k-column sideways isometry.

    psi is read off the wire trace of U_C† V_Q, normalized, and phase-fixed
    so that its lead entry is real positive (``fix_global_phase``).  Returns
    (psi, scale, relative reconstruction residual).  When V_Q factors, the wire trace has
    norm ||V_Q|| / sqrt(k), so the test for a trace that vanishes is
    relative to that, whatever the scale of Q.
    """
    k = v_q.shape[1]
    w = (v_q.conj().T @ u_c).conj().T.reshape(-1, k, k)  # U_C† V_Q, without a conjugate copy of U_C
    psi = np.einsum("paa->p", w) / k
    nrm = float(np.linalg.norm(psi))
    if nrm <= ZERO_FLOOR * np.linalg.norm(v_q) / np.sqrt(k):
        raise SymmetryError("sideways isometry does not factor through the Clifford")
    psi = fix_global_phase(psi / nrm)
    # U_C (psi x I_k): U_C's column blocks of width k, summed with weights psi
    recon = psi @ u_c.reshape(len(u_c), -1, k)
    scale, _ = proportionality(v_q, recon)
    resid = float(np.linalg.norm(v_q - scale * recon)) / max(np.linalg.norm(v_q), NORM_GUARD)
    return psi, abs(scale), resid


# ---------------------------------------------------------------------------
# MPS tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryConstraint(Push):
    """One push-through relation (P_in on left, U on phys, P_out on right)."""

    p_out: int

    def __iter__(self):
        """Unpack as (p_in, u_phys, p_out), the form of a constraint tuple."""
        return iter((self.p_in, self.u_phys, self.p_out))


class MPSTensor(MFTensor):
    """An MPS tensor bound to an MF basis and its symmetry constraints."""

    LEGS = ("left", "right")
    IN_LEGS = (0,)

    def __init__(self, tensor: DenseTensor, basis: MFBasis, constraints=()):
        super().__init__(tensor, basis)
        self.constraints = tuple(constraints)

    def pushes(self) -> list:
        return [(c, 0, {1: c.p_out}) for c in self.constraints]

    def push_images(self) -> dict:
        """The pushes closed over group products (see ``complete_constraints``)."""
        return {(0, k): {1: out} for k, (_, out) in complete_constraints(self).items()}

    def site_matrices(self) -> list[np.ndarray]:
        """A^i as D x D matrices (left row, right column)."""
        t = self.tensor.transpose_to(("phys", "left", "right"))
        return [np.array(t.data[i]) for i in range(self.d)]

    @classmethod
    def from_site_matrices(cls, mats, basis: MFBasis, constraints=()) -> "MPSTensor":
        arr = np.stack([np.asarray(m, dtype=np.complex128) for m in mats])
        return cls(DenseTensor(arr, ("phys", "left", "right")), basis, constraints)


def check_mf_symmetry(A: MPSTensor, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Relative residual of every push-through constraint."""
    return symmetry_report(A, tol)


def _constraint_row(basis, d, p_in, u, p_out):
    """Matrix of B -> U B (P^T x I) - B (I x P') acting on row-major vec(B)."""
    win, wout = push_operators(basis, 2, 0, p_in, {1: p_out})
    return np.kron(u, win.T) - np.kron(np.eye(d), wout.T)


def solve_symmetry_family(
    basis: MFBasis,
    constraints,
    d: int,
    tol: float = DEFAULT_TOL,
) -> list[MPSTensor]:
    """Orthonormal basis of all A satisfying the given constraints.

    Each constraint is linear in vec(A); the family is the joint null space.
    A constraint may carry ``u_phys=None`` to request a jointly solved
    correction unitary (alternating least squares, seeded from P^* x P' when
    d = D^2 and from the identity otherwise, then from fixed-seed random
    restarts).  A system of more than 2^22 elements is refused with
    SizeGuardError before anything is built.
    """
    D = basis.dim
    triples = [(basis.index(p_in), u, basis.index(p_out)) for p_in, u, p_out in constraints]
    # the dense system: one d D^2 x d D^2 block per constraint, or the identity when there is none
    if max(1, len(triples)) * (d * D * D) ** 2 > MAX_DENSE_ELEMENTS:
        raise SizeGuardError(f"the symmetry system for d = {d} on bond dimension {D} "
                             f"exceeds {MAX_DENSE_ELEMENTS} elements")
    if any(u is None for _, u, _ in triples):
        triples = _solve_unknown_corrections(basis, triples, d)
    fixed = [SymmetryConstraint(*t) for t in triples]
    if fixed:
        stack = np.vstack([_constraint_row(basis, d, c.p_in, c.u_phys, c.p_out) for c in fixed])
        ns = nullspace(stack, tol)
    else:
        ns = np.eye(d * D * D, dtype=np.complex128)
    family = []
    for k in range(ns.shape[1]):
        t = DenseTensor(ns[:, k].reshape(d, D, D), ("phys", "left", "right"))
        family.append(MPSTensor(t, basis, fixed))
    return family


def _solve_unknown_corrections(basis, triples, d):
    """Alternating least squares over (A, unknown U_P) with restarts.

    ``triples`` are (p_in index, U or None, p_out index); the result fills
    every None with the solved correction.  Restarts draw from a fixed seed,
    so the result is the same on every call.
    """
    rng = np.random.default_rng(7)
    D = basis.dim
    best = None
    for attempt in range(8):
        us = []
        for p_in, u, p_out in triples:
            if u is not None:
                us.append(np.asarray(u, dtype=np.complex128))
            elif attempt == 0 and d == D * D:
                us.append(np.kron(basis.elements[p_in].conj(), basis.elements[p_out]))
            elif attempt == 0:
                us.append(np.eye(d, dtype=np.complex128))
            else:
                us.append(random_unitary(d, rng))
        resid = np.inf
        for _ in range(200):
            stack = np.vstack(
                [
                    _constraint_row(basis, d, p_in, u, p_out)
                    for (p_in, _, p_out), u in zip(triples, us)
                ]
            )
            evals, evecs = np.linalg.eigh(stack.conj().T @ stack)
            b = evecs[:, 0].reshape(d, D * D)
            resid = float(np.sqrt(max(evals[0].real, 0.0)))
            new_us = []
            for (p_in, given_u, p_out), u in zip(triples, us):
                if given_u is not None:
                    new_us.append(u)
                    continue
                win, wout = push_operators(basis, 2, 0, p_in, {1: p_out})
                new_us.append(procrustes_unitary(b @ wout, b @ win))
            if all(np.allclose(a, c, rtol=0, atol=ALS_STEP_FLOOR) for a, c in zip(us, new_us)):
                break
            us = new_us
        if best is None or resid < best[0]:
            best = (resid, us)
        if best[0] < ALS_RESIDUAL_FLOOR:
            break
    return [(p_in, u, p_out) for (p_in, _, p_out), u in zip(triples, best[1])]


def canonical_form_check(A: MPSTensor, tol: float = DEFAULT_TOL):
    """Verify sum_i A^i A^i† is proportional to the identity; returns the constant."""
    return gram_proportionality(A.tensor, ["left"], tol)


def split_polar(A: MPSTensor, tol: float = DEFAULT_TOL) -> PolarSplit:
    """Polar decomposition of the flattened tensor plus its symmetry checks."""
    check_mf_symmetry(A, tol).require("MF symmetry fails with residual %.3e")
    return polar_structure(A, tol)


@dataclass
class CorrectionReport:
    residuals: list[float]
    bare_discrepancies: list[float]
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.residuals, default=0.0) < self.tol


def correction_consistency(split: PolarSplit, tol: float = DEFAULT_TOL) -> CorrectionReport:
    """Check V† U_P V = (P^* x P') R for every constraint.

    ``bare_discrepancies`` records the distance to the unprojected P^* x P';
    it vanishes only for injective tensors.
    """
    A = split.source
    resids, bare = [], []
    for c, in_leg, outs in A.pushes():
        lhs = split.V.conj().T @ c.u_phys @ split.V
        s = commutant(A.basis, 2, in_leg, c.p_in, outs)
        resids.append(float(np.linalg.norm(lhs - s @ split.R)))
        bare.append(float(np.linalg.norm(lhs - s)))
    return CorrectionReport(resids, bare, tol)


def complete_constraints(A: MPSTensor) -> dict[int, tuple[np.ndarray, int]]:
    """Close the constraint set over group products: index -> (U, out index).

    Products compose as U_{PS} = U_P U_S with a phase correction so that the
    canonical representative of each class is pushed exactly.
    """
    basis = A.basis
    prod_idx, prod_ph = basis.product_table()
    known: dict[int, tuple[np.ndarray, int]] = {}
    ident = basis.identity_index
    known[ident] = (np.eye(A.d, dtype=np.complex128), ident)
    for c in A.constraints:
        known[c.p_in] = (np.asarray(c.u_phys), c.p_out)
    changed = True
    while changed:
        changed = False
        for i in list(known):
            for j in list(known):
                k = int(prod_idx[i, j])
                if k in known:
                    continue
                ui, oi = known[i]
                uj, oj = known[j]
                k_out = int(prod_idx[oi, oj])
                known[k] = ((prod_ph[i, j] / prod_ph[oi, oj]) * (ui @ uj), k_out)
                changed = True
    return known


def clifford_magic_decompose(split: PolarSplit) -> CliffordMagicForm:
    """The sideways Clifford form V_Q = scale * U_C (psi x I) of Q over its basis, or an MftnError.

    U_C acts on the n legs of psi followed by one wire per in-leg.  It takes
    the generator S (S in {X, Z}) on an in-leg's wire to S on that leg of
    psi, times P'^† on each out-leg of psi and P'^T on its wire, where P'
    are the images that pushing S^T through that in-leg leaves on the
    out-legs.  psi is then read off U_C† V_Q = psi x I.
    """
    A = split.source
    basis = A.basis
    D, n = basis.dim, len(A.LEGS)
    generators = wh_generators(basis)
    if not qc._is_prime(D):
        raise NonPrimeDimensionError("clifford form needs prime virtual dimension")
    push_images = A.push_images()
    out_legs = [k for k in range(n) if k not in A.IN_LEGS]
    width = n + len(out_legs)
    eye = np.eye(D)
    images = []
    for wire, in_leg in enumerate(A.IN_LEGS):
        for source, (gen, pre_idx) in zip((qc.PauliVector.x_gen, qc.PauliVector.z_gen), generators):
            if (in_leg, pre_idx) not in push_images:
                raise SymmetryError(f"no constraint pushes basis element {basis.labels[pre_idx]}")
            outs = {leg: basis.elements[k] for leg, k in push_images[(in_leg, pre_idx)].items()}
            inner = {leg: p.conj().T for leg, p in outs.items()}
            inner[in_leg] = gen
            tgt = qc.kron_to_pauli([inner.get(leg, eye) for leg in range(n)] + [outs[leg].T for leg in out_legs], D)
            if tgt is None:
                raise SymmetryError("generator image is not a Weyl-Heisenberg string")
            images.append((source(width, D, n + wire), tgt))
    u_c = qc.synthesize_clifford(qc.PartialCliffordMap(width, D, tuple(images))).data
    psi, scale, resid = factor_sideways_isometry(u_c, sideways_isometry(split))
    return CliffordMagicForm(u_c, psi, scale, resid)


def is_stabilizer_state(psi: np.ndarray, n: int, d: int) -> bool:
    """Exhaustive Pauli test: stabilizer iff |<psi|XZ(a)|psi>| = 1, to ``MATCH_FLOOR``, on d^n classes."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    count = 0
    for a in np.ndindex(*([d] * (2 * n))):
        perm, phases = qc.PauliVector(n, d, a[:n], a[n:], 0).monomial()
        # <psi|P|psi>, with P psi placing phases[j] psi[j] at perm[j]
        if abs(abs(np.vdot(psi[perm], phases * psi)) - 1.0) < MATCH_FLOOR:
            count += 1
    return count == d**n


def _q_to_mps_tensor(q: np.ndarray, basis: MFBasis) -> DenseTensor:
    """(D^2, D^2) matrix with rows (b,c), cols (a,d) -> legs (left, phys, right)."""
    D = basis.dim
    return DenseTensor(
        q.reshape(D, D, D, D).transpose(2, 0, 1, 3).reshape(D, D * D, D),
        ("left", "phys", "right"),
    )


def spt_solution(basis: MFBasis, alpha, tol: float = DEFAULT_TOL) -> MPSTensor:
    """Q = sum_i alpha_i P_i^* x P_i as an MPS tensor with a physical pair leg.

    The attached constraints are SPT-type: (P_i, P_i^* x P_i, P_i) for every
    basis element.  Requires an abelian group basis.
    """
    alpha = abelian_coefficients(basis, alpha)
    q = sum(a * np.kron(p.conj(), p) for a, p in zip(alpha, basis.elements))
    constraints = [
        SymmetryConstraint(i, np.kron(p.conj(), p), i) for i, p in enumerate(basis.elements)
    ]
    out = MPSTensor(_q_to_mps_tensor(q, basis), basis, constraints)
    check_mf_symmetry(out, tol).require("analytic solution fails its own symmetry: %.3e")
    return out


@dataclass
class MapOrderResult:
    bijective: bool
    order: int | None
    image: dict[int, int]


def map_order(A: MPSTensor) -> MapOrderResult:
    """Bijectivity and permutation order of the induced map P_in -> P_out.

    Over a group basis the constraint set is first closed over products, so
    that derived elements participate in the map.
    """
    try:
        pairs = {i: out for i, (_, out) in complete_constraints(A).items()}
    except NonGroupBasisError:
        pairs = {c.p_in: c.p_out for c in A.constraints}
    total = len(pairs) == len(A.basis.elements)
    injective = len(set(pairs.values())) == len(pairs)
    bijective = total and injective
    order = None
    if bijective:
        order = 1
        cur = dict(pairs)
        while any(cur[i] != i for i in cur):
            cur = {i: pairs[cur[i]] for i in cur}
            order += 1
    return MapOrderResult(bijective, order, pairs)


def block(A: MPSTensor, k: int) -> MPSTensor:
    """Contract k copies into a supersite, composing the constraint maps.

    Surviving constraints are those whose image chain stays inside the
    completed constraint set at every one of the k steps.  Each is a
    d^k x d^k matrix, refused with SizeGuardError past 2^22 elements.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        return A
    if A.d ** (2 * k) > MAX_DENSE_ELEMENTS:
        raise SizeGuardError(f"blocking {k} sites of dimension {A.d} builds corrections "
                             f"past {MAX_DENSE_ELEMENTS} elements")
    mats = A.site_matrices()
    blocked = mats
    for _ in range(k - 1):
        blocked = [m1 @ m2 for m1 in blocked for m2 in mats]
    try:
        completed = complete_constraints(A)
    except NonGroupBasisError:
        completed = {c.p_in: (np.asarray(c.u_phys), c.p_out) for c in A.constraints}
    new_constraints = []
    for i, (u0, out0) in completed.items():
        us, cur_out, ok = [u0], out0, True
        for _ in range(k - 1):
            if cur_out not in completed:
                ok = False
                break
            u_next, cur_out = completed[cur_out]
            us.append(u_next)
        if not ok:
            continue
        u_block = us[0]
        for u in us[1:]:
            u_block = np.kron(u_block, u)
        new_constraints.append(SymmetryConstraint(i, u_block, cur_out))
    return MPSTensor.from_site_matrices(blocked, A.basis, new_constraints)


def per_distinct(family, make) -> list:
    """[make(x) for x in family], calling make once per distinct object."""
    made = {id(x): make(x) for x in {id(x): x for x in family}.values()}
    return [made[id(x)] for x in family]


def pauli_expectation(family, pauli_string, tol: float = DEFAULT_TOL) -> complex:
    """Weyl-Heisenberg string expectation on a chain of Q-form tensors.

    Site tensors must be Q-form (physical dimension D^2) over a prime-D
    Weyl-Heisenberg basis; the string holds one 2-qudit Pauli per site.
    The string is pushed backwards through the sideways Clifford structure,
    so the cost is linear in the chain length.  Edge virtual legs stay open,
    and the value matches the dense contraction of the unnormalized open chain.
    """
    if not family:
        raise ValueError("empty chain")
    basis = family[0].basis
    D = basis.dim
    if any(t.basis.dim != D for t in family):
        raise DimensionMismatchError("all tensors must share one basis dimension")
    if len(pauli_string) != len(family):
        raise DimensionMismatchError("need one two-qudit Pauli per site")
    site_forms = per_distinct(family, lambda t: clifford_magic_decompose(split_polar(t, tol)))

    value = 1.0 + 0.0j
    wire = np.eye(D, dtype=np.complex128)
    for site in range(len(family) - 1, -1, -1):
        form = site_forms[site]
        s = pauli_string[site]
        if (s.n, s.d) != (2, D):
            raise DimensionMismatchError("string entries must be 2-qudit Paulis of dim D")
        conj = form.u_c.conj().T @ np.kron(s.matrix(), wire) @ form.u_c
        hit = qc.match_pauli_matrix(conj, 3, D)
        if hit is None:
            raise SymmetryError("conjugated string left the Pauli group")
        v, w, phase = hit
        r_part = qc.PauliVector(2, D, v[:2], w[:2], 0).matrix()
        wire = qc.PauliVector(1, D, v[2:], w[2:], 0).matrix()
        value *= phase * np.vdot(form.psi, r_part @ form.psi) * form.scale**2
    return complex(value * np.trace(wire))


def chain_state(stacks, boundary: str = "open") -> np.ndarray:
    """Dense contraction of a chain of (d, D, D) site stacks A^i (left row,
    right column), a bond's matrix folded into a stack; open boundaries keep
    edge legs as axes 0 and -1, periodic ones trace the wrap bond.  Each site
    is one matrix product, with its stack viewed as (r, (p, s))."""
    cur = stacks[0]  # (d0, D, D)
    for nxt in stacks[1:]:
        d, D, D_right = nxt.shape
        out = cur.reshape(-1, D) @ nxt.transpose(1, 0, 2).reshape(D, d * D_right)
        cur = out.reshape(cur.shape[:-1] + (d, D_right)).swapaxes(-3, -2)  # (..., p, l, s)
    if boundary == "open":
        return np.moveaxis(cur, -2, 0)  # (D_left, d_1..d_n, D_right)
    if boundary == "periodic":
        return np.einsum("...ll->...", cur)
    raise BoundaryError(f"unknown boundary {boundary!r}")

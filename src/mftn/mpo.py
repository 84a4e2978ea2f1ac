"""MPO tensors implementable via measurement and feedback.

An MPO tensor O with legs (left, right, phys_in, phys_out) satisfies the
isometry condition sum_{o,l,r} O^{(o,a)}_{lr} conj(O^{(o,b)}_{lr}) = D d_ab
and, slice by slice in the input index a, the same push-through symmetry as
an MF MPS with the correction acting on phys_out:

    sum_j (U_P)_{oj} P A_a^j = A_a^o P',   A_a^o := O^{(o,a)} as (left, right).

The slices V_a: l -> (o, r) are then orthonormal isometries, the purifying
unitary U(|a> x |l>) = V_a|l> is unitary on C^{d D}, and two MPOs with the
same (complete) constraints differ by a local unitary on the input leg:
U† U' = U_tilde x I_D exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SizeGuardError, SymmetryError
from .mps import MPSTensor, check_mf_symmetry, complete_constraints, per_distinct
from .protocol import (
    RNG_ALGORITHM,
    ProtocolRun,
    apply_chain_corrections,
    bond_projector,
    born_choice,
    philox_rng,
    push_chain_defects,
)
from .tensors import (DEFAULT_TOL, MAX_DENSE_ELEMENTS, UNITARY_FLOOR, VERDICT_FLOOR, DenseTensor, Fixed,
                      fix_global_phase, gram_proportionality, proportionality, state_fidelity)

MPO_LEGS = ("left", "right", "phys_in", "phys_out")


class MPOTensor(Fixed):
    """An MPO tensor bound to an MF basis and per-slice constraints."""

    def __init__(self, tensor: DenseTensor, basis, constraints=()):
        if set(tensor.legs) != set(MPO_LEGS):
            raise DimensionMismatchError("MPO tensor needs legs left/right/phys_in/phys_out")
        if tensor.leg_dim("left") != basis.dim or tensor.leg_dim("right") != basis.dim:
            raise DimensionMismatchError("virtual legs must match the basis dimension")
        if tensor.leg_dim("phys_in") != tensor.leg_dim("phys_out"):
            raise DimensionMismatchError("phys_in and phys_out must have equal dimension")
        self.tensor = tensor
        self.basis = basis
        self.constraints = tuple(constraints)

    @property
    def d(self) -> int:
        return self.tensor.leg_dim("phys_in")

    @property
    def D(self) -> int:
        return self.basis.dim

    def array(self) -> np.ndarray:
        """O[o, a, l, r] with o = phys_out, a = phys_in."""
        return self.tensor.transpose_to(("phys_out", "phys_in", "left", "right")).data

    @classmethod
    def from_array(cls, arr, basis, constraints=()) -> "MPOTensor":
        t = DenseTensor(np.asarray(arr, dtype=np.complex128),
                        ("phys_out", "phys_in", "left", "right"))
        return cls(t.transpose_to(MPO_LEGS), basis, constraints)

    def slice_tensor(self, a: int) -> MPSTensor:
        """Slice at phys_in = a as an MPS tensor (phys = phys_out)."""
        return MPSTensor(
            DenseTensor(self.array()[:, a], ("phys", "left", "right")),
            self.basis,
            self.constraints,
        )

    def apply_phys_in(self, u: np.ndarray) -> "MPOTensor":
        """O composed with a local unitary acting first on the input leg.

        Input-leg mixing preserves the per-slice constraints.
        """
        arr = np.einsum("oalr,ab->oblr", self.array(), np.asarray(u))
        return MPOTensor.from_array(arr, self.basis, self.constraints)


def check_mpo_isometry(O: MPOTensor, tol: float = DEFAULT_TOL):
    """Contracting O against O† over phys_out and both virtual legs must give
    D * delta on the phys_in pair.  Returns (pass, constant, residual)."""
    ok, const, resid = gram_proportionality(O.tensor, ["phys_in"], tol)
    return ok and abs(const - O.D) < max(tol, VERDICT_FLOOR) * max(O.D, 1), const, resid


def check_mpo_symmetry(O: MPOTensor, tol: float = DEFAULT_TOL) -> float:
    """Worst push-through residual over all input slices; NaN if any residual is NaN."""
    residuals = [r for a in range(O.d) for r in check_mf_symmetry(O.slice_tensor(a), tol).residuals]
    return float(np.max(residuals, initial=0.0))


@dataclass
class SliceReport:
    """Slices with ||sum_o A_a^o A_b^o† - delta_ab I|| = ||U† U - I||, judged at tol; its (a, a)
    blocks are V_a† V_a - I, so it bounds every slice's and U's ``isometry_residual``."""

    slices: list
    orthogonality_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.orthogonality_residual < self.tol


def mpo_slices(O: MPOTensor, tol: float = DEFAULT_TOL) -> SliceReport:
    """Slices V_a: C^D -> C^{dD} with their orthogonality check.

    Orthogonality is sum_o A_a^o A_b^{o†} = delta_ab I_D; the precondition is
    the isometry condition together with the slice symmetry.
    """
    ok, _, resid = check_mpo_isometry(O, tol)
    if not ok:
        raise SymmetryError(f"MPO isometry condition fails with residual {resid:.3e}")
    sym = check_mpo_symmetry(O, tol)
    if not sym < max(tol, VERDICT_FLOOR):
        raise SymmetryError(f"MPO slice symmetry fails with residual {sym:.3e}")
    arr = O.array()
    D, d = O.D, O.d
    slices = [
        np.ascontiguousarray(arr[:, a].transpose(0, 2, 1).reshape(d * D, D)) for a in range(d)
    ]  # rows (o, r), cols l
    pair = np.einsum("oalr,obmr->ablm", arr, arr.conj())
    want = np.einsum("ab,lm->ablm", np.eye(d), np.eye(D))
    return SliceReport(slices, float(np.linalg.norm(pair - want)), tol)


def build_purifying_unitary(O: MPOTensor, tol: float = DEFAULT_TOL) -> DenseTensor:
    """U on C^{d D} with U(|a> x |l>) = V_a |l>; columns indexed by (a, l).

    Unitarity is equivalent to slice orthogonality.  Every push-through
    constraint lifts to U (I_d x P^T) = (U_P† x P'^T) U: times U_P x I, the
    lift's residual is the slices' push residuals, so its norm is
    sqrt(sum_a ||A_a||^2 r_a^2) <= max_a r_a ||U||, which ``mpo_slices`` holds
    below max(tol, VERDICT_FLOOR).
    """
    report = mpo_slices(O, tol)
    if not report.passed:
        raise SymmetryError("slice orthogonality fails; purification is not unitary")
    d, D = O.d, O.D
    u = np.zeros((d * D, d * D), dtype=np.complex128)
    for a, v in enumerate(report.slices):
        u[:, a * D : (a + 1) * D] = v
    return DenseTensor(u, ("out", "in"))


def relative_local_unitary(O: MPOTensor, O2: MPOTensor, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The d x d unitary with O2 = O composed with U_tilde on phys_in.

    Both MPOs must pass the slice checks with identical constraints; U† U'
    then factors exactly as U_tilde x I_D on the (phys_in, left) input space.
    The result is phase-fixed by ``fix_global_phase``.
    """
    if O.basis.dim != O2.basis.dim or O.d != O2.d:
        raise DimensionMismatchError("MPOs act on different spaces")
    same = len(O.constraints) == len(O2.constraints) and all(
        c1.p_in == c2.p_in
        and c1.p_out == c2.p_out
        and np.allclose(c1.u_phys, c2.u_phys, rtol=0, atol=tol)
        for c1, c2 in zip(O.constraints, O2.constraints)
    )
    if not same:
        raise SymmetryError("relative unitary requires identical constraint sets")
    u = build_purifying_unitary(O, tol).data
    u2 = build_purifying_unitary(O2, tol).data
    w = (u.conj().T @ u2).reshape(O.d, O.D, O.d, O.D)
    ut = np.einsum("arbr->ab", w) / O.D
    resid = float(np.linalg.norm(w.reshape(O.d * O.D, -1) - np.kron(ut, np.eye(O.D))))
    if resid > max(tol, UNITARY_FLOOR) * np.sqrt(O.d * O.D):
        raise SymmetryError(
            f"U†U' does not factor as U_tilde x I_D (residual {resid:.3e})"
        )
    ut = fix_global_phase(ut)
    _, back_resid = proportionality(
        O2.array().reshape(-1), O.apply_phys_in(ut).array().reshape(-1)
    )
    if back_resid > max(tol, UNITARY_FLOOR):
        raise SymmetryError("recovered local unitary does not reproduce the second MPO")
    return ut


# ---------------------------------------------------------------------------
# protocol application
# ---------------------------------------------------------------------------


MAX_PROTOCOL_SITES = 6


def check_protocol_sites(n: int, d: int, D: int) -> None:
    """Refuse MPO protocol chains longer than ``MAX_PROTOCOL_SITES``, or whose
    D x d^n x D branch states exceed 2^22 amplitudes (D^2 of them are held).

    Callers that build a d^n input check this before allocating it.
    """
    if n > MAX_PROTOCOL_SITES:
        raise SizeGuardError(f"MPO protocol chains are capped at {MAX_PROTOCOL_SITES} sites")
    if D * D * d**n > MAX_DENSE_ELEMENTS:
        raise SizeGuardError(f"MPO protocol states of {n} sites of dimension {d} "
                             f"exceed {MAX_DENSE_ELEMENTS} amplitudes")


def _validate_mpo_chain(tensors, tol: float):
    """(basis, closed constraint tables) of an MPO chain whose tensors share their
    dimensions and pass the slice symmetry and the isometry condition."""
    if not tensors:
        raise ValueError("empty chain")
    for o in {id(o): o for o in tensors}.values():
        if o.D != tensors[0].D or o.d != tensors[0].d:
            raise DimensionMismatchError("chain tensors must share dimensions")
        if not check_mpo_symmetry(o, tol) < max(tol, VERDICT_FLOOR):
            raise SymmetryError("chain tensor fails the MPO push-through symmetry")
        ok, _, resid = check_mpo_isometry(o, tol)
        if not ok:
            raise SymmetryError(f"chain tensor fails the MPO isometry condition ({resid:.3e})")
    return tensors[0].basis, per_distinct(tensors, lambda o: complete_constraints(o.slice_tensor(0)))


def _mpo_step(cur, arr, k, bond=None):
    """Contract site k, O[o, a, l, r], into cur through the bond matrix on r_{k-1}.

    cur has axes (edge_left, o_0..o_{k-1}, r_{k-1}, a_k..a_{n-1}); so does the
    result, with k + 1 for k.
    """
    if bond is not None:
        arr = np.einsum("rs,oasq->oarq", bond, arr)
    cur = np.tensordot(cur, arr, axes=([1 + k, 2 + k], [2, 1]))
    return np.moveaxis(cur, [-2, -1], [1 + k, 2 + k])


def _mpo_input(tensors, psi) -> np.ndarray:
    """psi on (edge_left, r_{-1}, a_0..a_{n-1}), with r_{-1} the identity copy of
    the edge leg, so that the first _mpo_step contracts site 0 like any other."""
    psi = np.asarray(psi, dtype=np.complex128).reshape([tensors[0].d] * len(tensors))
    return np.multiply.outer(np.eye(tensors[0].D), psi)


def direct_mpo_state(tensors, psi) -> np.ndarray:
    """Direct contraction of the open MPO chain applied to the input ``psi``,
    on axes (edge_left, o_1, ..., o_n, edge_right)."""
    cur = _mpo_input(tensors, psi)
    for k, o in enumerate(tensors):
        cur = _mpo_step(cur, o.array(), k)
    return cur


def apply_mpo_via_protocol(tensors, input_state, seed: int = 0, tol: float = DEFAULT_TOL) -> ProtocolRun:
    """Apply a chain of MPO tensors to an input state through one MF round.

    Each site isometry |a> -> sum_{l,o,r} O^{(o,a)}_{lr} |l,o,r>/sqrt(D) is
    applied, interior bonds are Born-sampled as soon as both halves exist,
    defects are pushed right via phys_out corrections, and the final defect is
    cancelled on the right edge leg.  The result lives on
    (edge_left, phys_out^n, edge_right) and is compared with the direct
    contraction.  Chains are open: a periodic chain cannot be corrected
    deterministically, so it is not sampled.
    """
    tensors = list(tensors)
    n = len(tensors)
    basis, completed = _validate_mpo_chain(tensors, tol)
    check_protocol_sites(n, tensors[0].d, tensors[0].D)
    rng = philox_rng(seed)
    arrays = [o.array() / np.sqrt(basis.dim) for o in tensors]
    state = _mpo_step(_mpo_input(tensors, input_state), arrays[0], 0)
    outcomes, probs = [], []
    for k in range(1, n):
        branches = [_mpo_step(state, arrays[k], k, bond_projector(basis, j))
                    for j in range(len(basis.elements))]
        j, p = born_choice([float(np.vdot(x, x).real) for x in branches], rng)
        outcomes.append(j)
        probs.append(p)
        state = branches[j]

    corrections, edge_fix, _ = push_chain_defects(completed, basis, outcomes, "open")
    state = apply_chain_corrections(state, corrections, edge_fix, "open")

    target = direct_mpo_state(tensors, input_state)
    fid = state_fidelity(state, target)
    legs = ("edge_left",) + tuple(f"out{k}" for k in range(n)) + ("edge_right",)
    return ProtocolRun(seed, RNG_ALGORITHM, outcomes, probs, corrections,
                       DenseTensor(state, legs), fid, fid >= 1 - max(tol, VERDICT_FLOOR), True)

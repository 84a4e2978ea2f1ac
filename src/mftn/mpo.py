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

from .errors import (
    BoundaryError,
    DefectStuckError,
    DimensionMismatchError,
    SizeGuardError,
    SymmetryError,
)
from .mps import MPSTensor, check_mf_symmetry, complete_constraints, per_distinct
from .protocol import (
    RNG_ALGORITHM,
    EnumerationReport,
    ProtocolRun,
    apply_chain_corrections,
    bond_projector,
    born_choice,
    enumerate_branches,
    philox_rng,
    push_chain_defects,
)
from .tensors import (DEFAULT_TOL, UNITARY_FLOOR, VERDICT_FLOOR, DenseTensor, fix_global_phase,
                      gram_proportionality, isometry_residual, proportionality, state_fidelity)

MPO_LEGS = ("left", "right", "phys_in", "phys_out")


class MPOTensor:
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
        self.constraints = list(constraints)

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
    """Slices with their ``isometry_residual``s, judged at max(tol, VERDICT_FLOOR), and
    the absolute orthogonality residual ||sum_o A_a^o A_b^o† - delta_ab I||, judged at tol."""

    slices: list
    isometry_residuals: list
    orthogonality_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            max(self.isometry_residuals, default=0.0) < max(self.tol, VERDICT_FLOOR)
            and self.orthogonality_residual < self.tol
        )


def mpo_slices(O: MPOTensor, tol: float = DEFAULT_TOL) -> SliceReport:
    """Slices V_a: C^D -> C^{dD} with their isometry and orthogonality checks.

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
    iso = [isometry_residual(v) for v in slices]
    pair = np.einsum("oalr,obmr->ablm", arr, arr.conj())
    want = np.einsum("ab,lm->ablm", np.eye(d), np.eye(D))
    return SliceReport(slices, iso, float(np.linalg.norm(pair - want)), tol)


def build_purifying_unitary(O: MPOTensor, tol: float = DEFAULT_TOL) -> DenseTensor:
    """U on C^{d D} with U(|a> x |l>) = V_a |l>; columns indexed by (a, l).

    Unitarity is equivalent to slice orthogonality; every push-through
    constraint lifts to U (I_d x P) = (U_P† x P') U and is re-verified.
    """
    report = mpo_slices(O, tol)
    if not report.passed:
        raise SymmetryError("slice orthogonality fails; purification is not unitary")
    d, D = O.d, O.D
    u = np.zeros((d * D, d * D), dtype=np.complex128)
    for a, v in enumerate(report.slices):
        u[:, a * D : (a + 1) * D] = v
    if isometry_residual(u) > max(tol, VERDICT_FLOOR):
        raise SymmetryError("assembled purification is not unitary")
    for c in O.constraints:
        p = O.basis.elements[c.p_in]
        pp = O.basis.elements[c.p_out]
        # the slice symmetry lifts to U (I_d x P^T) = (U_P† x P'^T) U
        lhs = u @ np.kron(np.eye(d), p.T)
        rhs = np.kron(c.u_phys.conj().T, pp.T) @ u
        if np.linalg.norm(lhs - rhs) > max(tol, UNITARY_FLOOR) * np.linalg.norm(u):
            raise SymmetryError("purifying unitary violates a push-through constraint")
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
        and np.allclose(c1.u_phys, c2.u_phys, atol=tol)
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


def check_protocol_sites(n: int) -> None:
    """Refuse MPO protocol chains longer than ``MAX_PROTOCOL_SITES``.

    Callers that build a d^n input check this before allocating it.
    """
    if n > MAX_PROTOCOL_SITES:
        raise SizeGuardError(f"MPO protocol chains are capped at {MAX_PROTOCOL_SITES} sites")


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


def direct_mpo_state(tensors, psi, bond_ops=None, boundary: str = "open") -> np.ndarray:
    """Direct contraction of the MPO chain applied to the input ``psi``.

    ``bond_ops[b]`` is an optional matrix on the bond after site b, and
    periodic chains trace the wrap bond.  Output axes: (edge_left, o_1, ...,
    o_n, edge_right) for open chains, (o_1, ..., o_n) for periodic ones.
    """
    tensors = list(tensors)
    nbonds = len(tensors) if boundary == "periodic" else len(tensors) - 1
    bond_ops = list(bond_ops) if bond_ops is not None else [None] * nbonds
    if len(bond_ops) != nbonds:
        raise DimensionMismatchError(f"need {nbonds} bond entries")
    cur = _mpo_input(tensors, psi)
    cur = _mpo_step(cur, tensors[0].array(), 0)
    for k in range(1, len(tensors)):
        cur = _mpo_step(cur, tensors[k].array(), k, bond_ops[k - 1])
    if boundary == "open":
        return cur
    if boundary != "periodic":
        raise BoundaryError(f"unknown boundary {boundary!r}")
    if bond_ops[-1] is not None:
        cur = np.tensordot(cur, bond_ops[-1], axes=([-1], [0]))
    return np.trace(cur, axis1=0, axis2=cur.ndim - 1)


def apply_mpo_via_protocol(tensors, input_state, boundary: str = "open", seed: int = 0,
                           tol: float = DEFAULT_TOL) -> ProtocolRun:
    """Apply a chain of MPO tensors to an input state through one MF round.

    Each site isometry |a> -> sum_{l,o,r} O^{(o,a)}_{lr} |l,o,r>/sqrt(D) is
    applied, interior bonds are Born-sampled as soon as both halves exist,
    defects are pushed right via phys_out corrections, and the final defect is
    cancelled on the right edge leg.  The result lives on
    (edge_left, phys_out^n, edge_right) and is compared with the direct
    contraction; periodic chains are deliberately not sampled (post-selected
    accounting only, see ``periodic_mpo_accounting``).
    """
    if boundary != "open":
        raise BoundaryError("protocol application supports open boundaries only")
    tensors = list(tensors)
    n = len(tensors)
    check_protocol_sites(n)
    basis, completed = _validate_mpo_chain(tensors, tol)
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


def periodic_mpo_accounting(tensors, input_state, tol: float = DEFAULT_TOL) -> EnumerationReport:
    """Exact post-selection accounting for periodic MPO application.

    Periodic chains cannot be corrected deterministically; this enumerates
    every outcome tuple, reports its exact Born weight (normalised by the
    unmeasured norm |psi|^2 D^n), and verifies that the correctable branches
    (merged defect proportional to the identity) reproduce the direct
    periodic MPO action.  No sampling is performed.
    """
    tensors = list(tensors)
    basis, completed = _validate_mpo_chain(tensors, tol)
    n = len(tensors)
    D = basis.dim
    if (D * D) ** n > 4096:
        raise SizeGuardError("periodic accounting exceeds the desk-scale guard")
    psi = np.asarray(input_state, dtype=np.complex128)
    norm_free = np.vdot(psi, psi).real * D**n
    target = direct_mpo_state(tensors, psi, boundary="periodic")

    def branch(combo):
        state = direct_mpo_state(tensors, psi, [bond_projector(basis, j) for j in combo], "periodic")
        # push bond defects into the wrap bond, correcting the o legs
        try:
            corrections, _, ok = push_chain_defects(completed, basis, combo, "periodic")
        except DefectStuckError:
            corrections, ok = [], False
        state = apply_chain_corrections(state, corrections, None, "periodic")
        p = np.vdot(state, state).real / norm_free
        if not ok:
            return p, False, None
        return p, True, state_fidelity(state, target)

    return enumerate_branches(D * D, n, branch)

"""MPS tensors with measurement-feedback symmetry: checking, solving, structure.

Conventions
-----------
An MPS tensor A with legs (left, phys, right) of dimensions (D, d, D) is
flattened to the d x D^2 matrix B = A.matrix(["phys"], ["left", "right"]).
A symmetry constraint (P, U_P, P') states, per physical index,

    sum_j (U_P)_{ij} P A^j = A^i P'      (A^j the D x D matrix at phys = j)

equivalently U_P B (P^T x I) = B (I x P').  The polar split B = V Q then gives
[Q, P^* x P'] = 0 and V† U_P V = (P^* x P') R with R the projector onto
range(Q), and the SPT-type analytic solution reads Q = sum_i alpha_i P_i^* x P_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import clifford as qc
from .basis import MFBasis, check_group_closure, wh_generators
from .errors import (
    BoundaryError,
    DimensionMismatchError,
    NonGroupBasisError,
    NonPrimeDimensionError,
    SymmetryError,
)
from .tensors import (
    DenseTensor,
    contract,
    default_tol,
    nullspace,
    numerical_rank,
    polar_nd,
    procrustes_unitary,
    projector_onto,
    proportionality,
    random_unitary,
)


@dataclass(frozen=True)
class SymmetryConstraint:
    """One push-through relation (P_in on left, U on phys, P_out on right)."""

    p_in: int
    u_phys: np.ndarray
    p_out: int

    def __post_init__(self):
        u = np.asarray(self.u_phys, dtype=np.complex128)
        if np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])) > 1e-7 * u.shape[0]:
            raise ValueError("u_phys must be unitary")
        u.setflags(write=False)
        object.__setattr__(self, "u_phys", u)

    def __iter__(self):
        """Unpack as (p_in, u_phys, p_out), the form of a constraint tuple."""
        return iter((self.p_in, self.u_phys, self.p_out))


class MPSTensor:
    """An MPS tensor bound to an MF basis and its symmetry constraints."""

    def __init__(self, tensor: DenseTensor, basis: MFBasis, constraints=()):
        if set(tensor.legs) != {"left", "phys", "right"}:
            raise DimensionMismatchError("MPS tensor needs legs left/phys/right")
        if tensor.leg_dim("left") != basis.dim or tensor.leg_dim("right") != basis.dim:
            raise DimensionMismatchError("virtual legs must match the basis dimension")
        self.tensor = tensor
        self.basis = basis
        self.constraints = list(constraints)

    @property
    def d(self) -> int:
        return self.tensor.leg_dim("phys")

    @property
    def D(self) -> int:
        return self.basis.dim

    def as_matrix(self) -> np.ndarray:
        """d x D^2 flattening, columns (left, right) row-major."""
        return self.tensor.matrix(["phys"], ["left", "right"])

    def site_matrices(self) -> list[np.ndarray]:
        """A^i as D x D matrices (left row, right column)."""
        t = self.tensor.transpose_to(("phys", "left", "right"))
        return [np.array(t.data[i]) for i in range(self.d)]

    @classmethod
    def from_site_matrices(cls, mats, basis: MFBasis, constraints=()) -> "MPSTensor":
        arr = np.stack([np.asarray(m, dtype=np.complex128) for m in mats])
        return cls(DenseTensor(arr, ("phys", "left", "right")), basis, constraints)


@dataclass
class SymmetryReport:
    residuals: list[float]
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


def check_mf_symmetry(A: MPSTensor, tol: float | None = None) -> SymmetryReport:
    """Relative residual of every push-through constraint."""
    b = A.as_matrix()
    eye = np.eye(A.D)
    scale = max(np.linalg.norm(b), 1e-300)
    residuals = []
    for c in A.constraints:
        win = np.kron(A.basis.elements[c.p_in].T, eye)
        wout = np.kron(eye, A.basis.elements[c.p_out])
        residuals.append(float(np.linalg.norm(c.u_phys @ b @ win - b @ wout)) / scale)
    return SymmetryReport(residuals, default_tol(tol))


def _constraint_row(basis, d, p_in, u, p_out):
    """Matrix of B -> U B (P^T x I) - B (I x P') acting on row-major vec(B)."""
    eye = np.eye(basis.dim)
    win = np.kron(basis.elements[p_in].T, eye)
    wout = np.kron(eye, basis.elements[p_out])
    return np.kron(u, win.T) - np.kron(np.eye(d), wout.T)


def solve_symmetry_family(
    basis: MFBasis,
    constraints,
    d: int,
    D: int | None = None,
    tol: float | None = None,
    rng: np.random.Generator | None = None,
) -> list[MPSTensor]:
    """Orthonormal basis of all A satisfying the given constraints.

    Each constraint is linear in vec(A); the family is the joint null space.
    A constraint may carry ``u_phys=None`` to request a jointly solved
    correction unitary (alternating least squares, seeded from P^* x P' when
    d = D^2 and from the identity plus random restarts otherwise).
    """
    D = basis.dim if D is None else D
    if D != basis.dim:
        raise DimensionMismatchError("D must equal the basis dimension")
    triples = [(basis.index(p_in), u, basis.index(p_out)) for p_in, u, p_out in constraints]
    if any(u is None for _, u, _ in triples):
        triples = _solve_unknown_corrections(basis, triples, d, rng)
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


def _solve_unknown_corrections(basis, triples, d, rng):
    """Alternating least squares over (A, unknown U_P) with restarts.

    ``triples`` are (p_in index, U or None, p_out index); the result fills
    every None with the solved correction.
    """
    rng = rng or np.random.default_rng(7)
    D = basis.dim
    eye = np.eye(D)
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
                lhs = b @ np.kron(basis.elements[p_in].T, eye)
                rhs = b @ np.kron(eye, basis.elements[p_out])
                new_us.append(procrustes_unitary(rhs, lhs))
            if all(np.allclose(a, c, atol=1e-13) for a, c in zip(us, new_us)):
                break
            us = new_us
        if best is None or resid < best[0]:
            best = (resid, us)
        if best[0] < 1e-10:
            break
    return [(p_in, u, p_out) for (p_in, _, p_out), u in zip(triples, best[1])]


def canonical_form_check(A: MPSTensor, tol: float | None = None):
    """Verify sum_i A^i A^i† is proportional to the identity; returns the constant."""
    ket = A.tensor
    bra = DenseTensor(ket.data.conj(), [f"{leg}'" for leg in ket.legs], copy=False)
    acc = contract(ket, bra, [("phys", "phys'"), ("right", "right'")]).data
    const, resid = proportionality(acc, np.eye(A.D))
    return resid < default_tol(tol), complex(const), float(resid)


@dataclass
class PolarSplit:
    """A = V Q with Q PSD Hermitian on (left, right) and R = V† V."""

    V: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    source: MPSTensor
    rank: int
    reconstruction_residual: float
    commutant_residuals: list[float] = field(default_factory=list)
    null_space_match: bool = True


def commutant_operator(basis: MFBasis, p_in: int, p_out: int) -> np.ndarray:
    """P^* x P' on the flattened (left, right) pair; commutes with Q."""
    return np.kron(basis.elements[p_in].conj(), basis.elements[p_out])


def split_polar(A: MPSTensor, tol: float | None = None) -> PolarSplit:
    """Polar decomposition of the flattened tensor plus its symmetry checks."""
    t = default_tol(tol)
    rep = check_mf_symmetry(A, t)
    if not rep.passed:
        raise SymmetryError(f"MF symmetry fails with residual {rep.max_residual:.3e}")
    b = A.as_matrix()
    v, q = polar_nd(b, t)
    r = v.conj().T @ v
    scale = max(np.linalg.norm(q), 1e-300)
    resids = [
        float(np.linalg.norm(q @ s - s @ q)) / scale
        for s in (commutant_operator(A.basis, c.p_in, c.p_out) for c in A.constraints)
    ]
    return PolarSplit(
        V=v,
        Q=q,
        R=r,
        source=A,
        rank=numerical_rank(q, t),
        reconstruction_residual=float(np.linalg.norm(v @ q - b)) / scale,
        commutant_residuals=resids,
        null_space_match=numerical_rank(q, t) == numerical_rank(v, t),
    )


@dataclass
class CorrectionReport:
    residuals: list[float]
    bare_discrepancies: list[float]
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.residuals, default=0.0) < self.tol


def correction_consistency(split: PolarSplit, tol: float | None = None) -> CorrectionReport:
    """Check V† U_P V = (P^* x P') R for every constraint.

    ``bare_discrepancies`` records the distance to the unprojected P^* x P';
    it vanishes only for injective tensors.
    """
    A = split.source
    resids, bare = [], []
    for c in A.constraints:
        lhs = split.V.conj().T @ c.u_phys @ split.V
        s = commutant_operator(A.basis, c.p_in, c.p_out)
        resids.append(float(np.linalg.norm(lhs - s @ split.R)))
        bare.append(float(np.linalg.norm(lhs - s)))
    return CorrectionReport(resids, bare, default_tol(tol))


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


@dataclass
class CliffordMagicForm:
    """V_Q = scale * U_C (psi x I_D): Q read sideways as an isometry."""

    u_c: np.ndarray
    psi: np.ndarray
    scale: float
    reconstruction_residual: float
    basis: MFBasis


def sideways_isometry(split: PolarSplit) -> np.ndarray:
    """Q[(b,c),(a,d)] rearranged to the D^3 x D map a -> (b, c, d)."""
    D = split.source.D
    q4 = split.Q.reshape(D, D, D, D)
    return q4.transpose(0, 1, 3, 2).reshape(D**3, D)


def clifford_magic_decompose(
    split: PolarSplit, basis: MFBasis, tol: float | None = None
) -> CliffordMagicForm:
    """Extract the sideways Clifford form of Q.

    A Clifford U_C is synthesized with U_C (I x I x S) U_C† equal to the
    symmetry image (S x M(S^T)† x M(S^T)^T) of V_Q for the generators
    S in {X, Z}; psi is then recovered from U_C† V_Q = psi x I_D.
    """
    A = split.source
    if basis.dim != A.basis.dim:
        raise DimensionMismatchError("basis mismatch with the split source")
    D = basis.dim
    generators = wh_generators(basis)
    if not qc._is_prime(D):
        raise NonPrimeDimensionError("clifford form needs prime virtual dimension")

    completed = complete_constraints(A)
    v_q = sideways_isometry(split)

    images = []
    for slot_gen, pre_idx in generators:
        if pre_idx not in completed:
            raise SymmetryError(
                f"no constraint pushes basis element {basis.labels[pre_idx]}"
            )
        img = basis.elements[completed[pre_idx][1]]
        target = np.kron(slot_gen, np.kron(img.conj().T, img.T))
        src = qc.matrix_to_pauli(np.kron(np.eye(D * D), slot_gen), 3, D)
        tgt = qc.matrix_to_pauli(target, 3, D)
        if src is None or tgt is None:
            raise SymmetryError("generator image is not a Weyl-Heisenberg string")
        images.append((src, tgt))

    u_c = qc.synthesize_clifford(qc.PartialCliffordMap(3, D, tuple(images))).data
    psi, scale, resid = factor_sideways_isometry(u_c, v_q)
    return CliffordMagicForm(u_c, psi, scale, resid, basis)


def factor_sideways_isometry(u_c: np.ndarray, v_q: np.ndarray):
    """Factor V_Q = scale * U_C (psi x I_k) for a k-column sideways isometry.

    psi is read off the wire trace of U_C† V_Q, normalized, and phase-fixed
    so that its largest entry is real positive.  Returns (psi, scale,
    relative reconstruction residual).
    """
    k = v_q.shape[1]
    w = (u_c.conj().T @ v_q).reshape(-1, k, k)
    psi = np.einsum("paa->p", w) / k
    nrm = float(np.linalg.norm(psi))
    if nrm < 1e-12:
        raise SymmetryError("sideways isometry does not factor through the Clifford")
    psi = psi / nrm
    lead = psi[np.argmax(np.abs(psi))]
    psi = psi * (abs(lead) / lead)
    recon = u_c @ np.kron(psi[:, None], np.eye(k))
    scale, _ = proportionality(v_q, recon)
    resid = float(np.linalg.norm(v_q - scale * recon)) / max(np.linalg.norm(v_q), 1e-300)
    return psi, abs(scale), resid


def is_stabilizer_state(psi: np.ndarray, n: int, d: int, tol: float = 1e-7) -> bool:
    """Exhaustive Pauli test: stabilizer iff |<psi|XZ(a)|psi>| = 1 on d^n classes."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    count = 0
    for a in np.ndindex(*([d] * (2 * n))):
        p = qc.PauliVector(n, d, a[:n], a[n:], 0)
        if abs(abs(np.vdot(psi, p.matrix() @ psi)) - 1.0) < tol:
            count += 1
    return count == d**n


def _q_to_mps_tensor(q: np.ndarray, basis: MFBasis) -> DenseTensor:
    """(D^2, D^2) matrix with rows (b,c), cols (a,d) -> legs (left, phys, right)."""
    D = basis.dim
    return DenseTensor(
        q.reshape(D, D, D, D).transpose(2, 0, 1, 3).reshape(D, D * D, D),
        ("left", "phys", "right"),
    )


def spt_solution(basis: MFBasis, alpha, tol: float | None = None) -> MPSTensor:
    """Q = sum_i alpha_i P_i^* x P_i as an MPS tensor with a physical pair leg.

    The attached constraints are SPT-type: (P_i, P_i^* x P_i, P_i) for every
    basis element.  Requires an abelian group basis.
    """
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    if alpha.shape[0] != len(basis.elements):
        raise DimensionMismatchError("alpha needs one coefficient per basis element")
    if not alpha.any():
        raise ValueError("alpha must be nonzero")
    require_abelian(basis)
    q = sum(a * np.kron(p.conj(), p) for a, p in zip(alpha, basis.elements))
    constraints = [
        SymmetryConstraint(i, np.kron(p.conj(), p), i) for i, p in enumerate(basis.elements)
    ]
    out = MPSTensor(_q_to_mps_tensor(q, basis), basis, constraints)
    rep = check_mf_symmetry(out, tol)
    if not rep.passed:
        raise SymmetryError(f"analytic solution fails its own symmetry: {rep.max_residual:.3e}")
    return out


def require_abelian(basis: MFBasis) -> None:
    if basis.cocycle is None:
        basis.cocycle = check_group_closure(basis)
    if basis.cocycle is None:
        raise NonGroupBasisError("operation requires a group basis")
    idx, _ = basis.product_table()
    if not np.array_equal(idx, idx.T):
        raise NonGroupBasisError("operation requires an abelian quotient group")


def spt_family_projector(basis: MFBasis) -> np.ndarray:
    """Projector onto span{vec(P_i^* x P_i)} in flattened tensor space."""
    cols = [
        _q_to_mps_tensor(np.kron(p.conj(), p), basis).transpose_to(("phys", "left", "right")).data.reshape(-1)
        for p in basis.elements
    ]
    return projector_onto(np.stack(cols, axis=1))


@dataclass
class MapOrderResult:
    bijective: bool
    order: int | None
    image: dict[int, int]


def map_order(A_or_constraints, basis: MFBasis | None = None) -> MapOrderResult:
    """Bijectivity and permutation order of the induced map P_in -> P_out.

    Given an MPSTensor over a group basis, the constraint set is first closed
    over products so that derived elements participate in the map.
    """
    if isinstance(A_or_constraints, MPSTensor):
        A = A_or_constraints
        basis = A.basis
        try:
            pairs = {i: out for i, (_, out) in complete_constraints(A).items()}
        except NonGroupBasisError:
            pairs = {c.p_in: c.p_out for c in A.constraints}
    else:
        if basis is None:
            raise ValueError("basis required when passing bare constraints")
        pairs = {basis.index(p_in): basis.index(p_out) for p_in, _, p_out in A_or_constraints}
    n = len(basis.elements)
    total = len(pairs) == n
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
    completed constraint set at every one of the k steps.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        return A
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


def pauli_expectation(family, pauli_string, boundary: str = "open") -> complex:
    """Weyl-Heisenberg string expectation on a chain of Q-form tensors.

    Site tensors must be Q-form (physical dimension D^2) over a prime-D
    Weyl-Heisenberg basis; the string holds one 2-qudit Pauli per site.
    The string is pushed backwards through the sideways Clifford structure,
    so the cost is linear in the chain length.  Edge virtual legs stay open,
    and the value matches the dense contraction of the unnormalized chain.
    """
    if boundary != "open":
        raise BoundaryError("only open boundaries are supported")
    if not family:
        raise ValueError("empty chain")
    basis = family[0].basis
    D = basis.dim
    if any(t.basis.dim != D for t in family):
        raise DimensionMismatchError("all tensors must share one basis dimension")
    if len(pauli_string) != len(family):
        raise DimensionMismatchError("need one two-qudit Pauli per site")
    site_forms = per_distinct(family, lambda t: clifford_magic_decompose(split_polar(t), basis))

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


def chain_state(family, bond_ops=None, boundary: str = "open") -> np.ndarray:
    """Dense chain contraction; open boundaries keep edge legs as axes 0 and -1.

    ``bond_ops[b]`` is an optional matrix inserted on the bond after site b;
    periodic chains trace the wrap bond (with its optional insertion).
    """
    n = len(family)
    nbonds = n if boundary == "periodic" else n - 1
    bond_ops = list(bond_ops) if bond_ops is not None else [None] * nbonds
    if len(bond_ops) != nbonds:
        raise DimensionMismatchError(f"need {nbonds} bond entries")
    cur = np.stack(family[0].site_matrices())  # (d0, D, D)
    for k in range(1, n):
        if bond_ops[k - 1] is not None:
            cur = np.einsum("...lr,rs->...ls", cur, bond_ops[k - 1])
        nxt = np.stack(family[k].site_matrices())
        cur = np.einsum("...lr,prs->...pls", cur, nxt)
    if boundary == "open":
        return np.moveaxis(cur, -2, 0)  # (D_left, d_1..d_n, D_right)
    if boundary == "periodic":
        if bond_ops[n - 1] is not None:
            cur = np.einsum("...lr,rs->...ls", cur, bond_ops[n - 1])
        return np.einsum("...ll->...", cur)
    raise BoundaryError(f"unknown boundary {boundary!r}")

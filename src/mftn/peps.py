"""MF PEPS: push-through symmetries, isometry structure, topological solutions,
and transfer-matrix spectra.

Conventions
-----------
A PEPS tensor A with legs (left, up, right, down, phys) is flattened to the
d x D^4 matrix B = A.matrix(["phys"], ["left", "up", "right", "down"]).
Push-through constraints come in two families:

    A-type (P, U, P1, P2):  U B (P^T x I x I x I) = B (I x P1 x P2 x I)
    B-type (P, U, P1, P2):  U B (I x I x I x P^T) = B (I x P1 x P2 x I)

so defects entering on the left or down leg are pushed to the up/right legs.
The polar split B = V Q gives [Q, P^* x P1 x P2 x I] = 0 (A-type) and
[Q, I x P1 x P2 x P^*] = 0 (B-type).  For an abelian group basis the
topological solution is Q = sum_i alpha_i (P_i^* x P_i x P_i x P_i^*).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import clifford as qc
from .basis import MFBasis, wh_generators
from .errors import (
    DimensionMismatchError,
    NonGroupBasisError,
    NonPrimeDimensionError,
    SizeGuardError,
    SymmetryError,
)
from .mps import factor_sideways_isometry, require_abelian
from .tensors import (
    DenseTensor,
    default_tol,
    first_unitary_fit,
    numerical_rank,
    polar_nd,
    proportionality,
)

VIRTUAL_LEGS = ("left", "up", "right", "down")


@dataclass(frozen=True)
class PEPSConstraint:
    """(P_in, U on phys, P_out on up, P_out on right)."""

    p_in: int
    u_phys: np.ndarray
    out_up: int
    out_right: int

    def __post_init__(self):
        u = np.asarray(self.u_phys, dtype=np.complex128)
        if np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])) > 1e-7 * u.shape[0]:
            raise ValueError("u_phys must be unitary")
        u.setflags(write=False)
        object.__setattr__(self, "u_phys", u)


class PEPSTensor:
    """A five-leg PEPS tensor bound to an MF basis and its constraints."""

    def __init__(self, tensor: DenseTensor, basis: MFBasis, constraints_a=(), constraints_b=()):
        if set(tensor.legs) != set(VIRTUAL_LEGS) | {"phys"}:
            raise DimensionMismatchError("PEPS tensor needs legs left/up/right/down/phys")
        for leg in VIRTUAL_LEGS:
            if tensor.leg_dim(leg) != basis.dim:
                raise DimensionMismatchError("virtual legs must match the basis dimension")
        self.tensor = tensor
        self.basis = basis
        self.constraints_a = list(constraints_a)
        self.constraints_b = list(constraints_b)

    @property
    def d(self) -> int:
        return self.tensor.leg_dim("phys")

    @property
    def D(self) -> int:
        return self.basis.dim

    def as_matrix(self) -> np.ndarray:
        """d x D^4 flattening with columns (left, up, right, down) row-major."""
        return self.tensor.matrix(["phys"], list(VIRTUAL_LEGS))

    @classmethod
    def from_matrix(cls, b: np.ndarray, basis: MFBasis, constraints_a=(), constraints_b=()):
        D = basis.dim
        d = b.shape[0]
        t = DenseTensor(np.asarray(b).reshape(d, D, D, D, D), ("phys",) + VIRTUAL_LEGS)
        return cls(t.transpose_to(VIRTUAL_LEGS + ("phys",)), basis, constraints_a, constraints_b)


def slot_operator(basis: MFBasis, slot: int, m: np.ndarray) -> np.ndarray:
    """I x .. x m x .. x I on the four flattened virtual legs."""
    D = basis.dim
    ops = [np.eye(D)] * 4
    ops[slot] = m
    out = ops[0]
    for o in ops[1:]:
        out = np.kron(out, o)
    return out


def _in_op(basis, constraint_kind, p_idx):
    p = basis.elements[p_idx]
    slot = 0 if constraint_kind == "a" else 3
    return slot_operator(basis, slot, p.T)


def push_image_pairs(basis: MFBasis) -> list[tuple[int, int]]:
    """All (P1, P2) index pairs for the two out legs, single-leg pushes first."""
    n = len(basis.elements)
    ident = basis.identity_index
    return sorted(
        itertools.product(range(n), range(n)),
        key=lambda p: (p[0] != ident) + (p[1] != ident),
    )


def _out_op(basis, up_idx, right_idx):
    return slot_operator(basis, 1, basis.elements[up_idx]) @ slot_operator(
        basis, 2, basis.elements[right_idx]
    )


@dataclass
class PepsSymmetryReport:
    residuals_a: list[float]
    residuals_b: list[float]
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals_a + self.residuals_b, default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


def check_peps_mf_symmetry(A: PEPSTensor, tol: float | None = None) -> PepsSymmetryReport:
    """Relative residuals of the left-leg and down-leg push constraints."""
    b = A.as_matrix()
    scale = max(np.linalg.norm(b), 1e-300)
    res_a, res_b = [], []
    for kind, constraints, acc in (("a", A.constraints_a, res_a), ("b", A.constraints_b, res_b)):
        for c in constraints:
            lhs = c.u_phys @ b @ _in_op(A.basis, kind, c.p_in)
            rhs = b @ _out_op(A.basis, c.out_up, c.out_right)
            acc.append(float(np.linalg.norm(lhs - rhs)) / scale)
    return PepsSymmetryReport(res_a, res_b, default_tol(tol))


def peps_isometry_check(A: PEPSTensor, tol: float | None = None):
    """Contract A against itself over (phys, up, right): must be c * identity
    on the (left, down) pair."""
    t = A.tensor.transpose_to(("phys", "up", "right", "left", "down"))
    D = A.D
    m = t.data.reshape(A.d * D * D, D * D)
    gram = m.conj().T @ m
    const, resid = proportionality(gram, np.eye(D * D))
    return resid < default_tol(tol), complex(const), float(resid)


def commutant_a(basis: MFBasis, c: PEPSConstraint) -> np.ndarray:
    out = np.kron(basis.elements[c.p_in].conj(), basis.elements[c.out_up])
    return np.kron(out, np.kron(basis.elements[c.out_right], np.eye(basis.dim)))


def commutant_b(basis: MFBasis, c: PEPSConstraint) -> np.ndarray:
    out = np.kron(np.eye(basis.dim), basis.elements[c.out_up])
    return np.kron(out, np.kron(basis.elements[c.out_right], basis.elements[c.p_in].conj()))


@dataclass
class PepsCliffordForm:
    u_c: np.ndarray
    psi: np.ndarray
    scale: float
    reconstruction_residual: float


@dataclass
class PepsPolarSplit:
    V: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    source: PEPSTensor
    rank: int
    reconstruction_residual: float
    commutant_residuals_a: list[float] = field(default_factory=list)
    commutant_residuals_b: list[float] = field(default_factory=list)
    null_space_match: bool = True
    clifford: PepsCliffordForm | None = None
    clifford_error: str | None = None


def peps_split_polar(A: PEPSTensor, tol: float | None = None, want_clifford: bool = True) -> PepsPolarSplit:
    """Polar split over the grouped D^4 virtual space plus structure checks.

    Parts (i) and (ii) (null-space match and commutants) are always verified;
    the sideways Clifford form is attached for prime-D Weyl-Heisenberg bases
    and skipped with a recorded reason otherwise.
    """
    t = default_tol(tol)
    rep = check_peps_mf_symmetry(A, t)
    if not rep.passed:
        raise SymmetryError(f"PEPS MF symmetry fails with residual {rep.max_residual:.3e}")
    b = A.as_matrix()
    v, q = polar_nd(b, t)
    r = v.conj().T @ v
    scale = max(np.linalg.norm(q), 1e-300)
    res_a = [
        float(np.linalg.norm(q @ s - s @ q)) / scale
        for s in (commutant_a(A.basis, c) for c in A.constraints_a)
    ]
    res_b = [
        float(np.linalg.norm(q @ s - s @ q)) / scale
        for s in (commutant_b(A.basis, c) for c in A.constraints_b)
    ]
    split = PepsPolarSplit(
        V=v,
        Q=q,
        R=r,
        source=A,
        rank=numerical_rank(q, t),
        reconstruction_residual=float(np.linalg.norm(v @ q - b)) / scale,
        commutant_residuals_a=res_a,
        commutant_residuals_b=res_b,
        null_space_match=numerical_rank(q, t) == numerical_rank(v, t),
    )
    if want_clifford:
        try:
            split.clifford = _peps_clifford_form(split)
        except (NonPrimeDimensionError, NonGroupBasisError, SymmetryError) as exc:
            split.clifford_error = str(exc)
    return split


def _constraint_lookup(constraints, p_idx):
    for c in constraints:
        if c.p_in == p_idx:
            return c
    return None


def _peps_clifford_form(split: PepsPolarSplit) -> PepsCliffordForm:
    """Sideways Clifford form of Q: V_Q = scale * U_C (psi x I_{D^2}).

    V_Q reads Q as the isometry (left, down) -> (inner four legs, up, right);
    U_C on C^{D^6} matches the generator push-through images on the two wire
    slots, and psi lives on the four inner legs.
    """
    A = split.source
    basis = A.basis
    D = basis.dim
    if not qc._is_prime(D):
        raise NonPrimeDimensionError("clifford form needs prime virtual dimension")
    generators = wh_generators(basis)

    q8 = split.Q.reshape((D,) * 8)  # rows (lp,up,rp,dp), cols (l,u,r,d)
    v_q = q8.transpose(0, 1, 2, 3, 5, 6, 4, 7).reshape(D**6, D**2)

    def images_for(kind, wire_slot):
        out = []
        for gen, pre_idx in generators:
            constraints = A.constraints_a if kind == "a" else A.constraints_b
            c = _constraint_lookup(constraints, pre_idx)
            if c is None:
                raise SymmetryError(
                    f"missing {kind}-type constraint for {basis.labels[pre_idx]}"
                )
            p1 = basis.elements[c.out_up]
            p2 = basis.elements[c.out_right]
            inner = [np.eye(D)] * 4
            inner[0 if kind == "a" else 3] = gen
            inner[1:3] = [p1.conj().T, p2.conj().T]
            target = np.kron(functools.reduce(np.kron, inner), np.kron(p1.T, p2.T))
            src_mats = [np.eye(D)] * 6
            src_mats[wire_slot] = gen
            src_p = qc.matrix_to_pauli(functools.reduce(np.kron, src_mats), 6, D)
            tgt_p = qc.matrix_to_pauli(target, 6, D)
            if src_p is None or tgt_p is None:
                raise SymmetryError("push image is not a Weyl-Heisenberg string")
            out.append((src_p, tgt_p))
        return out

    images = images_for("a", 4) + images_for("b", 5)
    u_c = qc.synthesize_clifford(qc.PartialCliffordMap(6, D, tuple(images))).data
    psi, scale, resid = factor_sideways_isometry(u_c, v_q)
    return PepsCliffordForm(u_c, psi, scale, resid)


def topo_pattern(basis: MFBasis, m_idx: int) -> np.ndarray:
    """Domain operator M^T x M† x M† x M^T implementing the subgroup symmetry."""
    m = basis.elements[m_idx]
    out = np.kron(m.T, m.conj().T)
    return np.kron(out, np.kron(m.conj().T, m.T))


@dataclass(frozen=True)
class TopoSymmetrySpec:
    """Subgroup {M} of the MF group with the generator phase phi."""

    basis: MFBasis
    subgroup: tuple[int, ...]
    phi: float = 0.0

    def __post_init__(self):
        idx_tab, _ = self.basis.product_table()
        members = set(self.subgroup)
        for a in self.subgroup:
            for b in self.subgroup:
                if int(idx_tab[a, b]) not in members:
                    raise NonGroupBasisError("subgroup is not closed under multiplication")
        n = self.exponent()
        if abs(np.exp(1j * n * self.phi) - 1.0) > 1e-9:
            raise ValueError("n * phi must vanish mod 2 pi for the subgroup exponent n")

    def exponent(self) -> int:
        idx_tab, _ = self.basis.product_table()
        ident = self.basis.identity_index
        n = 1
        for g in self.subgroup:
            order, cur = 1, g
            while cur != ident:
                cur = int(idx_tab[cur, g])
                order += 1
            n = int(np.lcm(n, order))
        return n

    def generator(self) -> int | None:
        for g in self.subgroup:
            if g != self.basis.identity_index:
                return g
        return None


def topo_solution(basis: MFBasis, alpha, tol: float | None = None) -> PEPSTensor:
    """Q = sum_i alpha_i (P_i^* x P_i x P_i x P_i^*) with derived constraints.

    The push tables for the left and down legs are solved numerically per
    basis element (single-leg pushes are tried first, then all image pairs).
    """
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    if alpha.shape[0] != len(basis.elements):
        raise DimensionMismatchError("alpha needs one coefficient per basis element")
    if not alpha.any():
        raise ValueError("alpha must be nonzero")
    require_abelian(basis)
    q = sum(
        a * np.kron(np.kron(p.conj(), p), np.kron(p, p.conj()))
        for a, p in zip(alpha, basis.elements)
    )
    A = PEPSTensor.from_matrix(q, basis)
    A.constraints_a = derive_push_constraints(A, "a", tol)
    A.constraints_b = derive_push_constraints(A, "b", tol)
    rep = check_peps_mf_symmetry(A, tol)
    if not rep.passed:
        raise SymmetryError(f"analytic solution fails its own symmetry: {rep.max_residual:.3e}")
    return A


def derive_push_constraints(A: PEPSTensor, kind: str, tol: float | None = None):
    """Solve (U, P1, P2) per basis element for the requested constraint family.

    For each incoming element the correction unitary is obtained from the
    orthogonal Procrustes problem; candidate (P1, P2) image pairs are scanned
    with single-leg pushes first.
    """
    t = max(default_tol(tol), 1e-8)
    basis = A.basis
    b = A.as_matrix()
    scale = max(np.linalg.norm(b), 1e-300)
    pairs = push_image_pairs(basis)
    out = []
    for p_idx in range(len(basis.elements)):
        lhs = b @ _in_op(basis, kind, p_idx)
        candidates = (
            ((up_idx, right_idx), b @ _out_op(basis, up_idx, right_idx))
            for up_idx, right_idx in pairs
        )
        fit = first_unitary_fit(lhs, candidates, t * scale)
        if fit is None:
            raise SymmetryError(
                f"no ({kind})-type push exists for element {basis.labels[p_idx]}"
            )
        (up_idx, right_idx), u = fit
        out.append(PEPSConstraint(p_idx, u, up_idx, right_idx))
    return out


@dataclass
class TopoSymmetryReport:
    phases: dict[int, float]
    residuals: dict[int, float]
    coefficient_residual: float | None
    tol: float

    @property
    def passed(self) -> bool:
        ok = max(self.residuals.values(), default=0.0) < self.tol
        if self.coefficient_residual is not None:
            ok = ok and self.coefficient_residual < self.tol
        return ok


def check_topo_symmetry(
    A: PEPSTensor, spec: TopoSymmetrySpec, alpha=None, tol: float | None = None
) -> TopoSymmetryReport:
    """Verify A = e^{i phi_M} A (M-pattern) for every subgroup element.

    Extracted phases satisfy phi_{M^k} = k phi of the generator.  When the
    coefficient vector alpha is supplied, the relation
    alpha_{P_i M} = e^{i phi_M} alpha_{P_i} is checked as well.
    """
    t = default_tol(tol)
    b = A.as_matrix()
    phases: dict[int, float] = {}
    residuals: dict[int, float] = {}
    for m_idx in spec.subgroup:
        moved = b @ topo_pattern(A.basis, m_idx)
        factor, resid = proportionality(moved, b)
        residuals[m_idx] = resid
        phases[m_idx] = float(np.angle(factor)) if abs(factor) > 1e-12 else 0.0
    gen = spec.generator()
    if gen is not None and abs(np.exp(1j * phases[gen]) - np.exp(1j * spec.phi)) > max(t, 1e-7):
        residuals[gen] = max(residuals[gen], abs(np.exp(1j * phases[gen]) - np.exp(1j * spec.phi)))
    coeff_resid = None
    if alpha is not None:
        alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
        idx_tab, _ = A.basis.product_table()
        worst = 0.0
        for m_idx in spec.subgroup:
            ph = np.exp(1j * phases[m_idx])
            for i in range(len(alpha)):
                j = int(idx_tab[i, m_idx])
                worst = max(worst, abs(alpha[j] - ph * alpha[i]))
        coeff_resid = worst / max(np.linalg.norm(alpha), 1e-300)
    return TopoSymmetryReport(phases, residuals, coeff_resid, t)


@dataclass
class TransferSpectrum:
    L: int
    e_values: np.ndarray
    t_values: np.ndarray
    labels: list[str]
    degeneracy_of_max: int


def _degeneracy_of_max(values: np.ndarray, rel: float = 1e-8) -> int:
    mags = np.abs(values)
    top = mags.max() if mags.size else 0.0
    if top == 0.0:
        return int(mags.size)
    return int(np.sum(mags > top * (1 - rel)))


def transfer_spectrum_analytic(alpha, basis: MFBasis, L: int) -> TransferSpectrum:
    """Eigenvalues e_{P_i} = sum_j alpha_j conj(alpha_{P_i† P_j}) and t = e^L."""
    if L < 1:
        raise ValueError("L must be at least 1")
    require_abelian(basis)
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    idx_tab, _ = basis.product_table()
    dag_idx, _ = basis.dagger_table()
    n = len(basis.elements)
    e = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        di = int(dag_idx[i])
        e[i] = sum(alpha[j] * np.conj(alpha[int(idx_tab[di, j])]) for j in range(n))
    t = e**L
    return TransferSpectrum(L, e, t, list(basis.labels), _degeneracy_of_max(t))


def transfer_matrix_brute(Q: PEPSTensor, L: int) -> np.ndarray:
    """Dense eigenvalues of the length-L transfer ring built from E = A† A.

    Each site is normalized by 1/D^2 (one maximally-entangled bond per
    direction) so nonzero eigenvalues match the analytic t values directly.
    """
    D = Q.D
    if (D * D) ** (2 * L) > 4096 * 4096:
        raise SizeGuardError("transfer ring exceeds the desk-scale guard")
    b = Q.as_matrix()
    e = (b.conj().T @ b).reshape((D,) * 8) / D**2  # (l,u,r,d) bra x (l,u,r,d) ket
    # per-site tensor with paired legs (l, u, r, d) in bra/ket layers
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    terms = []
    out_up, out_dn = [], []
    pos = 0

    def take(k):
        nonlocal pos
        s = letters[pos : pos + k]
        pos += k
        return s

    hor = [take(2) for _ in range(L)]  # (bra, ket) horizontal bond labels per bond
    ups, dns = [], []
    for s in range(L):
        u = take(2)
        d = take(2)
        ups.append(u)
        dns.append(d)
        left = hor[(s - 1) % L]
        right = hor[s]
        terms.append(left[0] + u[0] + right[0] + d[0] + left[1] + u[1] + right[1] + d[1])
        out_up.append(u)
        out_dn.append(d)
    spec = ",".join(terms) + "->" + "".join(out_up) + "".join(out_dn)
    ring = np.einsum(spec, *([e] * L), optimize=True)
    dim = (D * D) ** L
    return np.linalg.eigvals(ring.reshape(dim, dim))


@dataclass
class DegeneracyReport:
    spectrum: TransferSpectrum
    subgroup_order: int
    max_value: float
    expected_max: float
    passed: bool


def degeneracy_report(spec: TopoSymmetrySpec, alpha, L: int, tol: float | None = None) -> DegeneracyReport:
    """Assert the m-fold degeneracy signature of the largest transfer eigenvalue.

    This is a signature only: degeneracy is also produced by symmetry-broken
    order, so no topological-order claim is made.
    """
    m = len(spec.subgroup)
    if L % m != 0:
        raise ValueError(f"L = {L} must be an integer multiple of the subgroup order {m}")
    t = default_tol(tol)
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    spectrum = transfer_spectrum_analytic(alpha, spec.basis, L)
    mx = float(np.abs(spectrum.t_values).max())
    expected = float(np.sum(np.abs(alpha) ** 2) ** L)
    ok = spectrum.degeneracy_of_max >= m and abs(mx - expected) <= max(t, 1e-9) * max(expected, 1.0)
    return DegeneracyReport(spectrum, m, mx, expected, ok)


@dataclass
class InjectivityReport:
    rank: int
    full_rank: int
    injective: bool
    consistent_with_spec: bool | None


def injectivity_check(A: PEPSTensor, spec: TopoSymmetrySpec | None = None, tol: float | None = None) -> InjectivityReport:
    """Numerical rank of A as a map from the virtual space to the physical one.

    With a nontrivial subgroup the tensor must be rank deficient.
    """
    b = A.as_matrix()
    rank = numerical_rank(b, tol)
    full = A.D**4
    injective = rank == full
    consistent = None
    if spec is not None:
        nontrivial = len(spec.subgroup) > 1
        consistent = (not injective) if nontrivial else True
    return InjectivityReport(rank, full, injective, consistent)


def complete_with_isometry(Q: PEPSTensor, tol: float | None = None) -> PEPSTensor:
    """Compress the physical leg of a Q-form tensor to rank(Q) via V.

    Returns A = V Q with V the canonical isometry from range(Q); the push
    constraints are re-derived for the compressed tensor.
    """
    t = default_tol(tol)
    b = Q.as_matrix()
    if b.shape[0] != Q.D**4:
        raise DimensionMismatchError("expected a Q-form tensor with physical dim D^4")
    evals, evecs = np.linalg.eigh((b + b.conj().T) / 2)
    keep = evals > t * max(evals.max(), 1e-300)
    v = evecs[:, keep].conj().T  # rank x D^4 isometry from range(Q)
    A = PEPSTensor.from_matrix(v @ b, Q.basis)
    A.constraints_a = derive_push_constraints(A, "a", tol)
    A.constraints_b = derive_push_constraints(A, "b", tol)
    return A


def bad_symmetry_obstruction(rows: int = 3, cols: int = 3) -> bool:
    """Exhaustive search showing the all-legs push cannot clear a bulk defect.

    The bad symmetry moves a defect from one leg of a site onto the other
    three, i.e. toggles all four legs of that site.  Over Z2 defect classes a
    single defect on an interior bond is correctable only if it lies in the
    span of the site stars restricted to interior bonds; the search over all
    site subsets confirms no correction exists on the given patch.
    """
    bonds: dict[tuple, int] = {}

    def bond_id(key):
        return bonds.setdefault(key, len(bonds))

    stars = []
    for r in range(rows):
        for c in range(cols):
            legs = []
            if c > 0:
                legs.append(bond_id(("h", r, c - 1)))
            if c < cols - 1:
                legs.append(bond_id(("h", r, c)))
            if r > 0:
                legs.append(bond_id(("v", r - 1, c)))
            if r < rows - 1:
                legs.append(bond_id(("v", r, c)))
            stars.append(legs)
    nbonds = len(bonds)
    target = np.zeros(nbonds, dtype=np.int64)
    target[bond_id(("h", rows // 2, cols // 2 - 1))] = 1
    for picks in itertools.product((0, 1), repeat=len(stars)):
        acc = target.copy()
        for s, on in enumerate(picks):
            if on:
                for leg in stars[s]:
                    acc[leg] ^= 1
        if not acc.any():
            return False
    return True

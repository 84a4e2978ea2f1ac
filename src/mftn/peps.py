"""MF PEPS: push-through symmetries, isometry structure, topological solutions,
and transfer-matrix spectra.

Conventions
-----------
A PEPS tensor A with legs (left, up, right, down, phys) is the four-leg case
of the MF tensors in ``mps``: it flattens to the d x D^4 matrix
B = A.matrix(["phys"], ["left", "up", "right", "down"]), defects enter on the
left and down legs and leave on the up and right ones.  Push-through
constraints come in two families:

    A-type (P, U, P1, P2):  U B (P^T x I x I x I) = B (I x P1 x P2 x I)
    B-type (P, U, P1, P2):  U B (I x I x I x P^T) = B (I x P1 x P2 x I)

The polar split B = V Q gives [Q, P^* x P1 x P2 x I] = 0 (A-type) and
[Q, I x P1 x P2 x P^*] = 0 (B-type).  For an abelian group basis the
topological solution is Q = sum_i alpha_i (P_i^* x P_i x P_i x P_i^*).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .basis import MFBasis
from .errors import (
    DimensionMismatchError,
    NonGroupBasisError,
    NonPrimeDimensionError,
    NotPositiveError,
    SizeGuardError,
    SymmetryError,
)
from .mps import (
    CliffordMagicForm,
    MFTensor,
    PolarSplit,
    Push,
    SymmetryReport,
    abelian_coefficients,
    clifford_form,
    polar_structure,
    require_abelian,
    solve_pushes,
    symmetry_report,
)
from .tensors import (DEFAULT_TOL, EIGEN_FLOOR, MATCH_FLOOR, NORM_GUARD, VERDICT_FLOOR, ZERO_FLOOR, DenseTensor,
                      gram_proportionality, numerical_rank, proportionality)

VIRTUAL_LEGS = ("left", "up", "right", "down")


@dataclass(frozen=True)
class PEPSConstraint(Push):
    """(P_in, U on phys, P_out on up, P_out on right)."""

    out_up: int
    out_right: int


class PEPSTensor(MFTensor):
    """A five-leg PEPS tensor bound to an MF basis and its constraints."""

    LEGS = VIRTUAL_LEGS
    IN_LEGS = (0, 3)

    def __init__(self, tensor: DenseTensor, basis: MFBasis, constraints_a=(), constraints_b=()):
        super().__init__(tensor, basis)
        self.constraints_a = list(constraints_a)
        self.constraints_b = list(constraints_b)

    def pushes(self) -> list:
        return [
            (c, in_leg, {1: c.out_up, 2: c.out_right})
            for in_leg, constraints in ((0, self.constraints_a), (3, self.constraints_b))
            for c in constraints
        ]

    @classmethod
    def from_matrix(cls, b: np.ndarray, basis: MFBasis, constraints_a=(), constraints_b=()):
        D = basis.dim
        d = b.shape[0]
        t = DenseTensor(np.asarray(b).reshape(d, D, D, D, D), ("phys",) + VIRTUAL_LEGS)
        return cls(t.transpose_to(VIRTUAL_LEGS + ("phys",)), basis, constraints_a, constraints_b)


def check_peps_mf_symmetry(A: PEPSTensor, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Relative residuals of the left-leg, then the down-leg push constraints."""
    return symmetry_report(A, tol)


def peps_isometry_check(A: PEPSTensor, tol: float = DEFAULT_TOL):
    """Contract A against itself over (phys, up, right): must be c * identity
    on the (left, down) pair."""
    return gram_proportionality(A.tensor, ["left", "down"], tol)


@dataclass
class PepsPolarSplit(PolarSplit):
    """A PolarSplit whose commutant residuals list the A-type constraints, then
    the B-type ones, with the sideways Clifford form or why it was skipped."""

    clifford: CliffordMagicForm | None = None
    clifford_error: str | None = None


def peps_split_polar(A: PEPSTensor, tol: float = DEFAULT_TOL, want_clifford: bool = True) -> PepsPolarSplit:
    """Polar split over the grouped D^4 virtual space plus structure checks.

    Parts (i) and (ii) (null-space match and commutants) are always verified;
    the sideways Clifford form is attached for prime-D Weyl-Heisenberg bases
    and skipped with a recorded reason otherwise.
    """
    check_peps_mf_symmetry(A, tol).require("PEPS MF symmetry fails with residual %.3e")
    split = polar_structure(A, tol, PepsPolarSplit)
    if want_clifford:
        try:
            split.clifford = clifford_form(split, A.basis)
        except (NonPrimeDimensionError, NonGroupBasisError, SymmetryError) as exc:
            split.clifford_error = str(exc)
    return split


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
        if abs(np.exp(1j * n * self.phi) - 1.0) > DEFAULT_TOL:
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


def topo_solution(basis: MFBasis, alpha, tol: float = DEFAULT_TOL) -> PEPSTensor:
    """Q = sum_i alpha_i (P_i^* x P_i x P_i x P_i^*) with derived constraints.

    The push tables for the left and down legs are solved numerically per
    basis element (single-leg pushes are tried first, then all image pairs).
    """
    alpha = abelian_coefficients(basis, alpha)
    q = sum(
        a * np.kron(np.kron(p.conj(), p), np.kron(p, p.conj()))
        for a, p in zip(alpha, basis.elements)
    )
    A = PEPSTensor.from_matrix(q, basis)
    A.constraints_a = derive_push_constraints(A, "a", tol)
    A.constraints_b = derive_push_constraints(A, "b", tol)
    check_peps_mf_symmetry(A, tol).require("analytic solution fails its own symmetry: %.3e")
    return A


def derive_push_constraints(A: PEPSTensor, kind: str, tol: float = DEFAULT_TOL):
    """Solve (U, P1, P2) per basis element for the requested constraint family.

    A-type pushes enter on the left leg, B-type ones on the down leg; see
    ``mps.solve_pushes`` for the search.
    """
    basis = A.basis
    fits = solve_pushes(
        A.as_matrix(), basis, (A.D,) * 4, 0 if kind == "a" else 3,
        [p.T for p in basis.elements], (1, 2), tol,
        lambda k: SymmetryError(f"no ({kind})-type push exists for element {basis.labels[k]}"),
    )
    return [PEPSConstraint(k, u, up, right) for k, ((up, right), u) in enumerate(fits)]


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
    A: PEPSTensor, spec: TopoSymmetrySpec, alpha=None, tol: float = DEFAULT_TOL
) -> TopoSymmetryReport:
    """Verify A = e^{i phi_M} A (M-pattern) for every subgroup element.

    Extracted phases satisfy phi_{M^k} = k phi of the generator.  When the
    coefficient vector alpha is supplied, the relation
    alpha_{P_i M} = e^{i phi_M} alpha_{P_i} is checked as well.
    """
    b = A.as_matrix()
    phases: dict[int, float] = {}
    residuals: dict[int, float] = {}
    for m_idx in spec.subgroup:
        moved = b @ topo_pattern(A.basis, m_idx)
        factor, resid = proportionality(moved, b)
        residuals[m_idx] = resid
        phases[m_idx] = float(np.angle(factor)) if abs(factor) > ZERO_FLOOR else 0.0
    gen = spec.generator()
    if gen is not None and abs(np.exp(1j * phases[gen]) - np.exp(1j * spec.phi)) > max(tol, MATCH_FLOOR):
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
        coeff_resid = worst / max(np.linalg.norm(alpha), NORM_GUARD)
    return TopoSymmetryReport(phases, residuals, coeff_resid, tol)


@dataclass
class TransferSpectrum:
    L: int
    e_values: np.ndarray
    t_values: np.ndarray
    labels: list[str]
    degeneracy_of_max: int


def _degeneracy_of_max(values: np.ndarray) -> int:
    mags = np.abs(values)
    top = mags.max() if mags.size else 0.0
    if top == 0.0:
        return int(mags.size)
    return int(np.sum(mags > top * (1 - EIGEN_FLOOR)))


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
    # per site: (bra, ket) labels of its left, up, right and down legs; the
    # horizontal bond right of site s is labelled (2s, 2s + 1)
    hor = [(2 * s, 2 * s + 1) for s in range(L)]
    ups = [(2 * L + 4 * s, 2 * L + 4 * s + 1) for s in range(L)]
    dns = [(2 * L + 4 * s + 2, 2 * L + 4 * s + 3) for s in range(L)]
    operands = []
    for s in range(L):
        legs = (hor[s - 1], ups[s], hor[s], dns[s])
        operands += [e, [bra for bra, _ in legs] + [ket for _, ket in legs]]
    out = [x for leg in ups + dns for x in leg]
    ring = np.einsum(*operands, out, optimize=True)
    dim = (D * D) ** L
    return np.linalg.eigvals(ring.reshape(dim, dim))


@dataclass
class DegeneracyReport:
    spectrum: TransferSpectrum
    subgroup_order: int
    max_value: float
    expected_max: float
    passed: bool


def degeneracy_report(spec: TopoSymmetrySpec, alpha, L: int, tol: float = DEFAULT_TOL) -> DegeneracyReport:
    """Assert the m-fold degeneracy signature of the largest transfer eigenvalue.

    This is a signature only: degeneracy is also produced by symmetry-broken
    order, so no topological-order claim is made.
    """
    m = len(spec.subgroup)
    if L % m != 0:
        raise ValueError(f"L = {L} must be an integer multiple of the subgroup order {m}")
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    spectrum = transfer_spectrum_analytic(alpha, spec.basis, L)
    mx = float(np.abs(spectrum.t_values).max())
    expected = float(np.sum(np.abs(alpha) ** 2) ** L)
    ok = spectrum.degeneracy_of_max >= m and abs(mx - expected) <= max(tol, VERDICT_FLOOR) * max(expected, 1.0)
    return DegeneracyReport(spectrum, m, mx, expected, ok)


@dataclass
class InjectivityReport:
    rank: int
    full_rank: int
    injective: bool
    consistent_with_spec: bool | None


def injectivity_check(A: PEPSTensor, spec: TopoSymmetrySpec | None = None, tol: float = DEFAULT_TOL) -> InjectivityReport:
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


def complete_with_isometry(Q: PEPSTensor, tol: float = DEFAULT_TOL) -> PEPSTensor:
    """Compress the physical leg of a Q-form tensor to rank(Q) via V.

    Returns A = V Q with V the canonical isometry from range(Q).  An exact
    push's U commutes with Q^2 and so keeps range(Q): each constraint of Q
    carries over as V U V† with the same images.  A's symmetry is checked,
    so constraints that do not hold on Q raise SymmetryError.  V spans the
    eigenvalues of Q's Hermitian part above tol·max|λ|, which is range(Q)
    only for a positive semidefinite Q: an eigenvalue below -tol·max|λ|, or
    none above the cut, raises NotPositiveError.
    """
    b = Q.as_matrix()
    if b.shape[0] != Q.D**4:
        raise DimensionMismatchError("expected a Q-form tensor with physical dim D^4")
    evals, evecs = np.linalg.eigh((b + b.conj().T) / 2)
    cut = tol * np.abs(evals).max()
    if evals.min() < -cut:
        raise NotPositiveError(f"Q is not positive semidefinite: eigenvalue {evals.min():.3e} "
                               f"of its Hermitian part is below -{cut:.3e}")
    keep = evals > cut
    if not keep.any():
        raise NotPositiveError("Q's Hermitian part has no eigenvalue above the cut, so range(Q) is empty")
    v = evecs[:, keep].conj().T  # rank x D^4 isometry from range(Q)
    try:
        carried = [[replace(c, u_phys=v @ c.u_phys @ v.conj().T) for c in cs]
                   for cs in (Q.constraints_a, Q.constraints_b)]
    except ValueError as exc:  # V U V† is not unitary: U leaves range(Q)
        raise SymmetryError(f"a push of Q leaves range(Q): {exc}") from exc
    A = PEPSTensor.from_matrix(v @ b, Q.basis, *carried)
    check_peps_mf_symmetry(A, tol).require("Q's pushes do not hold on V Q: residual %.3e")
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

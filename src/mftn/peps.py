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

from dataclasses import dataclass, replace

import numpy as np

from .basis import MFBasis
from .errors import (
    DimensionMismatchError,
    NonGroupBasisError,
    NonPrimeDimensionError,
    NotPositiveError,
    NumericalRangeError,
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
    range_unitary,
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
        self.constraints_a = tuple(constraints_a)
        self.constraints_b = tuple(constraints_b)

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


def peps_split_polar(A: PEPSTensor, tol: float = DEFAULT_TOL) -> PepsPolarSplit:
    """Polar split over the grouped D^4 virtual space plus structure checks.

    Parts (i) and (ii) (null-space match and commutants) are always verified;
    the sideways Clifford form is attached for prime-D Weyl-Heisenberg bases
    whose dense U_C is within MAX_DENSE_ELEMENTS, and skipped with a
    recorded reason otherwise.
    """
    check_peps_mf_symmetry(A, tol).require("PEPS MF symmetry fails with residual %.3e")
    split = polar_structure(A, tol, PepsPolarSplit)
    try:
        split.clifford = clifford_form(split, A.basis)
    except (NonPrimeDimensionError, NonGroupBasisError, SymmetryError, SizeGuardError) as exc:
        split.clifford_error = str(exc)
    return split


def topo_pattern(basis: MFBasis, m_idx: int) -> np.ndarray:
    """Domain operator M^T x M† x M† x M^T implementing the subgroup symmetry."""
    m = basis.elements[m_idx]
    out = np.kron(m.T, m.conj().T)
    return np.kron(out, np.kron(m.conj().T, m.T))


@dataclass(frozen=True)
class TopoSymmetrySpec:
    """Subgroup {M} of the MF group with the generator phase phi; n phi must
    vanish mod 2 pi within max(tol, MATCH_FLOOR), as ``check_topo_symmetry``
    judges the phase."""

    basis: MFBasis
    subgroup: tuple[int, ...]
    phi: float = 0.0
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        idx_tab, _ = self.basis.product_table()
        members = set(self.subgroup)
        for a in self.subgroup:
            for b in self.subgroup:
                if int(idx_tab[a, b]) not in members:
                    raise NonGroupBasisError("subgroup is not closed under multiplication")
        n = self.exponent()
        # a non-finite phi is refused before np.exp, which would warn on it
        if not (np.isfinite(self.phi) and abs(np.exp(1j * n * self.phi) - 1.0) <= max(self.tol, MATCH_FLOOR)):
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

    The left-leg (A-type) pushes are solved numerically per basis element
    (single-leg pushes are tried first, then all image pairs), as r x r blocks
    on an orthonormal basis L of range(Q).  Q does not change when its left and
    down legs are swapped on both sides, so each down-leg (B-type) push is
    S U_A S with the same images, S being that swap of the D^4 physical index:
    the same block on the range basis S L, a row permutation of L.  Both
    families are then checked.
    """
    alpha = abelian_coefficients(basis, alpha)
    q = sum(
        a * np.kron(np.kron(p.conj(), p), np.kron(p, p.conj()))
        for a, p in zip(alpha, basis.elements)
    )
    bare = PEPSTensor.from_matrix(q, basis)
    D = basis.dim
    l, fits = solve_pushes(
        bare.as_matrix(), basis, (D,) * 4, 0, (1, 2), tol,
        lambda k: SymmetryError(f"no (a)-type push exists for element {basis.labels[k]}"),
    )
    pushes_a = [PEPSConstraint(k, u, up, right, range_basis=l) for k, ((up, right), u) in enumerate(fits)]
    swapped = l.reshape(D, D, D, D, -1).transpose(3, 1, 2, 0, 4).reshape(l.shape)
    pushes_b = [replace(c, range_basis=swapped) for c in pushes_a]
    A = PEPSTensor(bare.tensor, basis, pushes_a, pushes_b)
    check_peps_mf_symmetry(A, tol).require("analytic solution fails its own symmetry: %.3e")
    return A


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
    """Eigenvalues e_{P_i} = sum_j alpha_j conj(alpha_{P_i† P_j}) and t = e^L.

    A t that overflows is refused with NumericalRangeError.
    """
    if L < 1:
        raise ValueError("L must be at least 1")
    require_abelian(basis)
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    idx_tab, _ = basis.product_table()
    daggers = basis.dagger_table()
    n = len(basis.elements)
    e = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        di = daggers[i][0]
        e[i] = sum(alpha[j] * np.conj(alpha[int(idx_tab[di, j])]) for j in range(n))
    with np.errstate(over="ignore", invalid="ignore"):
        t = e**L
    if not np.all(np.isfinite(t)):
        raise NumericalRangeError(f"e^L leaves the floating-point range at L = {L}")
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
    consistent_with_spec: bool


def injectivity_check(A: PEPSTensor, spec: TopoSymmetrySpec, tol: float = DEFAULT_TOL) -> InjectivityReport:
    """Numerical rank of A as a map from the virtual space to the physical one.

    With a nontrivial subgroup in ``spec`` the tensor must be rank deficient.
    """
    rank = numerical_rank(A.as_matrix(), tol)
    full = A.D**4
    injective = rank == full
    return InjectivityReport(rank, full, injective, len(spec.subgroup) <= 1 or not injective)


def complete_with_isometry(Q: PEPSTensor, tol: float = DEFAULT_TOL) -> PEPSTensor:
    """Compress the physical leg of a Q-form tensor to rank(Q) via V.

    Returns A = V Q with V the canonical isometry from range(Q).  An exact
    push's U commutes with Q^2 and so keeps range(Q): each constraint of Q
    carries over as V U V† with the same images, an r x r matrix formed as
    I + (V L)(U_r - I)(V L)† from the push's block U_r on its range basis L;
    one that is not unitary, as when U leaves range(Q), raises SymmetryError.
    A's symmetry is checked, so constraints that do not hold on Q raise
    SymmetryError.  V spans the eigenvalues of Q's Hermitian part above
    tol·max|λ|, which is range(Q) only for a positive semidefinite Q: an
    eigenvalue below -tol·max|λ|, or none above the cut, raises
    NotPositiveError.
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
    # V L once per range basis the pushes share; a dense push has L = I
    bases = {id(c.range_basis): c.range_basis for c in Q.constraints_a + Q.constraints_b}
    vl = {key: v if l is None else v @ l for key, l in bases.items()}

    def carry(c):
        return replace(c, block=range_unitary(vl[id(c.range_basis)], c.block), range_basis=None)

    try:
        carried = [[carry(c) for c in cs] for cs in (Q.constraints_a, Q.constraints_b)]
    except ValueError as exc:  # V U V† is not unitary: U leaves range(Q)
        raise SymmetryError(f"a push of Q leaves range(Q): {exc}") from exc
    A = PEPSTensor.from_matrix(v @ b, Q.basis, *carried)
    check_peps_mf_symmetry(A, tol).require("Q's pushes do not hold on V Q: residual %.3e")
    return A

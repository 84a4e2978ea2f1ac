"""Measurement-and-feedback bases: complete orthogonal sets of D x D unitaries.

An MF basis holds the D^2 unitaries labelling the maximally entangled states
a bond is measured in.  Weyl-Heisenberg groups, composite-dimension products,
and Hadamard/Latin-square constructions are provided, along with group
closure detection and cocycle (commutation phase) tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisError, NonGroupBasisError, SizeGuardError, SymmetryError
from .tensors import DEFAULT_TOL, MATCH_FLOOR, UNITARY_INPUT_BOUND, DenseTensor, isometry_residual


@dataclass(frozen=True)
class CocycleTable:
    """Commutation phases omega(j,k) with P_k P_j = omega(j,k) P_j P_k."""

    dim_sq: int
    phases: np.ndarray

    def __post_init__(self):
        ph = np.asarray(self.phases, dtype=np.complex128)
        if ph.shape != (self.dim_sq, self.dim_sq):
            raise BasisError("cocycle table must be D^2 x D^2")
        if not np.allclose(np.abs(ph), 1.0, atol=DEFAULT_TOL):
            raise BasisError("cocycle phases must have unit modulus")
        if not np.allclose(np.diag(ph), 1.0, atol=DEFAULT_TOL):
            raise BasisError("omega(j,j) must be 1")
        object.__setattr__(self, "phases", ph)

    def omega(self, j: int, k: int) -> complex:
        return complex(self.phases[j, k])


class MFBasis:
    """A set of D^2 unitaries with Tr(P_i† P_j) = D delta_ij.

    Elements are stored unnormalized; the 1/sqrt(D) measurement-state
    normalization is applied at use sites.
    """

    # the product table holds D^4 products of D x D matrices: 1.1 GiB at D = 16
    MAX_DIM = 16

    @classmethod
    def guard_dim(cls, dim: int) -> int:
        """dim, or SizeGuardError when it exceeds the desk-scale ``MAX_DIM``.

        Constructors call this before they allocate the D^2 elements.
        """
        if dim > cls.MAX_DIM:
            raise SizeGuardError(f"basis dimension {dim} exceeds the desk-scale guard of {cls.MAX_DIM}")
        return dim

    def __init__(self, dim, elements, labels=None, is_group=None, cocycle=None):
        self.dim = self.guard_dim(int(dim))
        self.elements = [np.array(e, dtype=np.complex128) for e in elements]
        for e in self.elements:
            e.setflags(write=False)
        self.labels = list(labels) if labels is not None else [f"P{i}" for i in range(len(self.elements))]
        self.is_group = is_group
        self.cocycle = cocycle
        self._validate()
        self._product_cache = None
        self._dagger_cache = None
        self._image_cache = {}
        self._identity_index = None

    def _validate(self) -> None:
        d = self.dim
        if len(self.elements) != d * d:
            raise BasisError(f"need {d*d} elements, got {len(self.elements)}")
        if len(self.labels) != d * d or len(set(self.labels)) != d * d:
            raise BasisError("labels must be unique, one per element")
        for lab, p in zip(self.labels, self.elements):
            if p.shape != (d, d):
                raise BasisError(f"element {lab} is not {d}x{d}")
            if isometry_residual(p) > UNITARY_INPUT_BOUND:
                raise BasisError(f"element {lab} is not unitary")
        if isometry_residual(self.completeness_map()) > UNITARY_INPUT_BOUND:
            raise BasisError("orthogonality/completeness failure: |i> -> vec(P_i)/sqrt(D) is not unitary")
        self._conj_vecs = np.stack(self.elements).conj().reshape(d * d, d * d)

    def __len__(self) -> int:
        return len(self.elements)

    def element(self, key) -> np.ndarray:
        return self.elements[self.index(key)]

    def index(self, key) -> int:
        if isinstance(key, (int, np.integer)):
            return int(key)
        return self.labels.index(key)

    @property
    def identity_index(self) -> int:
        if self._identity_index is None:
            self._identity_index = self.resolve(np.eye(self.dim))[0]
        return self._identity_index

    def completeness_map(self) -> np.ndarray:
        """Matrix whose i-th column is vec(P_i)/sqrt(D)."""
        d = self.dim
        return np.stack([p.reshape(-1) / np.sqrt(d) for p in self.elements], axis=1)

    def resolve(self, m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[int, complex]:
        """Identify m = phase * P_k to max(tol, MATCH_FLOOR); raises when m is not in the basis."""
        k, c, ok = _phase_match(self._conj_vecs, m, max(tol, MATCH_FLOOR))
        if not ok[0]:
            raise NonGroupBasisError("matrix is not a unit-phase multiple of any basis element")
        return int(k[0]), complex(c[0])

    def try_resolve(self, m: np.ndarray, tol: float = DEFAULT_TOL):
        try:
            return self.resolve(m, tol)
        except NonGroupBasisError:
            return None

    def product_table(self):
        """(index, phase) tables for P_i P_j = phase * P_k, for group bases."""
        if self._product_cache is None:
            stack = np.stack(self.elements)
            products = stack[:, None] @ stack[None, :]
            idx, ph, ok = _phase_match(self._conj_vecs, products, MATCH_FLOOR)
            if not ok.all():
                raise NonGroupBasisError("basis is not closed under multiplication")
            self._product_cache = (idx.reshape(products.shape[:2]), ph.reshape(products.shape[:2]))
        return self._product_cache

    def compose(self, x, y) -> tuple[int, complex]:
        """(class, phase) of the product of the (class, phase) pairs x and y."""
        idx, ph = self._product_cache or self.product_table()
        return int(idx[x[0], y[0]]), x[1] * y[1] * ph[x[0], y[0]]

    def dagger_table(self):
        """(index, phase) with P_i† = phase * P_k."""
        if self._dagger_cache is None:
            pairs = [self.resolve(p.conj().T) for p in self.elements]
            self._dagger_cache = (
                np.array([k for k, _ in pairs], dtype=np.intp),
                np.array([c for _, c in pairs], dtype=np.complex128),
            )
        return self._dagger_cache

    def conjugate_table(self) -> dict:
        """j -> (k, phase) with P_j^* = phase * P_k; no entry when P_j^* leaves the basis."""
        return self._image_table("conjugate", np.conj)

    def transpose_table(self) -> dict:
        """j -> (k, phase) with P_j^T = phase * P_k; no entry when P_j^T leaves the basis."""
        return self._image_table("transpose", lambda stack: stack.transpose(0, 2, 1))

    def _image_table(self, name, image) -> dict:
        if name not in self._image_cache:
            idx, ph, ok = _phase_match(self._conj_vecs, image(np.stack(self.elements)), MATCH_FLOOR)
            self._image_cache[name] = {j: (int(k), complex(c)) for j, (k, c, hit) in enumerate(zip(idx, ph, ok)) if hit}
        return self._image_cache[name]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "elements": [DenseTensor(p, ("row", "col")).to_json() for p in self.elements],
            "labels": list(self.labels),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MFBasis":
        elements = [DenseTensor.from_json(e).data for e in obj["elements"]]
        b = cls(obj["dim"], elements, labels=obj.get("labels"))
        b.cocycle = check_group_closure(b)
        b.is_group = b.cocycle is not None
        return b

    def __repr__(self) -> str:
        return f"MFBasis(dim={self.dim}, group={self.is_group})"


def shift_clock(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Generators X = sum |a+1><a| and Z = sum w^a |a><a| of dimension d."""
    x = np.roll(np.eye(d), 1, axis=0).astype(np.complex128)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return x, z


def wh_generators(basis: MFBasis) -> list[tuple[np.ndarray, int]]:
    """(S, k) for the Weyl-Heisenberg generators S = X, Z, where S^T = P_k.

    Raises NonGroupBasisError when X or Z is not in the basis, and
    SymmetryError when a transpose is a basis element only up to a phase.
    """
    x, z = shift_clock(basis.dim)
    if basis.try_resolve(x) is None or basis.try_resolve(z) is None:
        raise NonGroupBasisError("operation requires the Weyl-Heisenberg basis")
    out = []
    for gen in (x, z):
        k, phase = basis.resolve(gen.T)
        if abs(phase - 1.0) > DEFAULT_TOL:
            raise SymmetryError("transpose of a generator is not a canonical basis element")
        out.append((gen, k))
    return out


def wh_label(v: int, w: int) -> str:
    if v == 0 and w == 0:
        return "I"
    parts = []
    if v:
        parts.append("X" if v == 1 else f"X^{v}")
    if w:
        parts.append("Z" if w == 1 else f"Z^{w}")
    return "".join(parts)


def weyl_heisenberg_basis(D: int) -> MFBasis:
    """The Weyl-Heisenberg group {X^v Z^w} with its exact cocycle.

    Element order is v*D + w, so the first D elements are the Z powers.
    """
    if D < 2:
        raise ValueError("D must be at least 2")
    MFBasis.guard_dim(D)
    x, z = shift_clock(D)
    elements, labels = [], []
    for v in range(D):
        for w in range(D):
            elements.append(np.linalg.matrix_power(x, v) @ np.linalg.matrix_power(z, w))
            labels.append(wh_label(v, w))
    # omega(j, k) = exp(2 pi i (v_j w_k - w_j v_k) / D) for j = v_j * D + w_j
    v, w = np.divmod(np.arange(D * D), D)
    phases = np.exp(2j * np.pi * (np.outer(v, w) - np.outer(w, v)) / D)
    basis = MFBasis(D, elements, labels=labels, is_group=True)
    basis.cocycle = CocycleTable(D * D, phases)
    return basis


def composite_basis(b1: MFBasis, b2: MFBasis, mode: str = "product") -> MFBasis:
    """Combine two bases for a composite local dimension d1*d2.

    ``product`` tensors two group bases elementwise.  ``mixed_clock`` takes
    Weyl-Heisenberg inputs and generates from X_{d1} x I, I x X_{d2}, and the
    full clock Z_{d1 d2}.
    """
    MFBasis.guard_dim(b1.dim * b2.dim)
    if mode == "product":
        if not (b1.is_group and b2.is_group):
            raise NonGroupBasisError("product mode requires two group bases")
        elements, labels = [], []
        for l1, p1 in zip(b1.labels, b1.elements):
            for l2, p2 in zip(b2.labels, b2.elements):
                elements.append(np.kron(p1, p2))
                labels.append(f"{l1}*{l2}")
        basis = MFBasis(b1.dim * b2.dim, elements, labels=labels)
    elif mode == "mixed_clock":
        d1, d2, d = b1.dim, b2.dim, b1.dim * b2.dim
        (x1, _), (x2, _) = shift_clock(d1), shift_clock(d2)
        if b1.try_resolve(x1) is None or b2.try_resolve(x2) is None:
            raise BasisError("mixed_clock requires Weyl-Heisenberg inputs")
        _, zd = shift_clock(d)
        gens = [np.kron(x1, np.eye(d2)), np.kron(np.eye(d1), x2), zd]
        elements = _generate_closure(gens, d * d)
        if elements is None:
            raise NonGroupBasisError(
                "mixed_clock generators do not close into d1^2 d2^2 distinct elements"
            )
        basis = MFBasis(d, elements)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    basis.cocycle = check_group_closure(basis)
    basis.is_group = basis.cocycle is not None
    return basis


def _generate_closure(gens: list[np.ndarray], limit: int) -> list[np.ndarray] | None:
    """Close a generating set under multiplication, modulo phase."""
    d = gens[0].shape[0]
    found: list[np.ndarray] = [np.eye(d, dtype=np.complex128)]
    frontier = list(found)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = g @ m
                conj_vecs = np.stack(found).conj().reshape(len(found), d * d)
                if not _phase_match(conj_vecs, prod, MATCH_FLOOR)[2][0]:
                    found.append(prod)
                    nxt.append(prod)
                    if len(found) > limit:
                        return None
        frontier = nxt
    return found if len(found) == limit else None


def hadamard_latin_basis(H: list[np.ndarray], lam: np.ndarray) -> MFBasis:
    """Basis U_{ij}|k> = H^j_{ik} |lam(j,k)> from Hadamard matrices and a Latin square."""
    lam = np.asarray(lam, dtype=int)
    D = MFBasis.guard_dim(lam.shape[0])
    if lam.shape != (D, D):
        raise BasisError("Latin square must be D x D")
    for row in lam:
        if sorted(row.tolist()) != list(range(D)):
            raise BasisError("Latin square rows must be permutations of 0..D-1")
    for col in lam.T:
        if sorted(col.tolist()) != list(range(D)):
            raise BasisError("Latin square columns must be permutations of 0..D-1")
    if len(H) != D:
        raise BasisError("need one Hadamard matrix per row index j")
    for h in H:
        h = np.asarray(h)
        if h.shape != (D, D) or not np.allclose(np.abs(h), 1.0, atol=DEFAULT_TOL):
            raise BasisError("Hadamard entries must all have unit modulus")
        # H / sqrt(D) unitary to UNITARY_INPUT_BOUND / D keeps ||H H† - D I|| within UNITARY_INPUT_BOUND x D
        if isometry_residual(h / np.sqrt(D)) > UNITARY_INPUT_BOUND / D:
            raise BasisError("H H† must equal D * identity")
    elements, labels = [], []
    for i in range(D):
        for j in range(D):
            u = np.zeros((D, D), dtype=np.complex128)
            for k in range(D):
                u[lam[j, k], k] = H[j][i, k]
            elements.append(u)
            labels.append(f"U[{i},{j}]")
    basis = MFBasis(D, elements, labels=labels)
    basis.cocycle = check_group_closure(basis)
    basis.is_group = basis.cocycle is not None
    return basis


def check_group_closure(b: MFBasis) -> CocycleTable | None:
    """Cocycle table when the basis closes under multiplication, else None.

    P_k P_j = ph[k,j] P_a and P_j P_k = ph[j,k] P_a give omega(j,k) as the
    ratio of two product-table phases.  In a non-abelian quotient group the
    pairs whose two products differ have no commutation phase; their entries
    are the same ratio, and ``mps.require_abelian`` rejects such bases.
    """
    try:
        _, ph = b.product_table()
    except NonGroupBasisError:
        return None
    omega = ph.T / ph
    return CocycleTable(len(b.elements), omega / np.abs(omega))


def _phase_match(conj_vecs, m, thr):
    """Match m = c * P_k with |c| = 1 for one D x D matrix or a stack of them.

    ``conj_vecs`` holds the rows conj(vec(P_k)), so one product gives every
    coefficient c_k = Tr(P_k† m) / D.  By orthogonality only the largest |c_k|
    can pass both tests, unit modulus and the Frobenius residual, to
    threshold ``thr``.  Returns flat (k, c, ok) arrays, one entry per matrix.
    """
    d = np.shape(m)[-1]
    flat = np.reshape(m, (-1, d * d))
    coeffs = flat @ conj_vecs.T / d
    k = abs(coeffs).argmax(axis=1)
    c = coeffs[np.arange(len(flat)), k]
    resid = np.sqrt((abs(flat - c[:, None] * conj_vecs[k].conj()) ** 2).sum(axis=1))
    return k, c, (abs(abs(c) - 1.0) < thr) & (resid < thr * d)


def fourier_matrix(D: int) -> np.ndarray:
    """DFT matrix scaled to the |entries| = 1 Hadamard convention."""
    a = np.arange(D)
    return np.exp(2j * np.pi * np.outer(a, a) / D)

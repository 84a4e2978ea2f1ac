"""Dense complex tensors with named legs, and the matrix factorizations built on them.

Legs are addressed by unique string labels rather than positions; every
operation that needs a matrix view of a tensor states explicitly which legs
form the rows and which form the columns.  Flattening of multiple legs into
one matrix index is always row-major in the order the legs are listed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, LegError, NonHermitianError

# The tolerance every ``tol`` parameter defaults to.  ``mftn --tol`` and ``MFTN_TOL``
# pass another value down for one command; nothing assigns this one.  Checks that take
# no tol (unit-modulus phases and entries, canonical generator transposes) run at it.
DEFAULT_TOL = 1e-9

# Floors: a check whose round-off can exceed a small tol runs at max(tol, floor), so
# that no tol refuses an exact result.  Each comment says where the round-off comes from.
MATCH_FLOOR = 1e-7  # phase x basis element by projection (distinct elements are O(1) apart); stabilizer |<P>| = 1
PAULI_FLOOR = 1e-6  # Pauli-string recognition, always at this value: inputs carry their own round-off
UNITARY_FLOOR = 1e-8  # MPO identities between unitaries assembled from several products
VERDICT_FLOOR = 1e-9  # fidelity, isometry, spectrum and reconstruction verdicts: round-off grows with size
COMMUTANT_FLOOR = 1e-8  # polar commutants: Q and its pseudo-inverse come from one eigendecomposition
EIGEN_FLOOR = 1e-8  # transfer spectra: dense eigenvalues of a (D^2)^L ring, and ties for the largest
LEAD_FLOOR = 1e-9  # phase fixing: entries of equal modulus, as in a stabilizer state, differ by round-off

# The two bounds on ``isometry_residual``.  A unitary the caller hands in is refused above
# UNITARY_INPUT_BOUND; a unitary or isometry the package built is judged at VERDICT_FLOOR,
# or at max(tol, VERDICT_FLOOR) where a tol is in scope.
UNITARY_INPUT_BOUND = 1e-7  # basis elements, completeness map, Push.u_phys, Hadamard matrices, is_clifford's U

NORM_GUARD = 1e-300  # divisor floor: a zero norm divides as this, so a zero tensor has residual 0, not NaN
ZERO_FLOOR = 1e-12  # a trace or proportionality factor of unit scale counts as zero below this
BORN_FLOOR = 1e-9  # round-off can leave an exact-zero Born weight below 0 by this times sum |w|, no more

# When the alternating least-squares correction search stops: iteration controls, not verdicts
ALS_STEP_FLOOR = 1e-13  # corrections that move by less than this, entrywise, have converged
ALS_RESIDUAL_FLOOR = 1e-10  # a restart that reaches this residual ends the search


def isometry_residual(m: np.ndarray) -> float:
    """||m† m - I||_F / n for an m with n columns: zero exactly when m is an isometry.

    For a square m this equals ||m m† - I||_F / n, because m m† and m† m are
    unitarily similar (m = W P gives m m† = W P² W†).
    """
    m = np.asarray(m)
    n = m.shape[1]
    return float(np.linalg.norm(m.conj().T @ m - np.eye(n))) / n


def fix_global_phase(v: np.ndarray) -> np.ndarray:
    """v times the unit phase that makes its lead entry real and positive.

    The lead is the first entry, in row-major order, whose modulus is within
    ``LEAD_FLOOR`` (relative) of the largest, so round-off among entries of
    equal modulus cannot move it.
    """
    v = np.asarray(v)
    mod = np.abs(v)
    lead = v.reshape(-1)[np.argmax(mod >= mod.max() * (1 - LEAD_FLOOR))]
    return v * (abs(lead) / lead)


class DenseTensor:
    """Immutable complex tensor with uniquely named legs.

    Entries are stored row-major over ``shape``; all entries must be finite.
    """

    __slots__ = ("data", "legs")

    def __init__(self, data, legs: Sequence[str], *, copy: bool = True):
        arr = np.array(data, dtype=np.complex128, copy=copy)
        legs = tuple(str(x) for x in legs)
        if arr.ndim != len(legs):
            raise LegError(f"{len(legs)} legs for a rank-{arr.ndim} tensor")
        if len(set(legs)) != len(legs):
            raise LegError(f"duplicate leg labels in {legs}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.setflags(write=False)
        self.data = arr
        self.legs = legs

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def leg_dim(self, leg: str) -> int:
        return self.data.shape[self._axis(leg)]

    def _axis(self, leg: str) -> int:
        try:
            return self.legs.index(leg)
        except ValueError:
            raise LegError(f"unknown leg {leg!r}; tensor has {self.legs}") from None

    def transpose_to(self, legs: Sequence[str]) -> "DenseTensor":
        legs = tuple(legs)
        if set(legs) != set(self.legs) or len(legs) != len(self.legs):
            raise LegError(f"{legs} is not a permutation of {self.legs}")
        perm = [self._axis(l) for l in legs]
        return DenseTensor(self.data.transpose(perm), legs, copy=False)

    def conj(self) -> "DenseTensor":
        return DenseTensor(self.data.conj(), self.legs, copy=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def matrix(self, row_legs: Sequence[str], col_legs: Sequence[str]) -> np.ndarray:
        """Row-major matrix view over the given leg partition."""
        row_legs, col_legs = tuple(row_legs), tuple(col_legs)
        if sorted(row_legs + col_legs) != sorted(self.legs):
            raise LegError(
                f"row legs {row_legs} and col legs {col_legs} must partition {self.legs}"
            )
        t = self.transpose_to(row_legs + col_legs)
        rows = int(np.prod([t.leg_dim(l) for l in row_legs], initial=1))
        return np.asarray(t.data).reshape(rows, -1)

    def view(self, row_legs: Sequence[str], col_legs: Sequence[str]) -> "MatrixView":
        return MatrixView(self, tuple(row_legs), tuple(col_legs))

    @classmethod
    def from_matrix(
        cls,
        m: np.ndarray,
        row_legs: Sequence[str],
        row_dims: Sequence[int],
        col_legs: Sequence[str],
        col_dims: Sequence[int],
    ) -> "DenseTensor":
        shape = tuple(row_dims) + tuple(col_dims)
        return cls(np.asarray(m).reshape(shape), tuple(row_legs) + tuple(col_legs))

    def to_json(self) -> dict:
        flat = self.data.reshape(-1)
        return {
            "legs": list(self.legs),
            "shape": list(self.shape),
            "data": [[float(z.real), float(z.imag)] for z in flat],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DenseTensor":
        shape = tuple(int(s) for s in obj["shape"])
        flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=np.complex128)
        if flat.size != int(np.prod(shape, initial=1)):
            raise DimensionMismatchError("JSON data length does not match shape")
        return cls(flat.reshape(shape), obj["legs"])

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    def __repr__(self) -> str:
        legs = ", ".join(f"{l}:{d}" for l, d in zip(self.legs, self.shape))
        return f"DenseTensor({legs})"


@dataclass(frozen=True)
class MatrixView:
    """A tensor together with an ordered row/column leg partition."""

    tensor: DenseTensor
    row_legs: tuple[str, ...]
    col_legs: tuple[str, ...]

    def __post_init__(self):
        if sorted(self.row_legs + self.col_legs) != sorted(self.tensor.legs):
            raise LegError("row and column legs must partition the tensor legs")

    @property
    def matrix(self) -> np.ndarray:
        return self.tensor.matrix(self.row_legs, self.col_legs)

    def row_dims(self) -> tuple[int, ...]:
        return tuple(self.tensor.leg_dim(l) for l in self.row_legs)

    def col_dims(self) -> tuple[int, ...]:
        return tuple(self.tensor.leg_dim(l) for l in self.col_legs)


def contract(
    t1: DenseTensor,
    t2: DenseTensor,
    pairs: Iterable[tuple[str, str]],
) -> DenseTensor:
    """Contract paired legs of two tensors; no pairs gives the outer product.

    The result carries the unpaired legs of ``t1`` followed by those of ``t2``.
    """
    pairs = list(pairs)
    ax1 = [t1._axis(a) for a, _ in pairs]
    ax2 = [t2._axis(b) for _, b in pairs]
    for (a, b), i, j in zip(pairs, ax1, ax2):
        if t1.shape[i] != t2.shape[j]:
            raise DimensionMismatchError(
                f"leg {a!r} (dim {t1.shape[i]}) cannot pair with {b!r} (dim {t2.shape[j]})"
            )
    out1 = [l for l in t1.legs if l not in {a for a, _ in pairs}]
    out2 = [l for l in t2.legs if l not in {b for _, b in pairs}]
    clash = set(out1) & set(out2)
    if clash:
        raise LegError(f"unpaired legs {sorted(clash)} appear in both tensors")
    data = np.tensordot(t1.data, t2.data, axes=(ax1, ax2))
    return DenseTensor(data, out1 + out2, copy=False)


# ---------------------------------------------------------------------------
# ndarray-level numerics shared across the package
# ---------------------------------------------------------------------------


def polar_nd(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Polar factorization m = V @ Q.

    Q = (m† m)^{1/2} is Hermitian PSD; V is the partial isometry supported
    exactly on range(Q), so V† V equals the orthogonal projector onto
    range(Q) and V @ Q reconstructs m.
    """
    m = np.asarray(m, dtype=np.complex128)
    u, s, wh = np.linalg.svd(m, full_matrices=False)
    q = (wh.conj().T * s) @ wh
    cutoff = tol * (s[0] if s.size and s[0] > 0 else 1.0)
    r = int(np.sum(s > cutoff))
    v = u[:, :r] @ wh[:r, :]
    return v, q


def numerical_rank(m: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    s = np.linalg.svd(np.asarray(m), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


def nullspace(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the (right) null space of m."""
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0:
        return np.eye(m.shape[1], dtype=np.complex128)
    u, s, wh = np.linalg.svd(m)
    cutoff = tol * (s[0] if s.size and s[0] > 0 else 1.0)
    r = int(np.sum(s > cutoff))
    return wh[r:].conj().T


def pinv_nd(m: np.ndarray, tol: float) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with relative singular-value cutoff."""
    m = np.asarray(m, dtype=np.complex128)
    u, s, wh = np.linalg.svd(m, full_matrices=False)
    cutoff = tol * (s[0] if s.size and s[0] > 0 else 1.0)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (wh.conj().T * inv) @ u.conj().T


def proportionality(a: np.ndarray, b: np.ndarray) -> tuple[complex, float]:
    """Least-squares factor c minimizing ||a - c b||, and the residual.

    The residual is relative to ||a|| when a is nonzero.
    """
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    bb = np.vdot(b, b).real
    c = np.vdot(b, a) / bb if bb > 0 else 0.0 + 0.0j
    na = np.linalg.norm(a)
    resid = np.linalg.norm(a - c * b) / (na if na > 0 else 1.0)
    return complex(c), float(resid)


def gram_proportionality(t: DenseTensor, open_legs: Sequence[str], tol: float = DEFAULT_TOL):
    """Contract t with its conjugate over every leg but ``open_legs``.

    Returns (passed, c, residual) for the Gram matrix against c * identity.
    """
    bra = DenseTensor(t.data.conj(), [f"{leg}'" for leg in t.legs], copy=False)
    gram = contract(t, bra, [(leg, f"{leg}'") for leg in t.legs if leg not in open_legs]).data
    n = int(np.sqrt(gram.size))
    const, resid = proportionality(gram.reshape(n, n), np.eye(n))
    return resid < tol, complex(const), float(resid)


def state_fidelity(x: np.ndarray, y: np.ndarray) -> float:
    """|<x|y>|^2 / (|x|^2 |y|^2): quotient by scale and global phase."""
    x = np.asarray(x).reshape(-1)
    y = np.asarray(y).reshape(-1)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0 or ny == 0:
        return 0.0
    return float(abs(np.vdot(x, y)) ** 2 / (nx**2 * ny**2))


def projector_onto(columns: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column span."""
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.ndim == 1:
        cols = cols[:, None]
    if cols.shape[1] == 0:
        return np.zeros((cols.shape[0], cols.shape[0]), dtype=np.complex128)
    q, _ = np.linalg.qr(cols)
    return q @ q.conj().T


def procrustes_unitary(target: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Unitary U minimizing ||U @ source - target|| in Frobenius norm."""
    u, _, wh = np.linalg.svd(target @ source.conj().T)
    return u @ wh


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


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# leg-level factorizations
# ---------------------------------------------------------------------------


def polar_decompose(m: MatrixView, tol: float = DEFAULT_TOL) -> tuple[DenseTensor, DenseTensor]:
    """Polar split of a matrix view into (V, Q) tensors.

    V keeps the legs of the original tensor (same shapes); Q is square over
    the column legs, with the output copies primed (``leg'``).
    """
    v, q = polar_nd(m.matrix, tol)
    vt = DenseTensor.from_matrix(v, m.row_legs, m.row_dims(), m.col_legs, m.col_dims())
    primed = tuple(l + "'" for l in m.col_legs)
    qt = DenseTensor.from_matrix(q, primed, m.col_dims(), m.col_legs, m.col_dims())
    return vt, qt


def eig_hermitian(m: MatrixView, tol: float = 1e-10) -> tuple[list[float], DenseTensor]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian view."""
    mat = m.matrix
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError("eig_hermitian needs a square view")
    dev = np.linalg.norm(mat - mat.conj().T)
    scale = max(np.linalg.norm(mat), 1.0)
    if dev > tol * scale:
        raise NonHermitianError(f"matrix deviates from Hermitian by {dev:.3e}")
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    vectors = DenseTensor(vecs, ("basis", "mode"))
    return [float(v) for v in vals], vectors


def pseudo_inverse(m: MatrixView, tol: float) -> DenseTensor:
    """Moore-Penrose pseudo-inverse; legs swap sides relative to the view."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = pinv_nd(m.matrix, tol)
    return DenseTensor.from_matrix(p, m.col_legs, m.col_dims(), m.row_legs, m.row_dims())

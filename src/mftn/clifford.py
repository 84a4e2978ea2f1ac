"""Qudit Pauli strings in exponent form and Clifford synthesis from partial maps.

A Pauli string on n qudits of dimension d is X_1^{v_1} Z_1^{w_1} x ... with a
global phase that is a 2d-th root of unity, tracked as an exponent in Z_{2d}.
Synthesis completes a partial generator map to a full symplectic basis over
Z_d (d prime) and builds the unitary from the joint eigenstate of the target
Z images, so the requested conjugation relations hold exactly, phases included.
Every Pauli string is a phased permutation (``PauliVector.monomial``), so
synthesis and the Clifford checks apply strings to vectors and never multiply
dense Pauli matrices; the one O(d^3n) step is the unitarity check.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .basis import shift_clock
from .errors import DimensionMismatchError, InadmissibleMapError, NonPrimeDimensionError
from .tensors import (DEFAULT_TOL, PAULI_FLOOR, UNITARY_INPUT_BOUND, VERDICT_FLOOR, DenseTensor, fix_global_phase,
                      isometry_residual)


@dataclass(frozen=True)
class PauliVector:
    """e^{i pi phase_exp / d} * prod_k X_k^{v_k} Z_k^{w_k} on n qudits of dim d."""

    n: int
    d: int
    v: tuple[int, ...]
    w: tuple[int, ...]
    phase_exp: int = 0

    def __post_init__(self):
        if self.d < 2 or self.n < 1:
            raise ValueError("need d >= 2 and n >= 1")
        if len(self.v) != self.n or len(self.w) != self.n:
            raise ValueError("v and w must have length n")
        object.__setattr__(self, "v", tuple(int(x) % self.d for x in self.v))
        object.__setattr__(self, "w", tuple(int(x) % self.d for x in self.w))
        object.__setattr__(self, "phase_exp", int(self.phase_exp) % (2 * self.d))

    @classmethod
    def identity(cls, n: int, d: int) -> "PauliVector":
        return cls(n, d, (0,) * n, (0,) * n, 0)

    @classmethod
    def x_gen(cls, n: int, d: int, slot: int) -> "PauliVector":
        v = [0] * n
        v[slot] = 1
        return cls(n, d, tuple(v), (0,) * n, 0)

    @classmethod
    def z_gen(cls, n: int, d: int, slot: int) -> "PauliVector":
        w = [0] * n
        w[slot] = 1
        return cls(n, d, (0,) * n, tuple(w), 0)

    @property
    def phase(self) -> complex:
        return np.exp(1j * np.pi * self.phase_exp / self.d)

    def is_identity(self) -> bool:
        return all(x == 0 for x in self.v) and all(x == 0 for x in self.w) and self.phase_exp == 0

    def sympl(self) -> np.ndarray:
        """(v_1..v_n, w_1..w_n) as a vector over Z_d."""
        return np.array(self.v + self.w, dtype=np.int64)

    def compose(self, other: "PauliVector") -> "PauliVector":
        """self @ other with exact Z_{2d} phase bookkeeping."""
        if (self.n, self.d) != (other.n, other.d):
            raise DimensionMismatchError("Pauli strings act on different systems")
        cross = sum(wk * vk for wk, vk in zip(self.w, other.v))
        return PauliVector(
            self.n,
            self.d,
            tuple(a + b for a, b in zip(self.v, other.v)),
            tuple(a + b for a, b in zip(self.w, other.w)),
            self.phase_exp + other.phase_exp + 2 * cross,
        )

    def power(self, k: int) -> "PauliVector":
        out = PauliVector.identity(self.n, self.d)
        for _ in range(int(k)):
            out = out.compose(self)
        return out

    def commutation_exponent(self, other: "PauliVector") -> int:
        """c with self*other = omega^c other*self, omega = exp(2 pi i / d)."""
        ab = sum(wk * vk for wk, vk in zip(self.w, other.v))
        ba = sum(wk * vk for wk, vk in zip(other.w, self.v))
        return (ab - ba) % self.d

    def matrix(self) -> np.ndarray:
        """The dense d^n x d^n matrix, built as a Kronecker product of the sites."""
        x, z = shift_clock(self.d)
        sites = [np.linalg.matrix_power(x, vk) @ np.linalg.matrix_power(z, wk)
                 for vk, wk in zip(self.v, self.w)]
        return self.phase * functools.reduce(np.kron, sites, np.array([[1.0 + 0j]]))

    def monomial(self) -> tuple[np.ndarray, np.ndarray]:
        """(perm, phases) with P|j> = phases[j] |perm[j]> over the row-major basis.

        Every Pauli string is a phased permutation, so applying one to a
        vector costs O(d^n) where ``matrix`` costs O(d^2n).
        """
        d = self.d
        digits = _digit_table(self.n, d)
        perm = ((digits + np.array(self.v)) % d) @ (d ** np.arange(self.n - 1, -1, -1))
        # Z^w |j> = omega^(w j) |j> with omega = e^{2 pi i / d}: exponents count pi / d
        exps = (self.phase_exp + 2 * (digits @ np.array(self.w))) % (2 * d)
        return perm, np.exp(1j * np.pi * np.arange(2 * d) / d)[exps]

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d, "v": list(self.v), "w": list(self.w),
                "phase_exp": self.phase_exp}

    @classmethod
    def from_json(cls, obj: dict) -> "PauliVector":
        return cls(obj["n"], obj["d"], tuple(obj["v"]), tuple(obj["w"]), obj.get("phase_exp", 0))


@functools.lru_cache(maxsize=32)
def _digit_table(n: int, d: int) -> np.ndarray:
    """Row j holds the n base-d digits of j, most significant first."""
    table = np.stack(np.unravel_index(np.arange(d**n), (d,) * n), axis=1)
    table.setflags(write=False)
    return table


def _apply(mono, block: np.ndarray) -> np.ndarray:
    """P @ block for P = (perm, phases) from ``monomial``, on a vector or a column block."""
    perm, phases = mono
    out = np.empty(block.shape, dtype=np.complex128)
    out[perm] = phases.reshape((-1,) + (1,) * (block.ndim - 1)) * block
    return out


def image_residual(u: np.ndarray, src: PauliVector, tgt: PauliVector, phase: complex = 1.0) -> float:
    """||U src - phase tgt U|| in the Frobenius norm, in O(dim^2).

    For unitary U this equals ||U src U† - phase tgt||, the distance of the
    conjugated source from the requested image.
    """
    perm, phases = src.monomial()
    tperm, tphases = tgt.monomial()
    # row tperm[i] of tgt U is tphases[i] times row i of U
    return float(np.linalg.norm(u[np.ix_(tperm, perm)] * phases - (phase * tphases)[:, None] * u))


def pauli_to_matrix(p: PauliVector) -> DenseTensor:
    """Dense d^n x d^n matrix of a Pauli string, phase included."""
    return DenseTensor(p.matrix(), ("out", "in"))


def _read_pauli(col0: np.ndarray, entry, n: int, d: int):
    """(XZ(v, w), phase) that a matrix M would be if M = phase * XZ(v, w), or None.

    ``col0`` is M's first column and ``entry(row, col)`` one entry of M:
    the row of col0's unit entry gives v, and one entry per qudit gives w.
    The candidate is not verified here.
    """
    r = int(np.argmax(np.abs(col0)))
    phase = col0[r]
    if abs(abs(phase) - 1.0) > PAULI_FLOOR:
        return None
    v = _digit_table(n, d)[r]
    w = []
    for k in range(n):
        place = d ** (n - 1 - k)
        # M e_k = phase omega^(w_k) |v + e_k>: digit k of r steps up by one, wrapping at d
        ratio = entry(r + place * (1 if v[k] < d - 1 else 1 - d), place) / phase
        w.append(int(np.round(np.angle(ratio) * d / (2 * np.pi))) % d)
    return PauliVector(n, d, tuple(v), tuple(w), 0), complex(phase)


def match_pauli_matrix(m: np.ndarray, n: int, d: int):
    """Recognize m = phase * XZ(v,w); returns (v, w, phase) or None.

    The phase may be any unit-modulus complex number here; use
    ``matrix_to_pauli`` when a Z_{2d} phase exponent is required.
    """
    dim = d**n
    m = np.asarray(m)
    if m.shape != (dim, dim):
        return None
    hit = _read_pauli(m[:, 0], lambda row, col: m[row, col], n, d)
    if hit is None:
        return None
    candidate, phase = hit
    perm, phases = candidate.monomial()
    dev = np.array(m, dtype=np.complex128)
    dev[perm, np.arange(dim)] -= phase * phases
    if np.linalg.norm(dev) > PAULI_FLOOR * np.sqrt(dim):
        return None
    return candidate.v, candidate.w, phase


def _phase_exponent(phase: complex, d: int) -> int | None:
    """t with phase = e^{i pi t / d}, or None when phase is no 2d-th root of unity."""
    t = int(np.round(np.angle(phase) * d / np.pi)) % (2 * d)
    if abs(phase - np.exp(1j * np.pi * t / d)) > PAULI_FLOOR:
        return None
    return t


def matrix_to_pauli(m: np.ndarray, n: int, d: int) -> PauliVector | None:
    """Like match_pauli_matrix but requires the phase to be a 2d-th root of unity."""
    hit = match_pauli_matrix(m, n, d)
    if hit is None:
        return None
    v, w, phase = hit
    t = _phase_exponent(phase, d)
    return None if t is None else PauliVector(n, d, v, w, t)


def kron_to_pauli(factors, d: int) -> PauliVector | None:
    """The Pauli string kron(*factors) of single-qudit matrices, read factor by factor.

    Only the total phase must be a 2d-th root of unity.  Returns None when a
    factor is not a phased Pauli or the total phase is not such a root.
    """
    hits = [match_pauli_matrix(f, 1, d) for f in factors]
    if any(h is None for h in hits):
        return None
    vs, ws, phases = zip(*hits)
    t = _phase_exponent(np.prod(phases), d)
    if t is None:
        return None
    return PauliVector(len(hits), d, tuple(v for (v,) in vs), tuple(w for (w,) in ws), t)


@dataclass(frozen=True)
class PartialCliffordMap:
    """Requested images for X/Z generators of one or more designated slots."""

    n: int
    d: int
    images: tuple[tuple[PauliVector, PauliVector], ...]

    def __post_init__(self):
        seen = set()
        for src, tgt in self.images:
            if (src.n, src.d) != (self.n, self.d) or (tgt.n, tgt.d) != (self.n, self.d):
                raise DimensionMismatchError("images must act on the declared system")
            kind = _generator_kind(src)
            if kind is None:
                raise InadmissibleMapError("sources must be bare X_k or Z_k generators")
            if kind in seen:
                raise InadmissibleMapError(f"duplicate source generator {kind}")
            seen.add(kind)


def _generator_kind(p: PauliVector):
    """('X', slot) or ('Z', slot) for a bare generator with zero phase."""
    if p.phase_exp != 0:
        return None
    nz_v = [k for k, x in enumerate(p.v) if x]
    nz_w = [k for k, x in enumerate(p.w) if x]
    if len(nz_v) == 1 and not nz_w and p.v[nz_v[0]] == 1:
        return ("X", nz_v[0])
    if len(nz_w) == 1 and not nz_v and p.w[nz_w[0]] == 1:
        return ("Z", nz_w[0])
    return None


@dataclass
class AdmissibilityReport:
    commutation_ok: bool
    order_ok: bool
    failures: list[str]

    @property
    def admissible(self) -> bool:
        return self.commutation_ok and self.order_ok


def check_admissible(m: PartialCliffordMap) -> AdmissibilityReport:
    """Verify the map preserves commutation phases and element orders.

    Both checks are exact integer arithmetic in the exponent representation;
    order failure means target^d is not the identity with trivial phase.
    """
    failures: list[str] = []
    comm_ok = True
    for (s1, t1), (s2, t2) in itertools.combinations(m.images, 2):
        want = s1.commutation_exponent(s2)
        got = t1.commutation_exponent(t2)
        if want != got:
            comm_ok = False
            failures.append(
                f"commutation: sources give omega^{want}, targets give omega^{got}"
            )
    order_ok = True
    for src, tgt in m.images:
        if not tgt.power(m.d).is_identity():
            order_ok = False
            failures.append(f"order: image of {_generator_kind(src)} has (target)^d != I")
    return AdmissibilityReport(comm_ok, order_ok, failures)


def _is_prime(d: int) -> bool:
    if d < 2:
        return False
    return all(d % k for k in range(2, int(d**0.5) + 1))


def _sympl_form(a: np.ndarray, b: np.ndarray, n: int, d: int) -> int:
    """Form s with XZ(a) XZ(b) = omega^s XZ(b) XZ(a)."""
    va, wa = a[:n], a[n:]
    vb, wb = b[:n], b[n:]
    return int((wa @ vb - va @ wb) % d)


def _complete_symplectic(given: list[tuple[np.ndarray, np.ndarray]], n: int, d: int):
    """Extend given (x-image, z-image) pairs to a full symplectic basis over Z_d."""
    inv = {a: pow(a, -1, d) for a in range(1, d)}
    pairs = [(u.copy() % d, v.copy() % d) for u, v in given]

    def reduce(b):
        b = b.copy() % d
        for u, v in pairs:
            lam = _sympl_form(b, v, n, d)
            mu = _sympl_form(b, u, n, d)
            b = (b + lam * u - mu * v) % d
        return b

    candidates = [np.eye(2 * n, dtype=np.int64)[k] for k in range(2 * n)]
    for c in candidates:
        if len(pairs) == n:
            break
        b = reduce(c)
        if not b.any():
            continue
        partner = None
        for c2 in candidates:
            b2 = reduce(c2)
            s = _sympl_form(b, b2, n, d)
            if s != 0:
                # normalize so the pair mimics (X_k, Z_k): form value -1
                partner = (inv[s] * (d - 1) % d) * b2 % d
                break
        if partner is None:
            continue
        pairs.append((b, partner % d))
    if len(pairs) != n:
        raise InadmissibleMapError("could not complete the symplectic basis")
    return pairs


def _order_fixed_phase(n: int, d: int, v, w) -> int:
    """Smallest phase exponent making (phase * XZ(v,w))^d the exact identity."""
    base = PauliVector(n, d, tuple(v), tuple(w), 0)
    acc = base.power(d)
    for p in range(2 * d):
        if (d * p + acc.phase_exp) % (2 * d) == 0:
            return p
    raise InadmissibleMapError("no phase renders the completed generator order d")


def complete_tableau(m: PartialCliffordMap) -> tuple[list[PauliVector], list[PauliVector]]:
    """The images (X'_k, Z'_k) of every generator, the requested ones included.

    Restricted to prime d: the requested image columns are completed to a
    full symplectic basis over Z_d, and completed generators get order-d
    phases.  Raises when the map is inadmissible.
    """
    if not _is_prime(m.d):
        raise NonPrimeDimensionError(f"synthesis requires prime d, got {m.d}")
    report = check_admissible(m)
    if not report.admissible:
        raise InadmissibleMapError("; ".join(report.failures))
    n, d = m.n, m.d

    by_slot: dict[int, dict[str, PauliVector]] = {}
    for src, tgt in m.images:
        kind, slot = _generator_kind(src)
        by_slot.setdefault(slot, {})[kind] = tgt
    for slot, imgs in by_slot.items():
        if set(imgs) != {"X", "Z"}:
            raise InadmissibleMapError(f"slot {slot} needs both X and Z images")

    given_slots = sorted(by_slot)
    given_pairs = [
        (by_slot[s]["X"].sympl(), by_slot[s]["Z"].sympl()) for s in given_slots
    ]
    full_pairs = _complete_symplectic(given_pairs, n, d)

    free_slots = [s for s in range(n) if s not in by_slot]
    tx: list[PauliVector | None] = [None] * n
    tz: list[PauliVector | None] = [None] * n
    for s, imgs in by_slot.items():
        tx[s], tz[s] = imgs["X"], imgs["Z"]
    for s, (u, v) in zip(free_slots, full_pairs[len(given_slots):]):
        pu = _order_fixed_phase(n, d, u[:n], u[n:])
        pv = _order_fixed_phase(n, d, v[:n], v[n:])
        tx[s] = PauliVector(n, d, tuple(u[:n]), tuple(u[n:]), pu)
        tz[s] = PauliVector(n, d, tuple(v[:n]), tuple(v[n:]), pv)
    return tx, tz


def synthesize_clifford(m: PartialCliffordMap) -> DenseTensor:
    """Unitary U with U src U† = tgt for every requested image, phases exact.

    U is assembled from the completed tableau (``complete_tableau``): the
    joint +1 eigenstate of the Z images and its orbit under the X images,
    with every string applied as a monomial, so apart from the final
    unitarity check the cost is O(n d^2n).
    """
    tx, tz = complete_tableau(m)
    n, d = m.n, m.d
    dim = d**n
    phi0 = _joint_eigenvector(tz, dim)
    u = phi0[:, None]
    for t in tx:  # column x_0 .. x_{n-1} (row-major) is X'_{n-1}^x_{n-1} .. X'_0^x_0 phi0
        mono = t.monomial()
        pows = [u]
        for _ in range(d - 1):
            pows.append(_apply(mono, pows[-1]))
        u = np.stack(pows, axis=2).reshape(dim, -1)

    if isometry_residual(u) > VERDICT_FLOOR:
        raise InadmissibleMapError("synthesis produced a non-unitary map")
    for src, tgt in m.images:
        if image_residual(u, src, tgt) > VERDICT_FLOOR * dim:
            raise InadmissibleMapError("synthesized unitary fails a requested image")
    return DenseTensor(u, ("out", "in"))


def _stabilized(zs, block: np.ndarray) -> np.ndarray:
    """prod_s (1/d) sum_k Z_s^k applied to a vector or column block: the
    projector onto the joint +1 eigenspace of the commuting strings zs."""
    for z in zs:
        mono = z.monomial()
        acc = total = block
        for _ in range(z.d - 1):
            acc = _apply(mono, acc)
            total = total + acc
        block = total / z.d
    return block


def _joint_eigenvector(zs, dim: int) -> np.ndarray:
    """The phase-fixed unit vector in the joint +1 eigenspace of n independent Z images.

    The eigenspace is one state, so projecting |0..0> gives it unless the
    state has no |0..0> component; a nonzero component of a stabilizer state
    is at least dim^(-1/2).  Only then are all dim basis vectors projected,
    keeping the one of largest norm.
    """
    phi0 = _stabilized(zs, np.eye(dim, 1, dtype=np.complex128)[:, 0])
    if np.linalg.norm(phi0) < 0.5 / np.sqrt(dim):
        proj = _stabilized(zs, np.eye(dim, dtype=np.complex128))
        phi0 = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    nrm = np.linalg.norm(phi0)
    if nrm < DEFAULT_TOL:
        raise InadmissibleMapError("target Z images admit no joint +1 eigenstate")
    return fix_global_phase(phi0 / nrm)


def is_clifford(U, n: int, d: int) -> bool:
    """True iff U maps every X_k, Z_k generator to a phased Pauli string."""
    u = U.data if isinstance(U, DenseTensor) else np.asarray(U, dtype=np.complex128)
    dim = d**n
    if u.shape != (dim, dim):
        raise DimensionMismatchError(f"expected a {dim} x {dim} unitary")
    if isometry_residual(u) > UNITARY_INPUT_BOUND:
        raise ValueError("input is not unitary")
    for k in range(n):
        for gen in (PauliVector.x_gen(n, d, k), PauliVector.z_gen(n, d, k)):
            if not _conjugates_to_pauli(u, gen):
                return False
    return True


def _conjugates_to_pauli(u: np.ndarray, g: PauliVector) -> bool:
    """Whether U g U† = phase * P for some Pauli string P, U unitary.

    The candidate P is read off one column and n entries of U g U†, each
    built as U (g U† e_c), and verified as U g = phase * P U, so neither the
    conjugate nor the candidate is ever a dense matrix.
    """
    mono = g.monomial()
    col0 = u @ _apply(mono, u[0].conj())
    hit = _read_pauli(col0, lambda row, col: u[row] @ _apply(mono, u[col].conj()), g.n, g.d)
    if hit is None:
        return False
    candidate, phase = hit
    return image_residual(u, g, candidate, phase) <= PAULI_FLOOR * np.sqrt(u.shape[0])

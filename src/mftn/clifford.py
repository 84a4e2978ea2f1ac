"""Qudit Pauli strings in exponent form and Clifford synthesis from partial maps.

A Pauli string on n qudits of dimension d is X_1^{v_1} Z_1^{w_1} x ... with a
global phase that is a 2d-th root of unity, tracked as an exponent in Z_{2d}.
Synthesis completes a partial generator map to a full symplectic basis over
Z_d (d prime) and builds the unitary from the joint eigenstate of the target
Z images, so the requested conjugation relations hold exactly, phases included.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .basis import shift_clock
from .errors import DimensionMismatchError, InadmissibleMapError, NonPrimeDimensionError
from .tensors import PAULI_FLOOR, DenseTensor


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
        x, z = shift_clock(self.d)
        sites = [np.linalg.matrix_power(x, vk) @ np.linalg.matrix_power(z, wk)
                 for vk, wk in zip(self.v, self.w)]
        return self.phase * functools.reduce(np.kron, sites, np.array([[1.0 + 0j]]))

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d, "v": list(self.v), "w": list(self.w),
                "phase_exp": self.phase_exp}

    @classmethod
    def from_json(cls, obj: dict) -> "PauliVector":
        return cls(obj["n"], obj["d"], tuple(obj["v"]), tuple(obj["w"]), obj.get("phase_exp", 0))


def pauli_to_matrix(p: PauliVector) -> DenseTensor:
    """Dense d^n x d^n matrix of a Pauli string, phase included."""
    return DenseTensor(p.matrix(), ("out", "in"))


def match_pauli_matrix(m: np.ndarray, n: int, d: int):
    """Recognize m = phase * XZ(v,w); returns (v, w, phase) or None.

    The phase may be any unit-modulus complex number here; use
    ``matrix_to_pauli`` when a Z_{2d} phase exponent is required.
    """
    dim = d**n
    m = np.asarray(m)
    if m.shape != (dim, dim):
        return None
    col0 = m[:, 0]
    r = int(np.argmax(np.abs(col0)))
    phase = col0[r]
    if abs(abs(phase) - 1.0) > PAULI_FLOOR:
        return None
    v = _digits(r, n, d)
    w = []
    for k in range(n):
        col_idx = d ** (n - 1 - k)
        row_idx = _index([(v[j] + (1 if j == k else 0)) % d for j in range(n)], d)
        ratio = m[row_idx, col_idx] / phase
        wk = int(np.round(np.angle(ratio) * d / (2 * np.pi))) % d
        w.append(wk)
    candidate = PauliVector(n, d, tuple(v), tuple(w), 0).matrix()
    if np.linalg.norm(m - phase * candidate) > PAULI_FLOOR * np.sqrt(dim):
        return None
    return tuple(v), tuple(w), complex(phase)


def matrix_to_pauli(m: np.ndarray, n: int, d: int) -> PauliVector | None:
    """Like match_pauli_matrix but requires the phase to be a 2d-th root of unity."""
    hit = match_pauli_matrix(m, n, d)
    if hit is None:
        return None
    v, w, phase = hit
    t = int(np.round(np.angle(phase) * d / np.pi)) % (2 * d)
    if abs(phase - np.exp(1j * np.pi * t / d)) > PAULI_FLOOR:
        return None
    return PauliVector(n, d, v, w, t)


def _digits(idx: int, n: int, d: int) -> list[int]:
    out = []
    for k in range(n):
        out.append((idx // d ** (n - 1 - k)) % d)
    return out


def _index(digits, d: int) -> int:
    idx = 0
    for x in digits:
        idx = idx * d + int(x)
    return idx


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


def synthesize_clifford(m: PartialCliffordMap) -> DenseTensor:
    """Unitary U with U src U† = tgt for every requested image, phases exact.

    Restricted to prime d: the requested image columns are completed to a
    full symplectic basis over Z_d, completed generators get order-d phases,
    and U is assembled from the joint +1 eigenstate of the target Z images
    and its orbit under the target X images.
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

    dim = d**n
    tz_mats = [t.matrix() for t in tz]
    proj = np.eye(dim, dtype=np.complex128)
    for tm in tz_mats:
        acc = np.eye(dim, dtype=np.complex128)
        stabsum = np.zeros_like(proj)
        for _ in range(d):
            stabsum += acc
            acc = acc @ tm
        proj = proj @ (stabsum / d)
    col = int(np.argmax(np.linalg.norm(proj, axis=0)))
    phi0 = proj[:, col]
    nrm = np.linalg.norm(phi0)
    if nrm < 1e-9:
        raise InadmissibleMapError("target Z images admit no joint +1 eigenstate")
    phi0 = phi0 / nrm
    lead = phi0[np.argmax(np.abs(phi0))]
    phi0 = phi0 * (abs(lead) / lead)

    tx_pows = []
    for t in tx:
        tm = t.matrix()
        pows = [np.eye(dim, dtype=np.complex128)]
        for _ in range(d - 1):
            pows.append(tm @ pows[-1])
        tx_pows.append(pows)

    u = np.empty((dim, dim), dtype=np.complex128)
    for idx in range(dim):
        x = _digits(idx, n, d)
        vec = phi0
        for k in range(n):
            if x[k]:
                vec = tx_pows[k][x[k]] @ vec
        u[:, idx] = vec

    if np.linalg.norm(u @ u.conj().T - np.eye(dim)) > 1e-9 * dim:
        raise InadmissibleMapError("synthesis produced a non-unitary map")
    for src, tgt in m.images:
        got = u @ src.matrix() @ u.conj().T
        if np.linalg.norm(got - tgt.matrix()) > 1e-9 * dim:
            raise InadmissibleMapError("synthesized unitary fails a requested image")
    return DenseTensor(u, ("out", "in"))


def is_clifford(U, n: int, d: int) -> bool:
    """True iff U maps every X_k, Z_k generator to a phased Pauli string."""
    u = U.data if isinstance(U, DenseTensor) else np.asarray(U, dtype=np.complex128)
    dim = d**n
    if u.shape != (dim, dim):
        raise DimensionMismatchError(f"expected a {dim} x {dim} unitary")
    if np.linalg.norm(u @ u.conj().T - np.eye(dim)) > 1e-7 * dim:
        raise ValueError("input is not unitary")
    for k in range(n):
        for gen in (PauliVector.x_gen(n, d, k), PauliVector.z_gen(n, d, k)):
            conj = u @ gen.matrix() @ u.conj().T
            if match_pauli_matrix(conj, n, d) is None:
                return False
    return True

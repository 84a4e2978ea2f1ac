"""Qudit Pauli strings in exponent form and Clifford synthesis from partial maps.

A Pauli string on n qudits of dimension d is X_1^{v_1} Z_1^{w_1} x ... with a
global phase that is a 2d-th root of unity, tracked as an exponent in Z_{2d}.
Synthesis completes a partial generator map to a full symplectic basis over
Z_d (d prime) and builds the unitary from the joint eigenstate of the target
Z images, so the requested conjugation relations hold exactly, phases included.
Every Pauli string is a phased permutation (``PauliVector.monomial``), so
synthesis and the Clifford checks apply strings to vectors and never multiply
dense Pauli matrices.  A synthesized U is kept as its completed tableau and
phi0 = U e_0, and accepted on one certificate in O(n d^n): exact integer
checks of the tableau and the measured ||Z'_k phi0 - phi0||, which bound the
2n residuals ||U g - g' U|| of the dense U that ``_filled`` builds, round-off
included, and, by Schur's lemma, its unitarity.  The dense U is built only
when it is read.  ``is_clifford`` (which forms U U†, O(d^3n)),
``image_residual`` and ``isometry_residual`` are the dense checks the
certificate is tested against.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .basis import shift_clock
from .errors import DimensionMismatchError, InadmissibleMapError, NonPrimeDimensionError, SizeGuardError
from .tensors import (DEFAULT_TOL, MAX_DENSE_ELEMENTS, PAULI_FLOOR, UNITARY_INPUT_BOUND, VERDICT_FLOOR, DenseTensor,
                      fix_global_phase, isometry_residual)


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

    def has_order_d(self) -> bool:
        """Whether self^d is the identity, phase included, in O(n).

        Composing the j-th factor adds 2 j v.w to the phase exponent
        (``compose``), so self^d has X and Z parts 0 and phase exponent
        d (p + (d - 1) v.w) mod 2d: it is the identity exactly when
        p + (d - 1) v.w is even.
        """
        return (self.phase_exp + _order_fixed_phase(self.d, self.v, self.w)) % 2 == 0

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

    The phase may be any unit-modulus complex number here; ``kron_to_pauli``
    requires a 2d-th root of unity.
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
        if not tgt.has_order_d():
            order_ok = False
            failures.append(f"order: image of {_generator_kind(src)} has (target)^d != I")
    return AdmissibilityReport(comm_ok, order_ok, failures)


def _is_prime(d: int) -> bool:
    if d < 2:
        return False
    return all(d % k for k in range(2, int(d**0.5) + 1))


def _complete_symplectic(given: list[tuple[np.ndarray, np.ndarray]], n: int, d: int):
    """Extend given (x-image, z-image) pairs to a full symplectic basis over Z_d.

    The unit vectors are the candidates, each kept reduced against the pairs
    found so far: a new pair (u, v) moves every candidate b once, to
    b + <b, v> u - <b, u> v, the step that reducing b against all pairs
    again would take last.
    """
    inv = {a: pow(a, -1, d) for a in range(1, d)}
    pairs = []
    reduced = np.eye(2 * n, dtype=np.int64)

    def forms(a):
        """The symplectic form of every candidate b with a: XZ(b) XZ(a) = omega^form XZ(a) XZ(b)."""
        return (reduced[:, n:] @ a[:n] - reduced[:, :n] @ a[n:]) % d

    def add(u, v):
        nonlocal reduced
        pairs.append((u, v))
        reduced = (reduced + np.outer(forms(v), u) - np.outer(forms(u), v)) % d

    for u, v in given:
        add(u % d, v % d)
    for k in range(2 * n):
        if len(pairs) == n:
            break
        b = reduced[k]
        if not b.any():
            continue
        s = -forms(b) % d  # the form of b with every candidate
        hits = np.flatnonzero(s)
        if not hits.size:
            continue
        # normalize so the pair mimics (X_k, Z_k): form value -1
        j = hits[0]
        add(b, (inv[int(s[j])] * (d - 1) % d) * reduced[j] % d)
    if len(pairs) != n:
        raise InadmissibleMapError("could not complete the symplectic basis")
    return pairs


def _order_fixed_phase(d: int, v, w) -> int:
    """Smallest phase exponent making (phase * XZ(v,w))^d the exact identity (``has_order_d``)."""
    return (d - 1) * sum(int(x) * int(y) for x, y in zip(v, w)) % 2


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
        pu = _order_fixed_phase(d, u[:n], u[n:])
        pv = _order_fixed_phase(d, v[:n], v[n:])
        tx[s] = PauliVector(n, d, tuple(u[:n]), tuple(u[n:]), pu)
        tz[s] = PauliVector(n, d, tuple(v[:n]), tuple(v[n:]), pv)
    return tx, tz


def _of_generator(xs, zs, src: PauliVector) -> float:
    """The figure for the bare generator src, from per-slot X and Z figures."""
    kind, slot = _generator_kind(src)
    return (xs if kind == "X" else zs)[slot]


@dataclass(frozen=True, eq=False)
class SynthesizedClifford:
    """A Clifford U held as its completed tableau and phi0 = U e_0, U e_c = X'^c phi0.

    It is accepted on its certificate (``_certify``):
    ``x_bounds[k]`` and ``z_bounds[k]`` bound ||U X_k - X'_k U||_F and
    ||U Z_k - Z'_k U||_F of the dense U, and ``isometry_bound`` bounds its
    ``isometry_residual``.  The dense U (``tensor``, ``data``, ``to_json``)
    is built on first read and not measured again: the bounds already hold
    for the array ``_filled`` writes.
    """

    phi0: np.ndarray
    tx: tuple[PauliVector, ...]
    tz: tuple[PauliVector, ...]
    x_bounds: tuple[float, ...]
    z_bounds: tuple[float, ...]
    isometry_bound: float

    def bound(self, src: PauliVector) -> float:
        """The bound on the residual of the bare generator src."""
        return _of_generator(self.x_bounds, self.z_bounds, src)

    @property
    def certified(self) -> bool:
        """The verdict ``is_clifford`` gives: every generator within PAULI_FLOOR sqrt(dim)
        of its image.  ``is_clifford`` holds the string it reads off U to the same bound;
        here the string is the tableau's image, named in advance."""
        return all(r <= PAULI_FLOOR * np.sqrt(len(self.phi0)) for r in self.x_bounds + self.z_bounds)

    @functools.cached_property
    def tensor(self) -> DenseTensor:
        """The dense U, refused with SizeGuardError past MAX_DENSE_ELEMENTS before it is allocated."""
        dim = len(self.phi0)
        if dim * dim > MAX_DENSE_ELEMENTS:
            raise SizeGuardError(f"a dense {dim} x {dim} Clifford exceeds 2^22 elements")
        return DenseTensor(_filled(self.phi0, self.tx), ("out", "in"), copy=False)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    def to_json(self) -> dict:
        return self.tensor.to_json()


def synthesize_clifford(m: PartialCliffordMap) -> SynthesizedClifford:
    """Unitary U with U src U† = tgt for every requested image, phases exact.

    U is the completed tableau (``complete_tableau``) and the joint +1
    eigenstate phi0 of the Z images, U e_c = X'^c phi0, every string applied
    as a monomial.  It is accepted on its certificate (``_certify``) in
    O(n d^n); the dense U is built only when it is read
    (``SynthesizedClifford.tensor``).
    """
    tx, tz = complete_tableau(m)
    return _certify(_joint_eigenvector(tz, m.d**m.n), m.images, tx, tz)


def _filled(phi0: np.ndarray, tx) -> np.ndarray:
    """The dense U, U e_c = X'^c phi0, written into one dim x dim array a block of columns at a time."""
    n, d, dim = len(tx), tx[0].d, len(phi0)
    u = np.empty((dim, dim), dtype=np.complex128)
    u[:, 0] = phi0
    for k, t in enumerate(tx):  # column x_0 .. x_{n-1} (row-major) is X'_{n-1}^x_{n-1} .. X'_0^x_0 phi0
        perm, phases = t.monomial()
        # the columns whose digits after x_k are all 0; those with x_k = 0 are filled
        done = u.reshape(dim, d**k, d, d ** (n - 1 - k))[:, :, :, 0]
        for x in range(1, d):
            done[:, :, x][perm] = phases[:, None] * done[:, :, x - 1]
    return u


def _certify(phi0: np.ndarray, images, tx, tz) -> SynthesizedClifford:
    """phi0 and the tableau with their certificate: refused unless the tableau
    passes its integer checks (``_check_tableau``), every requested image's
    bound (``_abstract_bounds``) is at most VERDICT_FLOOR * dim and the
    isometry bound at most VERDICT_FLOOR."""
    _check_tableau(images, tx, tz)
    xs, zs, isometry = _abstract_bounds(phi0, tx, tz)
    out = SynthesizedClifford(phi0, tuple(tx), tuple(tz), xs, zs, isometry)
    if not all(out.bound(src) <= VERDICT_FLOOR * len(phi0) for src, _ in images):
        raise InadmissibleMapError("synthesized unitary fails a requested image")
    if not isometry <= VERDICT_FLOOR:
        raise InadmissibleMapError("synthesis produced a non-unitary map")
    return out


def _check_tableau(images, tx, tz) -> None:
    """Refuse a tableau that is not a Clifford's with the requested images; exact, phases included.

    It must hold the requested images; its images must commute as the
    generators do (the X' pairwise, the Z' pairwise, and X'_j with Z'_k as
    X_j with Z_k): the symplectic form below is ``commutation_exponent`` of
    every pair at once, and the generators' is (0, -I; I, 0) mod d; and each
    image must have order d with phase exponent 0.
    """
    n, d = len(tx), tx[0].d
    for src, tgt in images:
        if _of_generator(tx, tz, src) != tgt:
            raise InadmissibleMapError(f"the tableau does not hold the requested image of {_generator_kind(src)}")
    rows = list(tx) + list(tz)
    v, w = np.array([t.v for t in rows]), np.array([t.w for t in rows])
    eye, zero = np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)
    if not np.array_equal((w @ v.T - v @ w.T) % d, np.block([[zero, -eye], [eye, zero]]) % d):
        raise InadmissibleMapError("the tableau's images do not commute as the generators do")
    if not all(t.has_order_d() for t in rows):
        raise InadmissibleMapError("a tableau image does not have order d with phase exponent 0")


def _abstract_bounds(phi0: np.ndarray, tx, tz):
    """(bounds on the X residuals, on the Z residuals, on the isometry residual) of the U
    ``_filled`` builds, as ``image_residual`` and ``isometry_residual`` compute them.

    In exact arithmetic, U e_c = X'^c phi0 and a tableau that passes
    ``_check_tableau`` give U X_k = X'_k U (the X' commute, and X'_k^d = I
    where digit k wraps), and Z'_k X'^c = omega^(c_k) X'^c Z'_k, so that
    (U Z_k - Z'_k U) e_c = omega^(c_k) X'^c (phi0 - Z'_k phi0) for every
    column: ||U Z_k - Z'_k U||_F = sqrt(dim) r_k with r_k = ||Z'_k phi0 - phi0||.

    Round-off, with eps machine epsilon and u = eps / 2: delta = 32 eps bounds
    the error of one rounded unit phase times an entry, relative to the
    entry (the phase table is within 28 u of the roots of unity, its angle
    to 4 u relative and the exponential to an ulp a part, and the product
    adds sqrt(5) u).
    - the fill: each entry of the floating-point U is an entry of phi0
      times at most m = n(d - 1) rounded unit phases, so U is off the exact
      one by F with ||F||_F <= g_m sqrt(dim) ||phi0||, g_j = (1 + delta)^j - 1,
      which moves each residual by at most 2 ||F||_F.  The residuals' own
      phase products add one step, 2 g_(m+1) sqrt(dim) ||phi0|| in all, and
      their sums of dim^2 squares a factor of at most 1 + dim^2 eps;
    - r_k: the computed Z'_k phi0 is off by at most delta ||phi0||, and a
      norm of dim terms by a factor of at most 1 + dim eps, so r_k <=
      (1 + dim eps) r^_k + delta ||phi0|| from the computed r^_k, and
      ||phi0|| <= (1 + dim eps) times its computed value.
    ``_isometry_bound`` then applies unchanged to the largest bound, at
    either end of the range (1 -+ g_m) sqrt(dim) ||phi0|| of ||U||_F.
    """
    n, d, dim = len(tx), tx[0].d, len(phi0)
    eps = np.finfo(float).eps
    delta, grow, m = 32 * eps, 1 + dim * eps, n * (d - 1)
    computed = float(np.linalg.norm(phi0))
    norm = grow * computed
    fill = (1 + delta) ** m - 1
    moved = 2 * ((1 + delta) ** (m + 1) - 1) * np.sqrt(dim) * norm
    r = [grow * float(np.linalg.norm(_apply(z.monomial(), phi0) - phi0)) + delta * norm for z in tz]
    sums = 1 + dim * dim * eps
    xs = (sums * moved,) * n
    zs = tuple(sums * (np.sqrt(dim) * r_k + moved) for r_k in r)
    ends = ((1 - fill) * np.sqrt(dim) * computed / grow, (1 + fill) * np.sqrt(dim) * norm)
    return xs, zs, max(_isometry_bound(max(xs + zs), end, n, d) for end in ends)


def _isometry_bound(eps: float, norm: float, n: int, d: int) -> float:
    """An upper bound on ``isometry_residual(U)`` from U's tableau residuals.

    eps is the largest generator residual and norm = ||U||_F.  With G = U†U,
    U g = g' U + E and ||E||_F <= eps give ||g† G g - G||_F <= 2 norm eps +
    eps^2 for each generator g.  Every Pauli string is a word of at most
    2n(d - 1) generators, and the average of P† G P over all d^2n strings is
    tr(G)/dim I (Schur's lemma: the Pauli group acts irreducibly), so
    ||G - tr(G)/dim I||_F <= 2n(d - 1)(2 norm eps + eps^2); tr G = norm^2
    adds |norm^2/dim - 1| sqrt(dim).  Divided by dim, that bounds the exact
    residual.  The computed Gram is off by at most dim u |U|†|U| entrywise
    (u the unit round-off), which moves the computed residual by at most
    u norm^2; the last term, machine epsilon (2u) times norm^2, covers that
    and the round-off of the residuals themselves.
    """
    dim = d**n
    schur = 2 * n * (d - 1) * (2 * norm * eps + eps**2) + abs(norm**2 / dim - 1) * np.sqrt(dim)
    return float(schur / dim + np.finfo(float).eps * norm**2)


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

    The eigenspace is one stabilizer state, so projecting a basis vector on
    its support gives it, and a nonzero component of a stabilizer state is at
    least dim^(-1/2).  |0..0> is projected first; only when the state has no
    component there is a vector on the support found (``_support_index``).
    """
    def projected(j):
        basis_vector = np.zeros(dim, dtype=np.complex128)
        basis_vector[j] = 1
        return _stabilized(zs, basis_vector)

    phi0 = projected(0)
    if np.linalg.norm(phi0) < 0.5 / np.sqrt(dim):
        phi0 = projected(_support_index(zs))
    nrm = np.linalg.norm(phi0)
    if nrm < DEFAULT_TOL:
        raise InadmissibleMapError("target Z images admit no joint +1 eigenstate")
    return fix_global_phase(phi0 / nrm)


def _support_index(zs) -> int:
    """A basis index j, row-major, with <j|psi> != 0 for the joint +1 eigenstate psi of zs.

    <j|psi> vanishes unless every pure-Z element s = e^{i pi p / d} Z^w of the
    group the strings generate fixes |j>: p is even and w.j = -p/2 (mod d).
    Those elements are the products prod_k Z'_k^a_k whose X parts cancel, so
    one per basis vector a of the left null space of the X parts gives all
    the conditions, and any solution j of them is on the support; its free
    digits are 0.
    """
    n, d = zs[0].n, zs[0].d
    reduced, pivots = _row_reduce(np.hstack([[z.v for z in zs], np.eye(n, dtype=np.int64)]), n, d)
    conditions = []
    for a in reduced[len(pivots):, n:]:
        s = functools.reduce(PauliVector.compose, (z.power(k) for z, k in zip(zs, a)))
        if s.phase_exp % 2:
            raise InadmissibleMapError("target Z images admit no joint +1 eigenstate")
        conditions.append(s.w + (-s.phase_exp // 2,))
    system, pivots = _row_reduce(np.array(conditions, dtype=np.int64).reshape(-1, n + 1), n, d)
    if system[len(pivots):, n].any():
        raise InadmissibleMapError("target Z images admit no joint +1 eigenstate")
    j = np.zeros(n, dtype=np.int64)
    j[pivots] = system[:len(pivots), n]
    return int(j @ d ** np.arange(n - 1, -1, -1))


def _row_reduce(m: np.ndarray, cols: int, d: int) -> tuple[np.ndarray, list]:
    """Reduced row echelon form mod prime d, pivoting in the first ``cols`` columns;
    returns it with the pivot columns, whose rows come first."""
    m = np.array(m, dtype=np.int64) % d
    pivots = []
    for c in range(cols):
        r = len(pivots)
        hits = np.flatnonzero(m[r:, c])
        if not hits.size:
            continue
        m[[r, r + hits[0]]] = m[[r + hits[0], r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, d) % d
        others = np.arange(len(m)) != r
        m[others] = (m[others] - np.outer(m[others, c], m[r])) % d
        pivots.append(c)
    return m, pivots


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

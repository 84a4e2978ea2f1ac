"""Monte-Carlo simulation of the measurement-and-feedback preparation protocol.

Chains and small PEPS patches are assembled from per-site resource tensors;
every bond is measured in the MF basis with exact Born-rule sampling (outcome
probabilities are computed from the actual resource state via sequential
conditionals, never assumed uniform), defects are pushed by the constraint
tables to the open boundary, and the corrected state is compared against the
target by a double-layer overlap (transfer matrices for chains, so a chain
run is linear in its length).

Measuring a bond pair in the state |P_j> = sum_ab (P_j)_ab |a b> / sqrt(D)
inserts the matrix P_j^* / sqrt(D) on the bond, so the pushed defect class is
the class of P_j^*.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import MFBasis
from .errors import (
    BoundaryError,
    DefectStuckError,
    DimensionMismatchError,
    NonGroupBasisError,
    NumericalRangeError,
    SizeGuardError,
    SymmetryError,
)
from .mps import (
    apply_leg_ops,
    chain_state,
    check_mf_symmetry,
    complete_constraints,
    per_distinct,
    solve_pushes,
)
from .peps import PEPSTensor
from .tensors import BORN_FLOOR, DEFAULT_TOL, VERDICT_FLOOR, DenseTensor, state_fidelity

RNG_ALGORITHM = "philox4x64"
MAX_DENSE_ELEMENTS = 1 << 22  # largest dense patch state or contraction front
MAX_TRIAL_WORK = 1 << 30  # (bonds + 2) x sites x widest front of one PEPS trial: a few seconds


@dataclass
class ProtocolRun:
    seed: int
    rng_algorithm: str
    outcomes: list
    probabilities: list
    corrections: list
    final_state: DenseTensor | None
    fidelity: float
    success: bool
    predicted_success: bool


def philox_rng(seed: int) -> np.random.Generator:
    """The seeded generator every protocol run draws from (``RNG_ALGORITHM``)."""
    return np.random.Generator(np.random.Philox(seed))


def bond_projector(basis: MFBasis, j: int) -> np.ndarray:
    """The matrix P_j^* / sqrt(D) that measuring outcome j inserts on a bond."""
    return basis.elements[j].conj() / np.sqrt(basis.dim)


def born_choice(weights, rng: np.random.Generator) -> tuple[int, float]:
    """Draw index j with probability weights[j] / sum(weights); returns (j, p_j).

    The weights are unnormalized Born weights of the candidate outcomes.
    Negative round-off, down to -``BORN_FLOOR`` x sum |w|, is clipped to zero;
    a weight below that is refused, as is one that under- or overflowed.  A
    zero total means the projected state vanished.
    """
    w = np.array(weights)
    if not np.isfinite(w).all():
        raise NumericalRangeError("Born weights are not finite")
    lowest = w.min(initial=0.0)
    if lowest < 0:
        if lowest < -BORN_FLOOR * np.abs(w).sum():
            raise NumericalRangeError("a Born weight is negative beyond round-off")
        w = np.maximum(w, 0.0)
    total = w.sum()
    if total <= 0:
        raise SymmetryError("projected state has zero norm")
    p = w / total
    j = int(rng.choice(len(p), p=p))
    return j, float(p[j])


# ---------------------------------------------------------------------------
# MPS chains
# ---------------------------------------------------------------------------


def _transfer(kets, bras) -> np.ndarray:
    """sum_i K^i x conj(B^i) over (..., d, D, D) stacks: (..., D^2, D^2) pair maps."""
    D = kets.shape[-1]
    return np.einsum("...iab,...icd->...acbd", kets, bras.conj()).reshape(kets.shape[:-3] + (D * D, D * D))


def _close_chain(maps, D: int, boundary: str) -> tuple[complex, float]:
    """(value, log scale) of a double-layer chain of pair maps, rescaled at every site;
    open ends pair the ket and bra edge legs, periodic chains take the trace.  The
    logs are summed exactly, as a running sum drifts by about n eps."""
    delta = np.eye(D).reshape(-1)
    env, logs = (delta if boundary == "open" else np.eye(D * D)), []
    for m in maps:
        env = env @ m
        s = np.linalg.norm(env)
        if s == 0:
            return 0j, 0.0
        env = env / s
        logs.append(np.log(s))
    return complex(env @ delta if boundary == "open" else np.trace(env)), math.fsum(logs)


def _validate_chain(tensors, tol: float) -> MFBasis:
    if not tensors:
        raise ValueError("empty chain")
    basis = tensors[0].basis
    for t in {id(t): t for t in tensors}.values():
        if t.basis.dim != basis.dim:
            raise DimensionMismatchError("all tensors must share the basis dimension")
        check_mf_symmetry(t, tol).require("chain tensor fails MF symmetry: %.3e")
    try:
        basis.product_table()
    except NonGroupBasisError:
        raise NonGroupBasisError("protocol simulation requires a group basis") from None
    return basis


def _sample_chain_bonds(transfers, basis, boundary, rng):
    """Exact sequential Born sampling of the bond outcomes (Ferris & Vidal 2012).

    ``env`` = T_0 L_0 ... T_b is the rescaled left environment of the bonds
    measured so far.  Outcome j of bond b weighs delta env L_j T_{b+1} delta:
    each unmeasured bond further right cuts the double layer, which scales
    every candidate alike.  A periodic wrap bond closes the ring with a trace.
    """
    n = len(transfers)
    delta = np.eye(basis.dim).reshape(-1)
    projectors = np.stack([bond_projector(basis, j)[None] for j in range(len(basis.elements))])
    links = _transfer(projectors, projectors)
    env = np.eye(len(delta))
    outcomes, probs = [], []
    for b in range(n if boundary == "periodic" else n - 1):
        env = env @ transfers[b]
        env /= np.linalg.norm(env)
        if b == n - 1:
            weights = np.einsum("ab,jba->j", env, links)
        else:
            weights = delta @ env @ links @ transfers[b + 1] @ delta
        j, p = born_choice(weights.real, rng)
        outcomes.append(j)
        probs.append(p)
        env = env @ links[j]
    return outcomes, probs


def _chain_fidelity(stacks, transfers, basis, outcomes, corrections, edge_fix, boundary) -> float:
    """|<t|c>|^2 / (<t|t> <c|c>) of the corrected chain c against the target t.

    c folds into the target's site stacks A^i each bond's P_j^* / sqrt(D)
    (right of its left site), the sweep's A^i -> sum_i' u_ii' A^i' and the
    open edge fix (on the last right leg): the chain analogue of peps_fidelity.
    """
    D = basis.dim
    fixed = list(stacks)
    for site, u in corrections:
        fixed[site] = np.tensordot(u, fixed[site], axes=1)
    for b, j in enumerate(outcomes):
        fixed[b] = fixed[b] @ bond_projector(basis, j)
    if edge_fix is not None:
        fixed[-1] = fixed[-1] @ edge_fix
    tc, log_tc = _close_chain([_transfer(c, a) for c, a in zip(fixed, stacks)], D, boundary)
    cc, log_cc = _close_chain([_transfer(c, c) for c in fixed], D, boundary)
    tt, log_tt = _close_chain(transfers, D, boundary)
    if tt.real <= 0 or cc.real <= 0:
        return 0.0
    return float(abs(tc) ** 2 / (tt.real * cc.real) * np.exp(2 * log_tc - log_tt - log_cc))


def push_chain_defects(completed, basis, outcomes, boundary):
    """Left-to-right defect sweep over the measured bonds of a chain.

    ``completed[k]`` is the closed constraint table of site k (see
    ``complete_constraints``) and ``outcomes[b]`` the basis index measured on
    bond b.  Returns (corrections, edge_fix, predicted): the (site, U) pairs
    on the physical legs, the inverse of the final defect for the open right
    edge (None for periodic chains), and whether the merged wrap-bond defect
    of a periodic chain is the identity class (always True for open chains).
    The running defect is a (class, phase) pair, phase * P_class, composed
    exactly by ``MFBasis.compose`` and the conjugate table; it drops the
    bonds' 1/sqrt(D) scale, so corrected states are fixed up to a positive
    factor, which every fidelity divides out.
    """
    nbonds = len(completed) if boundary == "periodic" else len(completed) - 1
    conjugates = basis.conjugate_table()
    corrections = []
    cls, phase = basis.identity_index, 1.0 + 0j
    for b in range(nbonds):
        if outcomes[b] not in conjugates:
            raise DefectStuckError("bond operator left the basis", site=b)
        cls, phase = basis.compose((cls, phase), conjugates[outcomes[b]])
        if boundary == "periodic" and b == nbonds - 1:
            return corrections, None, cls == basis.identity_index
        site = b + 1
        if cls not in completed[site]:
            raise DefectStuckError(
                f"no constraint pushes {basis.labels[cls]} past site {site}",
                site=site,
                operator=basis.labels[cls],
            )
        u, cls = completed[site][cls]
        corrections.append((site, u))
    return corrections, basis.elements[cls].conj().T / phase, True


def apply_chain_corrections(state, corrections, edge_fix, boundary):
    """Apply the sweep's site unitaries and edge fix to a dense chain state.

    ``state`` has one axis per physical leg, framed by the two edge legs for
    open chains; ``edge_fix`` (if any) acts on the last axis.  Each unitary
    is one matmul on the state viewed as (prefix, d, suffix), with the d axis
    brought to the front, so that it is a single matrix product.
    """
    offset = 1 if boundary == "open" else 0
    shape = state.shape
    for site, u in corrections:
        prefix, d = math.prod(shape[:site + offset]), shape[site + offset]
        legs = state.reshape(prefix, d, -1).transpose(1, 0, 2).reshape(d, -1)
        state = (u @ legs).reshape(d, prefix, -1).transpose(1, 0, 2).reshape(shape)
    if edge_fix is not None:
        state = (state.reshape(-1, shape[-1]) @ edge_fix).reshape(shape)
    return state


def run_mps_protocol(tensors, boundary: str = "open", seed: int = 0, tol: float = DEFAULT_TOL) -> ProtocolRun:
    """Simulate one full MF preparation round for an MPS chain, in linear time.

    No d^n state is built, so ``final_state`` is None; ``chain_state`` and
    ``apply_chain_corrections`` give a short chain's corrected state.
    """
    tensors = list(tensors)
    if boundary not in ("open", "periodic"):
        raise BoundaryError(f"unknown boundary {boundary!r}")
    basis = _validate_chain(tensors, tol)
    rng = philox_rng(seed)
    if len(tensors) == 1 and boundary == "open":
        return ProtocolRun(seed, RNG_ALGORITHM, [], [], [], None, 1.0, True, True)
    stacks = _site_stacks(tensors)
    transfers = per_distinct(stacks, lambda s: _transfer(s, s))
    outcomes, probs = _sample_chain_bonds(transfers, basis, boundary, rng)
    completed = per_distinct(tensors, complete_constraints)
    corrections, edge_fix, predicted = push_chain_defects(completed, basis, outcomes, boundary)
    fid = _chain_fidelity(stacks, transfers, basis, outcomes, corrections, edge_fix, boundary)
    return ProtocolRun(seed, RNG_ALGORITHM, outcomes, probs, corrections,
                       None, fid, fid >= 1 - max(tol, VERDICT_FLOOR), predicted)


@dataclass
class EnumerationReport:
    outcomes: list
    probabilities: list
    correctable: list
    fidelities: list
    success_probability: float

    @property
    def correctable_fraction(self) -> float:
        """Fraction of outcome tuples whose merged defect is correctable.

        This counts tuples, not probability weight: for periodic chains the
        projected branches have unequal norms, so the Born-honest
        success_probability can differ from this fraction.
        """
        if not self.correctable:
            return 1.0
        return sum(self.correctable) / len(self.correctable)


MAX_ENUMERATED_TUPLES = 65536


def check_enumeration_size(outcomes_per_bond: int, nbonds: int) -> None:
    """Refuse an enumeration over more than ``MAX_ENUMERATED_TUPLES`` outcome tuples.

    Callers check this before they build any state of the chain's or the
    patch's size.
    """
    if outcomes_per_bond**nbonds > MAX_ENUMERATED_TUPLES:
        raise SizeGuardError("outcome enumeration exceeds the desk-scale guard")


def enumerate_branches(outcomes_per_bond: int, nbonds: int, branch) -> EnumerationReport:
    """Exact accounting over every outcome tuple of ``nbonds`` measured bonds.

    ``branch(combo)`` returns (Born probability, correctable, fidelity or None)
    of one tuple; the correctable probabilities add up to the success
    probability.  No branch is kept once it is accounted.
    """
    check_enumeration_size(outcomes_per_bond, nbonds)
    outs = list(itertools.product(range(outcomes_per_bond), repeat=nbonds))
    rows = [branch(combo) for combo in outs]
    probs = [float(p) for p, _, _ in rows]
    correctable = [bool(ok) for _, ok, _ in rows]
    fids = [fid for _, _, fid in rows]
    success_p = sum(p for p, ok in zip(probs, correctable) if ok)
    return EnumerationReport(outs, probs, correctable, fids, float(success_p))


def _site_stacks(tensors) -> list:
    """The (d, D, D) site stacks A^i of a chain, one per distinct tensor.

    Each is divided by the power of two nearest its largest entry.  The
    rescaling is exact, and it keeps the d^n products and Born weights of a
    tiny or a huge tensor from under- or overflowing.
    """
    def scaled(t):
        stack = np.stack(t.site_matrices())
        # scaling the float64 view scales real and imaginary parts alike
        return np.ldexp(stack.view(np.float64), -np.frexp(np.abs(stack).max())[1]).view(np.complex128)

    return per_distinct(tensors, scaled)


def enumerate_outcomes(tensors, boundary: str = "open", tol: float = DEFAULT_TOL) -> EnumerationReport:
    """Exhaustive exact accounting over all measurement outcome tuples.

    Site stacks, with each outcome's bond projector folded in, and constraint
    tables are built once per call, not once per tuple.
    """
    tensors = list(tensors)
    basis = _validate_chain(tensors, tol)
    D = basis.dim
    nbonds = len(tensors) if boundary == "periodic" else len(tensors) - 1
    check_enumeration_size(D * D, nbonds)
    stacks = _site_stacks(tensors)
    # with every bond unmeasured each site is its own closed segment, of norm |A_k|^2
    norm_free = np.prod([np.linalg.norm(s) ** 2 for s in stacks])
    projectors = [bond_projector(basis, j) for j in range(D * D)]
    # A^i P_j: each site stack with outcome j measured on the bond to its right
    measured = per_distinct(stacks, lambda s: [s @ p for p in projectors])
    target = chain_state(stacks, boundary)
    completed = per_distinct(tensors, complete_constraints)

    def branch(combo):
        projected = chain_state([m[j] for m, j in zip(measured, combo)] + stacks[nbonds:], boundary)
        try:
            corrections, edge_fix, predicted = push_chain_defects(completed, basis, combo, boundary)
        except DefectStuckError:
            predicted, corrections, edge_fix = False, [], None
        fid = state_fidelity(apply_chain_corrections(projected, corrections, edge_fix, boundary), target)
        p = np.vdot(projected, projected).real / norm_free
        return p, predicted, float(fid)

    return enumerate_branches(D * D, nbonds, branch)


# ---------------------------------------------------------------------------
# PEPS patches
# ---------------------------------------------------------------------------

# orientation -> (in slots, out slots) over legs (left, up, right, down) = 0..3
ORIENTATIONS = {
    "ur": ((0, 3), (1, 2)),
    "ul": ((2, 3), (1, 0)),
    "dr": ((0, 1), (3, 2)),
    "dl": ((2, 1), (3, 0)),
}


def solve_push_table(A: PEPSTensor, in_slot: int, out_slots, tol: float = DEFAULT_TOL):
    """Per-class push rules U B (P on in_slot) = B (P1 on out1)(P2 on out2)."""
    basis = A.basis
    fits = solve_pushes(
        A.as_matrix(), basis, (A.D,) * 4, in_slot, basis.elements, out_slots,
        tol,
        lambda k: DefectStuckError(
            f"tensor admits no push for {basis.labels[k]} on slot {in_slot}",
            operator=basis.labels[k],
        ),
    )
    return {k: (u, c1, c2) for k, ((c1, c2), u) in enumerate(fits)}


class PepsPatch:
    """A rows x cols grid with per-site drain orientations.

    Horizontal bond ("h", r, c) joins sites (r, c)-(r, c+1) and vertical bond
    ("v", r, c) joins (r+1, c)-(r, c); row 0 is the top row.  ``ends`` maps
    each bond to its two (site, slot) ends and ``slot_bonds`` each site to its
    bond per slot (None on the patch boundary).  A bond's first end, which
    holds the first index of its bond matrix, is the one on an up or right
    slot: the south site of a vertical bond, the west site of a horizontal one.
    """

    def __init__(self, grid, orientations="ur", tol: float = DEFAULT_TOL):
        self.grid = [list(row) for row in grid]
        self.rows = len(self.grid)
        self.cols = len(self.grid[0])
        self.tol = tol
        basis = self.grid[0][0].basis
        for row in self.grid:
            for a in row:
                if a.basis.dim != basis.dim:
                    raise DimensionMismatchError("grid tensors must share the basis")
        self.basis = basis
        self.D = basis.dim
        if isinstance(orientations, str):
            orientations = [[orientations] * self.cols for _ in range(self.rows)]
        self.orient = [list(row) for row in orientations]
        if [len(row) for row in self.orient] != [self.cols] * self.rows:
            raise ValueError(f"orientation grid must be {self.rows} x {self.cols}")
        for row in self.orient:
            for o in row:
                if o not in ORIENTATIONS:
                    raise ValueError(f"unknown orientation {o!r}")
        self.ends = {("h", r, c): (((r, c), 2), ((r, c + 1), 0))
                     for r in range(self.rows) for c in range(self.cols - 1)}
        self.ends.update({("v", r, c): (((r + 1, c), 1), ((r, c), 3))
                          for r in range(self.rows - 1) for c in range(self.cols)})
        self.slot_bonds = {(r, c): [None] * 4 for r in range(self.rows) for c in range(self.cols)}
        for key, ends in self.ends.items():
            for site, slot in ends:
                self.slot_bonds[site][slot] = key
        # raster order along the long side, so that the contraction front spans the short side
        self.sweep_order = sorted(self.slot_bonds, key=lambda rc: rc if self.rows > self.cols else rc[::-1])
        # per-patch caches, like target_norm (the grid is fixed once built): push tables
        # and the folded double tensors of unmodified sites
        self._tables: dict = {}
        self._folds: dict = {}

    def bonds(self):
        return list(self.ends)

    def push_table(self, r, c, in_slot):
        key = (id(self.grid[r][c]), in_slot, ORIENTATIONS[self.orient[r][c]][1])
        if key not in self._tables:
            self._tables[key] = solve_push_table(
                self.grid[r][c], in_slot, ORIENTATIONS[self.orient[r][c]][1], self.tol
            )
        return self._tables[key]

    def processing_order(self):
        """Topological order of the defect-emission graph (Kahn)."""
        flow = {(r, c): ORIENTATIONS[o] for r, row in enumerate(self.orient) for c, o in enumerate(row)}
        deps = {site: set() for site in flow}
        for ends in self.ends.values():
            for (emitter, out_slot), (receiver, in_slot) in (ends, ends[::-1]):
                if out_slot in flow[emitter][1] and in_slot in flow[receiver][0]:
                    deps[receiver].add(emitter)
        order, ready = [], [s for s, d in deps.items() if not d]
        done = set()
        while ready:
            s = ready.pop()
            order.append(s)
            done.add(s)
            for t_site, d in deps.items():
                if t_site not in done and t_site not in ready and d <= done:
                    ready.append(t_site)
        if len(order) != self.rows * self.cols:
            raise DefectStuckError("orientation assignment has a cyclic defect flow")
        return order

    # -- contractions --------------------------------------------------------
    # every leg carries a label; ``sides`` maps a bond to the labels of its
    # (first, second) end, which a bond matrix joins

    def _slot_labels(self, r, c, sides):
        """Labels of site (r, c)'s legs left, up, right, down; None off ``sides``."""
        return [sides[key][self.ends[key].index(((r, c), slot))] if key in sides else None
                for slot, key in enumerate(self.slot_bonds[r, c])]

    def network_value(self, pairs=None, ket_mods=None, bra_mods=None, cuts=frozenset()):
        """<bra|ket> with per-site phys/leg ops, bond pair matrices, and cut bonds.

        ``pairs`` maps a bond to its pair matrix kron(ket bond matrix, bra bond
        matrix^*), of shape (D^2, D^2); an absent bond gets the identity.  At
        most one bond may map to a stack of shape (m, D^2, D^2), whose m values
        come back as one array.  ``*_mods`` maps (r, c) to (u_phys | None,
        [(slot, matrix), ...]).  Bonds in ``cuts`` are unmeasured: each layer's
        legs are traced separately.  Unmodified sites are folded once per patch.

        The sites join the front one at a time in ``sweep_order``, each after
        the pair matrices of the bonds whose first end it holds; an identity
        bond's two ends share one label, and a stack's outcome leg stays open.
        """
        pairs = {key: m for key, m in (pairs or {}).items() if key not in cuts}
        stacked = [key for key, m in pairs.items() if m.ndim == 3]
        if len(stacked) > 1:
            raise ValueError("at most one bond may take a stack of pair matrices")
        ket_mods = ket_mods or {}
        bra_mods = bra_mods or {}
        sides = {key: (2 * k, 2 * k + 1 if key in pairs else 2 * k)
                 for k, key in enumerate(self.ends) if key not in cuts}
        front, front_labels = np.ones(()), []
        for r, c in self.sweep_order:
            labels = self._slot_labels(r, c, sides)
            live = tuple(s for s in range(4) if labels[s] is not None)
            site = self._folded(r, c, live, ket_mods.get((r, c)), bra_mods.get((r, c)))
            site_labels = [labels[s] for s in live]
            for s in live:
                key = self.slot_bonds[r, c][s]
                if key in pairs and self.ends[key][0] == ((r, c), s):
                    m = pairs[key]
                    outcome_leg = [-1] if m.ndim == 3 else []
                    site, site_labels = _contract(site, site_labels, m, outcome_leg + list(sides[key]))
            front, front_labels = _contract(front, front_labels, site, site_labels)
        return front if stacked else complex(front)

    def _folded(self, r, c, live, ket_mod, bra_mod):
        """Site (r, c)'s double tensor on ``live`` slots; unmodified ones are kept."""
        if ket_mod is not None or bra_mod is not None:
            return _fold_site(self._site_array(r, c, ket_mod), self._site_array(r, c, bra_mod), live, self.D)
        key = (r, c, live)
        if key not in self._folds:
            arr = self._site_array(r, c, None)
            self._folds[key] = _fold_site(arr, arr, live, self.D)
        return self._folds[key]

    @functools.cached_property
    def target_norm(self) -> float:
        """<t|t> of the clean target network, contracted once per patch."""
        return self.network_value().real

    @functools.cached_property
    def outcome_pairs(self):
        """Stacks over outcomes j of the pair matrices kron(P, P^*) and kron(P, 1),
        with P = bond_projector(basis, j): the measured bond in both layers, or
        in the ket layer alone."""
        projectors = [bond_projector(self.basis, j) for j in range(len(self.basis.elements))]
        return (np.stack([np.kron(m, m.conj()) for m in projectors]),
                np.stack([np.kron(m, np.eye(self.D)) for m in projectors]))

    def _site_array(self, r, c, mods):
        """Site (r, c) as (left, up, right, down, phys) with ``mods`` applied."""
        arr = self.grid[r][c].tensor.transpose_to(("left", "up", "right", "down", "phys")).data
        if mods is None:
            return arr
        u_phys, slot_ops = mods
        ops = {} if u_phys is None else {4: np.asarray(u_phys).T}
        return apply_leg_ops(arr, arr.shape, {**ops, **dict(slot_ops)})

    def dense_state(self, ket_mods=None, ket_bonds=None):
        """Dense contraction of the ket layer; past 2^22 amplitudes a SizeGuardError.

        Output legs: per site in raster order, the boundary virtual legs (in
        left/up/right/down order) followed by the physical leg.
        """
        boundary_legs = 4 * self.rows * self.cols - 2 * len(self.ends)
        if self.D**boundary_legs * math.prod(a.d for row in self.grid for a in row) > MAX_DENSE_ELEMENTS:
            raise SizeGuardError("dense patch state exceeds 2^22 amplitudes")
        ket_mods = ket_mods or {}
        ket_bonds = ket_bonds or {}
        fresh = itertools.count()
        sides = {}
        operands = []
        for key in self.ends:
            m = ket_bonds.get(key)
            if m is None:
                sides[key] = (next(fresh),) * 2
            else:
                sides[key] = (next(fresh), next(fresh))
                operands += [np.asarray(m), list(sides[key])]
        out, out_legs = [], []
        for r in range(self.rows):
            for c in range(self.cols):
                labels = self._slot_labels(r, c, sides)
                for s, name in enumerate(("left", "up", "right", "down")):
                    if labels[s] is None:
                        labels[s] = next(fresh)
                        out.append(labels[s])
                        out_legs.append(f"{name}_{r}_{c}")
                labels.append(next(fresh))
                out.append(labels[4])
                out_legs.append(f"phys_{r}_{c}")
                operands += [self._site_array(r, c, ket_mods.get((r, c))), labels]
        data = np.einsum(*operands, out, optimize=True)
        return DenseTensor(data, out_legs)


def _contract(a, a_labels, b, b_labels):
    """Product of a and b summed over their shared labels; the other legs stay
    open, a's first.  The labels are renumbered for this one call."""
    shared = set(a_labels) & set(b_labels)
    keep = [x for x in a_labels + b_labels if x not in shared]
    compact = {x: k for k, x in enumerate(dict.fromkeys(a_labels + b_labels))}
    value = np.einsum(a, [compact[x] for x in a_labels], b, [compact[x] for x in b_labels],
                      [compact[x] for x in keep])
    return value, keep


def _fold_site(ket, bra, live, D):
    """Double tensor over a site with merged (ket, bra) pair legs on live bonds."""
    bra_legs = [5 + s if s in live else s for s in range(4)]
    out = [leg for s in live for leg in (s, 5 + s)]
    arr = np.einsum(ket, [0, 1, 2, 3, 4], bra.conj(), bra_legs + [4], out)
    return arr.reshape((D * D,) * len(live))


def _route_defects(patch: PepsPatch, outcomes: dict):
    """Symbolic defect sweep.  Returns per-site unitaries and boundary fixes.

    ``outcomes`` maps bond keys to measured basis indices.  Each pending bond
    holds its matrix, in [first-end, second-end] index order (see
    ``PepsPatch``), as a (class, phase) pair composed exactly through the
    basis's tables; the second end sees the transpose.  Identity-class
    emissions are dropped whatever their phase, which is a global scalar, so
    the recorded corrections transform the measured network into the target
    one up to a phase.
    """
    basis = patch.basis
    conjugates, transposes = basis.conjugate_table(), basis.transpose_table()
    ident = basis.identity_index

    def in_basis(table, cls, phase, where):
        if cls not in table:
            raise DefectStuckError("bond operator left the basis", site=where)
        k, ph = table[cls]
        return k, phase * ph

    pend = {key: in_basis(conjugates, j, 1.0, key) for key, j in outcomes.items()}
    consumed = dict.fromkeys(pend, False)
    site_u, edge_ops = {}, {}

    def emit(site, slot, cls, phase):
        if cls == ident:
            return
        bond = patch.slot_bonds[site][slot]
        if bond is None:
            r, c = site
            prev = edge_ops.get((r, c, slot), np.eye(patch.D, dtype=np.complex128))
            edge_ops[(r, c, slot)] = prev @ (phase * basis.elements[cls])
            return
        if consumed[bond]:
            raise DefectStuckError("emission into an already corrected bond", site=site)
        if patch.ends[bond][0] == (site, slot):
            pend[bond] = basis.compose((cls, phase), pend[bond])
        else:  # the second end multiplies the bond matrix by g^T from the right
            pend[bond] = basis.compose(pend[bond], in_basis(transposes, cls, phase, bond))

    for site in patch.processing_order():
        r, c = site
        ins, outs = ORIENTATIONS[patch.orient[r][c]]
        for in_slot in ins:
            bond = patch.slot_bonds[site][in_slot]
            if bond is None or consumed[bond]:
                continue
            consumed[bond] = True
            cls, phase = pend[bond]
            if patch.ends[bond][0] != (site, in_slot):
                cls, phase = in_basis(transposes, cls, phase, bond)
            if cls == ident:
                continue
            u, c1, c2 = patch.push_table(r, c, in_slot)[cls]
            prev = site_u.get(site, np.eye(patch.grid[r][c].d, dtype=np.complex128))
            site_u[site] = prev @ u
            emit(site, outs[0], c1, phase)
            emit(site, outs[1], c2, 1.0)

    for key, flag in consumed.items():
        if not flag and pend[key][0] != ident:
            raise DefectStuckError("unconsumed non-identity defect", site=key)
    return site_u, edge_ops


def _ket_mods(site_u, edge_ops):
    """Per-site (u_phys | None, [(slot, g^-1), ...]) undoing the routed defects."""
    mods = {site: (u, []) for site, u in site_u.items()}
    for (r, c, slot), g in edge_ops.items():
        mods.setdefault((r, c), (None, []))[1].append((slot, np.linalg.inv(g)))
    return mods


def _sample_peps_bonds(patch: PepsPatch, rng):
    """Sequential exact Born draws, one batched contraction per bond."""
    order = patch.bonds()
    both = patch.outcome_pairs[0]
    chosen: dict = {}
    probs = []
    for k, key in enumerate(order):
        pairs = {b: both[j] for b, j in chosen.items()}
        weights = patch.network_value(pairs={**pairs, key: both}, cuts=frozenset(order[k + 1:]))
        chosen[key], p = born_choice(weights.real, rng)
        probs.append(p)
    return chosen, probs


def peps_fidelity(patch: PepsPatch, outcomes: dict, site_u, edge_ops) -> float:
    """Overlap fidelity of the corrected network against the clean target."""
    both, ket_only = patch.outcome_pairs
    mods = _ket_mods(site_u, edge_ops)
    tc = patch.network_value(pairs={k: ket_only[j] for k, j in outcomes.items()}, ket_mods=mods)
    cc = patch.network_value(pairs={k: both[j] for k, j in outcomes.items()}, ket_mods=mods, bra_mods=mods)
    denom = patch.target_norm * cc.real
    if denom <= 0:
        return 0.0
    return float(abs(tc) ** 2 / denom)


def run_peps_protocol(grid, orientation="ur", seed: int = 0, tol: float = DEFAULT_TOL) -> ProtocolRun:
    """Simulate one MF preparation round for a small PEPS patch.

    ``orientation`` is a single drain direction or a per-site grid of
    directions from {ur, ul, dr, dl}; regions must drain consistently.
    Each bond's Born conditional comes from one contraction against the
    pair matrices of all its outcomes, and the fidelity from two overlaps.
    A patch whose contraction front, (D^2)^(min(rows, cols) + 1) x D^2
    elements, exceeds 2^22, or whose trial work, (bonds + 2) x sites x front,
    exceeds 2^30, is refused with SizeGuardError before anything is
    contracted or solved.
    ``final_state`` is None, as for chains; ``dense_state`` with the
    outcomes' ``bond_projector``s as ``ket_bonds`` and
    ``_ket_mods(site_u, edge_ops)`` of the routed corrections gives a small
    patch's corrected state (up to 2^22 amplitudes).
    """
    patch = grid if isinstance(grid, PepsPatch) else PepsPatch(grid, orientation, tol)
    # the sweep's widest front: a pair leg per short-side bond, one more while a line
    # is half swept, and the sampled bond's outcome leg
    front = (patch.D * patch.D) ** (min(patch.rows, patch.cols) + 2)
    if front > MAX_DENSE_ELEMENTS:
        raise SizeGuardError("patch's contraction front exceeds 2^22 elements")
    # every bond's draw and the two fidelity overlaps sweep each site through the front
    if (len(patch.bonds()) + 2) * patch.rows * patch.cols * front > MAX_TRIAL_WORK:
        raise SizeGuardError("patch's trial work exceeds 2^30 front elements swept")
    rng = philox_rng(seed)
    if not patch.bonds():
        return ProtocolRun(seed, RNG_ALGORITHM, [], [], [], None, 1.0, True, True)
    outcomes, probs = _sample_peps_bonds(patch, rng)
    site_u, edge_ops = _route_defects(patch, outcomes)
    fid = peps_fidelity(patch, outcomes, site_u, edge_ops)
    return ProtocolRun(seed, RNG_ALGORITHM, [outcomes[k] for k in patch.bonds()], probs,
                       sorted(site_u.items()), None, fid, fid >= 1 - max(tol, VERDICT_FLOOR), True)


def peps_routing_complete(patch: PepsPatch) -> bool:
    """Verify every defect class is pushable at every site and in-slot, that
    the defect flow has no cycle, and that some end of every bond takes it in.

    A bond that both its ends drain into is never consumed, so its defect
    stays on it; that refusal names the bond.  Corrections for simultaneous
    defects compose exactly, so these checks imply every outcome tuple is
    correctable.
    """
    for key, ends in patch.ends.items():
        if all(slot in ORIENTATIONS[patch.orient[r][c]][1] for (r, c), slot in ends):
            raise DefectStuckError(f"both ends of bond {key} drain into it", site=key)
    for r in range(patch.rows):
        for c in range(patch.cols):
            for in_slot in ORIENTATIONS[patch.orient[r][c]][0]:
                patch.push_table(r, c, in_slot)
    patch.processing_order()
    return True


def enumerate_peps_outcomes(patch: PepsPatch):
    """Exhaustive accounting over all PEPS outcome tuples (small patches).

    Returns an EnumerationReport with every correctable tuple's fidelity.
    Tuples come with the last bond varying fastest, so one batched
    contraction gives the Born weights of all its outcomes for each choice
    of the other bonds.
    """
    order = patch.bonds()
    check_enumeration_size(len(patch.basis.elements), len(order))
    norm_free = patch.network_value(cuts=frozenset(order)).real
    both = patch.outcome_pairs[0]
    weights = {}  # head of a tuple -> Born weights of the last bond's outcomes

    def branch(combo):
        head, last = combo[:-1], combo[-1:]  # last is () on a patch without bonds
        if head not in weights:
            pairs = {key: both[j] for key, j in zip(order, head)} | dict.fromkeys(order[-1:], both)
            weights[head] = np.asarray(patch.network_value(pairs).real) / norm_free
        p = weights[head][last]
        outcomes = dict(zip(order, combo))
        try:
            site_u, edge_ops = _route_defects(patch, outcomes)
        except DefectStuckError:
            return p, False, None
        return p, True, peps_fidelity(patch, outcomes, site_u, edge_ops)

    return enumerate_branches(len(patch.basis.elements), len(order), branch)

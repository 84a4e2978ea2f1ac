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
    MftnError,
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
    range_unitary,
    solve_pushes,
    stacked_leg_ops,
)
from .peps import PEPSTensor, check_peps_mf_symmetry
from .tensors import BORN_FLOOR, DEFAULT_TOL, MAX_DENSE_ELEMENTS, VERDICT_FLOOR, DenseTensor, state_fidelity

RNG_ALGORITHM = "philox4x64"
# (bonds + 2) x sites x widest front of one PEPS trial, a few seconds; a batch of T trials sweeps T times that
MAX_TRIAL_WORK = 1 << 30


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
# the two legs a network value may leave open: one per trial of a batch, one per outcome of a stacked bond
TRIAL, OUTCOME = "trial", "outcome"


def solve_push_table(A: PEPSTensor, in_slot: int, out_slots, tol: float = DEFAULT_TOL):
    """Per-class push rules U B (P^T on in_slot) = B (P1 on out1)(P2 on out2),
    keyed by P as A's constraints are."""
    basis = A.basis
    l, fits = solve_pushes(
        A.as_matrix(), basis, (A.D,) * 4, in_slot, out_slots, tol,
        lambda k: DefectStuckError(
            f"tensor admits no push for {basis.labels[k]} on slot {in_slot}",
            operator=basis.labels[k],
        ),
    )
    return {k: (range_unitary(l, u), c1, c2) for k, ((c1, c2), u) in enumerate(fits)}


def carried_push_table(A: PEPSTensor, in_slot: int, out_slots):
    """``solve_push_table``'s table read from A's carried pushes, or None.

    A's constraints push P^T in on the left (A-type) or down (B-type) leg
    and out on (up, right), keyed by P as the table is.  None when the
    out-slots are not (up, right), the in-slot is not left or down, or some
    class has no carried push; the caller checks that the pushes hold.
    """
    if out_slots != (1, 2) or in_slot not in (0, 3):
        return None
    table = {c.p_in: (c.u_phys, c.out_up, c.out_right)
             for c in (A.constraints_a if in_slot == 0 else A.constraints_b)}
    return table if len(table) == len(A.basis.elements) else None


class PepsPatch:
    """A rows x cols grid with per-site drain orientations.

    ``orientations`` is one drain direction from {ur, ul, dr, dl} or a
    per-site grid of them; regions must drain consistently.

    Horizontal bond ("h", r, c) joins sites (r, c)-(r, c+1) and vertical bond
    ("v", r, c) joins (r+1, c)-(r, c); row 0 is the top row.  ``ends`` maps
    each bond to its two (site, slot) ends and ``slot_bonds`` each site to its
    bond per slot (None on the patch boundary).  A bond's first end, which
    holds the first index of its bond matrix, is the one on an up or right
    slot: the south site of a vertical bond, the west site of a horizontal one.
    """

    def __init__(self, grid, orientations="ur", tol: float = DEFAULT_TOL):
        self.grid = [list(row) for row in grid]
        if not self.grid or not self.grid[0] or any(len(row) != len(self.grid[0]) for row in self.grid):
            raise DimensionMismatchError("a patch grid needs at least one site and rows of one length")
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
        # per site, the (slot, bond, end: 0 first, 1 second) of its bonded slots, in slot order
        self.bond_ends = {site: [(slot, key, self.ends[key].index((site, slot)))
                                 for slot, key in enumerate(keys) if key is not None]
                          for site, keys in self.slot_bonds.items()}
        # raster order along the long side, so that the contraction front spans the short side
        self.sweep_order = sorted(self.slot_bonds, key=lambda rc: rc if self.rows > self.cols else rc[::-1])
        # per-patch caches, like target_norm and processing_order (the grid is fixed once
        # built): push tables, the folded double tensors of unmodified sites, and the site arrays
        self._tables: dict = {}
        self._folds: dict = {}
        self._bare: dict = {}

    def bonds(self):
        return list(self.ends)

    def push_table(self, r, c, in_slot):
        """The site's push table for in_slot: read from the tensor's carried
        pushes when they give it and hold at the patch's tol (the tensor keeps
        their residuals), else searched by ``solve_push_table``."""
        a, out_slots = self.grid[r][c], ORIENTATIONS[self.orient[r][c]][1]
        key = (id(a), in_slot, out_slots)
        if key not in self._tables:
            table = carried_push_table(a, in_slot, out_slots)
            if table is None or not check_peps_mf_symmetry(a, self.tol).passed:
                table = solve_push_table(a, in_slot, out_slots, self.tol)
            self._tables[key] = table
        return self._tables[key]

    @functools.cached_property
    def processing_order(self) -> tuple:
        """Topological order of the defect-emission graph (Kahn), sorted once per
        patch; a cyclic flow raises DefectStuckError at each read."""
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
        return tuple(order)

    # -- contractions --------------------------------------------------------
    # every leg carries a label; ``sides`` maps a bond to the labels of its
    # (first, second) end, which a bond matrix joins

    def _slot_labels(self, r, c, sides):
        """Labels of site (r, c)'s legs left, up, right, down; None off ``sides``."""
        labels = [None] * 4
        for slot, key, end in self.bond_ends[r, c]:
            if key in sides:
                labels[slot] = sides[key][end]
        return labels

    def network_value(self, pairs=None, ket_mods=None, bra_mods=None, cuts=frozenset(), outcome=None, trials=None):
        """<bra|ket> with per-site phys/leg ops, bond pair matrices, and cut bonds.

        ``pairs`` maps a bond to its pair matrix kron(ket bond matrix, bra bond
        matrix^*), of shape (D^2, D^2); an absent bond gets the identity.
        ``outcome`` = (bond, stack) puts a stack (m, D^2, D^2) of pair matrices
        on one more bond, whose m values come back on the last axis.
        ``*_mods`` maps (r, c) to (u_phys | None, [(slot, matrix), ...]).  Bonds
        in ``cuts`` are unmeasured: each layer's legs are traced separately.
        Unmodified sites are folded once per patch.

        With ``trials`` = T, the values of T networks come back on a first
        axis: each pair matrix is then a stack (T, D^2, D^2) and each mod a
        list of T entries, None where a trial leaves the site as it is; the
        outcome stack is shared by all T.

        The sites join the front one at a time in ``sweep_order``, each after
        the pair matrices of the bonds whose first end it holds; an identity
        bond's two ends share one label, and the trial and outcome legs stay
        open.
        """
        lead = () if trials is None else (trials,)
        pairs = {key: m for key, m in (pairs or {}).items() if key not in cuts}
        if any(m.shape[:-2] != lead for m in pairs.values()):
            raise ValueError("a pair matrix carries a trial axis exactly when trials are given")
        squeeze = trials == 1  # a batch of one is contracted as one network: a trial leg of 1 costs einsum time
        if squeeze:
            pairs = {key: m[0] for key, m in pairs.items()}
            ket_mods = {site: m[0] for site, m in (ket_mods or {}).items()}
            bra_mods = {site: m[0] for site, m in (bra_mods or {}).items()}
            lead, trials = (), None
        legs = dict.fromkeys(pairs, [TRIAL] if lead else [])
        if outcome is not None:
            key, stack = outcome
            pairs[key], legs[key] = stack, [OUTCOME]
        ket_mods = ket_mods or {}
        bra_mods = bra_mods or {}
        sides = {key: (2 * k, 2 * k + 1 if key in pairs else 2 * k)
                 for k, key in enumerate(self.ends) if key not in cuts}
        front, front_labels = np.ones(()), []
        for r, c in self.sweep_order:
            bonded = [(slot, key, end) for slot, key, end in self.bond_ends[r, c] if key in sides]
            ket_mod, bra_mod = ket_mods.get((r, c)), bra_mods.get((r, c))
            site = self._folded(r, c, tuple(slot for slot, _, _ in bonded), ket_mod, bra_mod, trials)
            per_trial = bool(lead) and (ket_mod is not None or bra_mod is not None)
            site_labels = [TRIAL] * per_trial + [sides[key][end] for _, key, end in bonded]
            for _, key, end in bonded:
                if end == 0 and key in pairs:
                    site, site_labels = _contract(site, site_labels, pairs[key], legs[key] + list(sides[key]))
            front, front_labels = _contract(front, front_labels, site, site_labels)
        front = front.transpose([front_labels.index(x) for x in (TRIAL, OUTCOME) if x in front_labels])
        if squeeze:
            return front[None]
        if not lead:
            return front if outcome is not None else complex(front)
        return front if TRIAL in front_labels else np.broadcast_to(front, lead + front.shape)

    def _folded(self, r, c, live, ket_mod, bra_mod, trials):
        """Site (r, c)'s double tensor on ``live`` slots; unmodified ones are kept.

        With trials, a site with mods gets one per trial.  Each distinct
        (ket, bra) pair of mods is folded once: a site's corrections come from
        its few push-table entries, so with many trials most of them repeat.
        """
        if ket_mod is None and bra_mod is None:
            key = (r, c, live)
            if key not in self._folds:
                arr = self._site_array(r, c, None)
                self._folds[key] = _fold_site(arr, arr, live, self.D)
            return self._folds[key]
        if trials is None:
            return _fold_site(self._site_array(r, c, ket_mod), self._site_array(r, c, bra_mod), live, self.D)
        kets, bras = ([None] * trials if m is None else m for m in (ket_mod, bra_mod))
        # a batch's lists hold each mod object several times: key each object once
        keys = {id(m): _mod_key(m) for m in {id(m): m for m in kets + bras}.values()}
        first = {}  # (ket key, bra key) -> (its row in the folded stack, the first trial with it)
        rows = [first.setdefault((keys[id(k)], keys[id(b)]), (len(first), t))[0]
                for t, (k, b) in enumerate(zip(kets, bras))]
        picks = [t for _, t in first.values()]
        folded = _fold_site(self._site_stack(r, c, [kets[t] for t in picks]),
                            self._site_stack(r, c, [bras[t] for t in picks]), live, self.D)
        return folded if len(picks) == trials else folded[rows]

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
        if (r, c) not in self._bare:
            self._bare[r, c] = self.grid[r][c].tensor.transpose_to(("left", "up", "right", "down", "phys")).data
        arr = self._bare[r, c]
        if mods is None:
            return arr
        u_phys, slot_ops = mods
        ops = {} if u_phys is None else {4: np.asarray(u_phys).T}
        return apply_leg_ops(arr, arr.shape, {**ops, **dict(slot_ops)})

    def _site_stack(self, r, c, mods):
        """``_site_array`` of each mod in the list, as one stack, each leg's ops
        applied to all of them at once; a None mod leaves the site bare."""
        arr = self._site_array(r, c, None)
        stacks = {}  # leg -> (mods, n, n) matrices on it, the identity where a mod has none
        for k, mod in enumerate(mods):
            u_phys, slot_ops = (None, []) if mod is None else mod
            for leg, m in ([] if u_phys is None else [(4, np.asarray(u_phys).T)]) + list(slot_ops):
                if leg not in stacks:
                    stacks[leg] = np.tile(np.eye(arr.shape[leg], dtype=np.complex128), (len(mods), 1, 1))
                stacks[leg][k] = m
        if not stacks:
            return np.broadcast_to(arr, (len(mods),) + arr.shape)
        return stacked_leg_ops(arr.reshape(1, -1), arr.shape, stacks).reshape((-1,) + arr.shape)

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
    """Product of a and b summed over their shared labels, apart from TRIAL,
    which stays one open leg; the other legs stay open, a's first.  The
    labels are renumbered for this one call."""
    ours = set(a_labels)
    shared = ours.intersection(b_labels) - {TRIAL}
    keep = [x for x in a_labels if x not in shared] + [x for x in b_labels if x not in ours]
    compact = {x: k for k, x in enumerate(dict.fromkeys(a_labels + b_labels))}
    value = np.einsum(a, [compact[x] for x in a_labels], b, [compact[x] for x in b_labels],
                      [compact[x] for x in keep])
    return value, keep


def _mod_key(mod):
    """A hashable key equal for mods with equal entries, for None as well."""
    if mod is None:
        return None
    u_phys, slot_ops = mod
    return (None if u_phys is None else np.asarray(u_phys).tobytes(),
            tuple((slot, np.asarray(m).tobytes()) for slot, m in slot_ops))


def _fold_site(ket, bra, live, D):
    """Double tensor over a site with merged (ket, bra) pair legs on live bonds;
    a leading trial axis of either layer stays in front."""
    bra_legs = [5 + s if s in live else s for s in range(4)]
    out = [leg for s in live for leg in (s, 5 + s)]
    arr = np.einsum(ket, [..., 0, 1, 2, 3, 4], bra.conj(), [..., *bra_legs, 4], [..., *out])
    return arr.reshape(arr.shape[:arr.ndim - 2 * len(live)] + (D * D,) * len(live))


def _route_defects(patch: PepsPatch, outcomes: dict):
    """Symbolic defect sweep.  Returns per-site unitaries and the (class,
    phase) defects left on the patch's open legs.

    ``outcomes`` maps bond keys to measured basis indices.  Each pending bond
    holds its matrix M, in [first-end, second-end] index order (see
    ``PepsPatch``), as a (class, phase) pair composed exactly through the
    basis's tables.  The second end's leg carries M^T, so a push table, keyed
    by the P whose transpose enters the leg, takes M's own class there and
    the class of M^T at a first end.  Boundary emissions compose into one
    (class, phase) pair per open leg.  Identity-class emissions are dropped
    whatever their phase, which is a global scalar, so the recorded
    corrections transform the measured network into the target one up to a
    phase.
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
            edge_ops[(r, c, slot)] = basis.compose(edge_ops.get((r, c, slot), (ident, 1.0)), (cls, phase))
            return
        if consumed[bond]:
            raise DefectStuckError("emission into an already corrected bond", site=site)
        if patch.ends[bond][0] == (site, slot):
            pend[bond] = basis.compose((cls, phase), pend[bond])
        else:  # the second end multiplies the bond matrix by g^T from the right
            pend[bond] = basis.compose(pend[bond], in_basis(transposes, cls, phase, bond))

    for site in patch.processing_order:
        r, c = site
        ins, outs = ORIENTATIONS[patch.orient[r][c]]
        for in_slot in ins:
            bond = patch.slot_bonds[site][in_slot]
            if bond is None or consumed[bond]:
                continue
            consumed[bond] = True
            cls, phase = pend[bond]
            if patch.ends[bond][0] == (site, in_slot):
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


def _ket_mods(basis: MFBasis, site_u, edge_ops):
    """Per-site (u_phys | None, [(slot, g^-1), ...]) undoing the routed defects;
    the inverse of g = phase * P_k is P_k† / phase."""
    mods = {site: (u, []) for site, u in site_u.items()}
    for (r, c, slot), (k, phase) in edge_ops.items():
        mods.setdefault((r, c), (None, []))[1].append((slot, basis.elements[k].conj().T / phase))
    return mods


def _sample_peps_bonds(patch: PepsPatch, rngs):
    """Sequential exact Born draws for a batch of trials, one contraction per bond for all.

    Trial t draws from ``rngs[t]`` in bond order, so it draws what it would
    alone.  A trial whose draw raises ends the batch there: the trials before
    it go on.  Returns the (trials, bonds) outcomes and probabilities of the
    trials left, and the error that ended the batch, or None.
    """
    order = patch.bonds()
    both = patch.outcome_pairs[0]
    outcomes = np.zeros((len(rngs), len(order)), dtype=np.int64)
    probs = np.zeros(outcomes.shape)
    error, n = None, len(rngs)
    measured = {}  # bond -> the pair matrices of its drawn outcomes, one per trial
    for k, key in enumerate(order):
        if not n:
            break
        pairs = {b: m[:n] for b, m in measured.items()}
        weights = patch.network_value(pairs, cuts=frozenset(order[k + 1:]), outcome=(key, both), trials=n).real
        for t in range(n):
            try:
                outcomes[t, k], probs[t, k] = born_choice(weights[t], rngs[t])
            except MftnError as exc:  # re-raised by the caller unless a lower trial fails too
                error, n = exc, t
                break
        measured[key] = both[outcomes[:, k]]
    return outcomes[:n], probs[:n], error


def peps_fidelity(patch: PepsPatch, outcomes, routes) -> list:
    """Overlap fidelities of a batch's corrected networks against the clean target.

    ``outcomes`` holds one row of measured indices per trial, in bond order,
    and ``routes`` each trial's (site_u, edge_ops).  Both overlaps of every
    trial, <t|c> and <c|c>, come from one contraction of 2 x trials networks.
    """
    both, ket_only = patch.outcome_pairs
    T = len(routes)
    mods = [_ket_mods(patch.basis, site_u, edge_ops) for site_u, edge_ops in routes]
    ket = {site: [m.get(site) for m in mods] for site in set().union(*mods)}
    values = patch.network_value(
        pairs={key: np.concatenate([ket_only[js], both[js]]) for key, js in zip(patch.bonds(), outcomes.T)},
        ket_mods={site: per * 2 for site, per in ket.items()},
        bra_mods={site: [None] * T + per for site, per in ket.items()},
        trials=2 * T,
    )
    fids = []
    for tc, cc in zip(values[:T].tolist(), values[T:].tolist()):
        denom = patch.target_norm * cc.real
        fids.append(float(abs(tc) ** 2 / denom) if denom > 0 else 0.0)
    return fids


def _trial_front(patch: PepsPatch) -> int:
    """The widest front of one trial's sweeps, after the two guards: past 2^22
    front elements, or past 2^30 of a trial's work, SizeGuardError."""
    # a pair leg per short-side bond, one more while a line is half swept, and the
    # sampled bond's outcome leg
    front = (patch.D * patch.D) ** (min(patch.rows, patch.cols) + 2)
    if front > MAX_DENSE_ELEMENTS:
        raise SizeGuardError("patch's contraction front exceeds 2^22 elements")
    # every bond's draw and the two fidelity overlaps sweep each site through the front
    if (len(patch.bonds()) + 2) * patch.rows * patch.cols * front > MAX_TRIAL_WORK:
        raise SizeGuardError("patch's trial work exceeds 2^30 front elements swept")
    return front


def _trial_elements(patch: PepsPatch) -> int:
    """Complex elements one trial of a batch holds, after the guards of
    ``_trial_front``: the front and the next one while a site joins it, its
    measured pair matrices (one per bond in the draws, two in the overlap
    pass), its routed corrections (up to a d x d unitary per site) and its
    generator (about 1 KiB)."""
    front = _trial_front(patch)
    d = max(a.d for row in patch.grid for a in row)
    return 2 * front + 3 * len(patch.bonds()) * patch.D**4 + patch.rows * patch.cols * d * d + 64


def _run_peps_batch(patch: PepsPatch, seeds: list, tol: float) -> list:
    """The ProtocolRuns of one batch; the lowest trial that raises raises."""
    rngs = [philox_rng(seed) for seed in seeds]  # each seed is checked, also where nothing is drawn
    order = patch.bonds()
    if not order:
        return [ProtocolRun(seed, RNG_ALGORITHM, [], [], [], None, 1.0, True, True) for seed in seeds]
    outcomes, probs, error = _sample_peps_bonds(patch, rngs)
    routes = []
    for row in outcomes.tolist():
        try:
            routes.append(_route_defects(patch, dict(zip(order, row))))
        except MftnError as exc:  # the trials before it still route
            error = exc
            break
    if error is not None:
        raise error
    fids = peps_fidelity(patch, outcomes, routes)
    return [ProtocolRun(seed, RNG_ALGORITHM, row, p, sorted(site_u.items()), None, fid,
                        fid >= 1 - max(tol, VERDICT_FLOOR), True)
            for seed, row, p, (site_u, _), fid in zip(seeds, outcomes.tolist(), probs.tolist(), routes, fids)]


def run_peps_trials(patch: PepsPatch, seeds, tol: float = DEFAULT_TOL):
    """Simulate one MF preparation round per seed on a small PEPS patch.

    Returns an iterator over the ProtocolRuns, in seed order, that holds one
    batch of runs at a time.  A batch of T trials draws each bond for all T
    from one contraction and gets both fidelity overlaps of all T from one
    more; each trial draws from its own ``philox_rng(seed)`` in bond order,
    so it draws what it would alone.  A batch holds floor(2^22 / e) trials,
    e the elements a trial holds while its batch runs (``_trial_elements``),
    so that the whole batch stays within the one-trial front bound below.
    If a trial raises an ``MftnError``, its batch raises the one of
    its lowest failing seed, as running the trials in seed order would.

    A patch whose contraction front, (D^2)^(min(rows, cols) + 1) x D^2
    elements, exceeds 2^22, or whose trial work, (bonds + 2) x sites x front,
    exceeds 2^30, is refused with SizeGuardError when this is called, before
    anything is contracted or solved.
    """
    batch = MAX_DENSE_ELEMENTS // _trial_elements(patch)
    seeds = iter(seeds)

    def runs():
        while chunk := list(itertools.islice(seeds, batch)):
            yield from _run_peps_batch(patch, chunk, tol)

    return runs()


def run_peps_protocol(patch: PepsPatch, seed: int = 0, tol: float = DEFAULT_TOL) -> ProtocolRun:
    """One MF preparation round on a small PEPS patch: ``run_peps_trials`` on a
    batch of one, refused as it refuses.

    ``final_state`` is None, as for chains; ``dense_state`` with the
    outcomes' ``bond_projector``s as ``ket_bonds`` and
    ``_ket_mods(basis, site_u, edge_ops)`` of the routed corrections gives a
    small patch's corrected state (up to 2^22 amplitudes).
    """
    return next(run_peps_trials(patch, [seed], tol))

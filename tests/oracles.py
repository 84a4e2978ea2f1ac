"""Oracles and paper statements that only the tests call.

Each is an exhaustive, dense or one-at-a-time check of a statement the
package's fast paths must agree with: PEPS outcome enumeration, routing
completeness and the trial run one contraction per trial and bond,
the post-selected accounting of periodic MPO application, the SPT family's
projector, the obstruction to the "bad" all-legs symmetry on a patch, and
the symplectic completion that reduces every candidate again in full, and
the joint eigenvector found by projecting every basis vector.
"""

import itertools

import numpy as np

from mftn.clifford import _stabilized
from mftn.errors import DefectStuckError, InadmissibleMapError, SizeGuardError
from mftn.mpo import _mpo_input, _mpo_step, _validate_mpo_chain
from mftn.mps import _q_to_mps_tensor
from mftn.protocol import (
    ORIENTATIONS,
    RNG_ALGORITHM,
    EnumerationReport,
    ProtocolRun,
    _ket_mods,
    _route_defects,
    apply_chain_corrections,
    bond_projector,
    born_choice,
    check_enumeration_size,
    enumerate_branches,
    philox_rng,
    push_chain_defects,
)
from mftn.tensors import DEFAULT_TOL, VERDICT_FLOOR, fix_global_phase, state_fidelity


def projector_onto(columns: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column span."""
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.ndim == 1:
        cols = cols[:, None]
    if cols.shape[1] == 0:
        return np.zeros((cols.shape[0], cols.shape[0]), dtype=np.complex128)
    q, _ = np.linalg.qr(cols)
    return q @ q.conj().T


def spt_family_projector(basis) -> np.ndarray:
    """Projector onto span{vec(P_i^* x P_i)} in flattened tensor space."""
    cols = [
        _q_to_mps_tensor(np.kron(p.conj(), p), basis).transpose_to(("phys", "left", "right")).data.reshape(-1)
        for p in basis.elements
    ]
    return projector_onto(np.stack(cols, axis=1))


def peps_routing_complete(patch) -> bool:
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
    patch.processing_order
    return True


def sequential_peps_run(patch, seed: int, tol: float = DEFAULT_TOL) -> ProtocolRun:
    """One PEPS trial on its own: a contraction per bond for its Born draw, the
    defect routing, then a contraction per fidelity overlap.  No size guard."""
    rng = philox_rng(seed)
    order = patch.bonds()
    if not order:
        return ProtocolRun(seed, RNG_ALGORITHM, [], [], [], None, 1.0, True, True)
    both = patch.outcome_pairs[0]
    chosen, probs = {}, []
    for k, key in enumerate(order):
        pairs = {b: both[j] for b, j in chosen.items()}
        weights = patch.network_value(pairs, cuts=frozenset(order[k + 1:]), outcome=(key, both))
        chosen[key], p = born_choice(weights.real, rng)
        probs.append(p)
    site_u, edge_ops = _route_defects(patch, chosen)
    fid = single_peps_fidelity(patch, chosen, site_u, edge_ops)
    return ProtocolRun(seed, RNG_ALGORITHM, [chosen[k] for k in order], probs, sorted(site_u.items()),
                       None, fid, fid >= 1 - max(tol, VERDICT_FLOOR), True)


def single_peps_fidelity(patch, outcomes: dict, site_u, edge_ops) -> float:
    """Overlap fidelity of one corrected network against the clean target, one
    contraction per overlap."""
    both, ket_only = patch.outcome_pairs
    mods = _ket_mods(patch.basis, site_u, edge_ops)
    tc = patch.network_value(pairs={k: ket_only[j] for k, j in outcomes.items()}, ket_mods=mods)
    cc = patch.network_value(pairs={k: both[j] for k, j in outcomes.items()}, ket_mods=mods, bra_mods=mods)
    denom = patch.target_norm * cc.real
    if denom <= 0:
        return 0.0
    return float(abs(tc) ** 2 / denom)


def enumerate_peps_outcomes(patch) -> EnumerationReport:
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
            pairs = {key: both[j] for key, j in zip(order, head)}
            stacked = (order[-1], both) if order else None
            weights[head] = np.asarray(patch.network_value(pairs, outcome=stacked).real) / norm_free
        p = weights[head][last]
        outcomes = dict(zip(order, combo))
        try:
            site_u, edge_ops = _route_defects(patch, outcomes)
        except DefectStuckError:
            return p, False, None
        return p, True, single_peps_fidelity(patch, outcomes, site_u, edge_ops)

    return enumerate_branches(len(patch.basis.elements), len(order), branch)


def periodic_mpo_state(tensors, psi, bond_ops) -> np.ndarray:
    """The MPO chain applied to ``psi`` with its wrap bond traced, on axes
    (o_1, ..., o_n); ``bond_ops[b]`` is a matrix on the bond after site b, or None."""
    cur = _mpo_step(_mpo_input(tensors, psi), tensors[0].array(), 0)
    for k in range(1, len(tensors)):
        cur = _mpo_step(cur, tensors[k].array(), k, bond_ops[k - 1])
    if bond_ops[-1] is not None:
        cur = np.tensordot(cur, bond_ops[-1], axes=([-1], [0]))
    return np.trace(cur, axis1=0, axis2=cur.ndim - 1)


def periodic_mpo_accounting(tensors, input_state, tol: float = DEFAULT_TOL) -> EnumerationReport:
    """Exact post-selection accounting for periodic MPO application.

    Periodic chains cannot be corrected deterministically; this enumerates
    every outcome tuple, reports its exact Born weight (normalised by the
    unmeasured norm |psi|^2 D^n), and verifies that the correctable branches
    (merged defect proportional to the identity) reproduce the direct
    periodic MPO action.  No sampling is performed.
    """
    tensors = list(tensors)
    basis, completed = _validate_mpo_chain(tensors, tol)
    n = len(tensors)
    D = basis.dim
    if (D * D) ** n > 4096:
        raise SizeGuardError("periodic accounting exceeds the desk-scale guard")
    psi = np.asarray(input_state, dtype=np.complex128)
    norm_free = np.vdot(psi, psi).real * D**n
    target = periodic_mpo_state(tensors, psi, [None] * n)

    def branch(combo):
        state = periodic_mpo_state(tensors, psi, [bond_projector(basis, j) for j in combo])
        # push bond defects into the wrap bond, correcting the o legs
        try:
            corrections, _, ok = push_chain_defects(completed, basis, combo, "periodic")
        except DefectStuckError:
            corrections, ok = [], False
        state = apply_chain_corrections(state, corrections, None, "periodic")
        p = np.vdot(state, state).real / norm_free
        if not ok:
            return p, False, None
        return p, True, state_fidelity(state, target)

    return enumerate_branches(D * D, n, branch)


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


def _sympl_form(a: np.ndarray, b: np.ndarray, n: int, d: int) -> int:
    """Form s with XZ(a) XZ(b) = omega^s XZ(b) XZ(a)."""
    va, wa = a[:n], a[n:]
    vb, wb = b[:n], b[n:]
    return int((wa @ vb - va @ wb) % d)


def complete_symplectic_by_full_reduction(given, n: int, d: int):
    """``clifford._complete_symplectic`` reducing every candidate against all pairs
    again for each partner search: the same pairs, in the same order."""
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


def joint_eigenvector_by_projection(zs, dim: int) -> np.ndarray:
    """``clifford._joint_eigenvector`` by projection alone: |0..0> when the state
    has a component there, else all dim basis vectors at once (dim x dim),
    keeping the longest projection."""
    phi0 = _stabilized(zs, np.eye(dim, 1, dtype=np.complex128)[:, 0])
    if np.linalg.norm(phi0) < 0.5 / np.sqrt(dim):
        proj = _stabilized(zs, np.eye(dim, dtype=np.complex128))
        phi0 = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    nrm = np.linalg.norm(phi0)
    if nrm < DEFAULT_TOL:
        raise InadmissibleMapError("target Z images admit no joint +1 eigenstate")
    return fix_global_phase(phi0 / nrm)

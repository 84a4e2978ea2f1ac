"""Matrix defect sweeps and tensordot corrections: the oracles of the table sweeps.

These carry every defect as a dense D x D matrix and identify it again at
each bond with the basis's tolerance-judged projection (``try_resolve``),
as the protocol did before its sweeps became (class, phase) arithmetic on
the basis tables.  The table sweeps must agree with them.
"""

import numpy as np

from mftn.errors import DefectStuckError
from mftn.protocol import ORIENTATIONS, bond_projector


def resolve_scaled(basis, m):
    """(class, phase) with m = scale * phase * P_class for some scale > 0, or None."""
    scale = np.linalg.norm(m) / np.sqrt(basis.dim)
    if scale <= 0:
        return None
    return basis.try_resolve(m / scale)


def matrix_chain_sweep(completed, basis, outcomes, boundary):
    """``push_chain_defects`` with a running D x D defect matrix."""
    D = basis.dim
    nbonds = len(completed) if boundary == "periodic" else len(completed) - 1
    corrections = []
    carry = np.eye(D, dtype=np.complex128)
    predicted = True
    edge_fix = None
    for b in range(nbonds):
        hit = resolve_scaled(basis, carry @ bond_projector(basis, outcomes[b]))
        if hit is None:
            raise DefectStuckError("bond operator left the basis", site=b)
        cls, phase = hit
        if boundary == "periodic" and b == nbonds - 1:
            predicted = cls == basis.identity_index
            break
        site = b + 1
        if cls not in completed[site]:
            raise DefectStuckError(f"no constraint pushes {basis.labels[cls]} past site {site}", site=site)
        u, out_cls = completed[site][cls]
        corrections.append((site, u))
        carry = phase * basis.elements[out_cls]
    if boundary == "open":
        edge_fix = np.linalg.inv(carry)
    return corrections, edge_fix, predicted


def matrix_route_defects(patch, outcomes):
    """``_route_defects`` with pending D x D bond matrices.

    A push table takes the P whose transpose enters the leg: the bond
    matrix's transpose at a first end, the matrix itself at a second end.

    Like the table sweep, it drops identity-class emissions whatever their
    phase: a global phase is a scalar.
    """
    basis = patch.basis
    D = patch.D
    pend = {key: bond_projector(basis, j) for key, j in outcomes.items()}
    consumed = {key: False for key in pend}
    site_u, edge_ops = {}, {}
    ident = basis.identity_index

    def emit(site, slot, cls, phase):
        if cls == ident:
            return
        g = phase * basis.elements[cls]
        bond = patch.slot_bonds[site][slot]
        if bond is None:
            r, c = site
            edge_ops[(r, c, slot)] = edge_ops.get((r, c, slot), np.eye(D, dtype=np.complex128)) @ g
            return
        if consumed[bond]:
            raise DefectStuckError("emission into an already corrected bond", site=site)
        if patch.ends[bond][0] == (site, slot):
            pend[bond] = g @ pend[bond]
        else:
            pend[bond] = pend[bond] @ g.T

    for site in patch.processing_order:
        r, c = site
        ins, outs = ORIENTATIONS[patch.orient[r][c]]
        for in_slot in ins:
            bond = patch.slot_bonds[site][in_slot]
            if bond is None or consumed[bond]:
                continue
            consumed[bond] = True
            m = pend[bond].T if patch.ends[bond][0] == (site, in_slot) else pend[bond]
            hit = resolve_scaled(basis, m)
            if hit is None:
                raise DefectStuckError("bond operator left the basis", site=site)
            cls, phase = hit
            if cls == ident:
                continue
            u, c1, c2 = patch.push_table(r, c, in_slot)[cls]
            site_u[site] = site_u.get(site, np.eye(patch.grid[r][c].d, dtype=np.complex128)) @ u
            emit(site, outs[0], c1, phase)
            emit(site, outs[1], c2, 1.0)

    for key, flag in consumed.items():
        if flag:
            continue
        hit = resolve_scaled(basis, pend[key])
        if hit is None or hit[0] != ident:
            raise DefectStuckError("unconsumed non-identity defect", site=key)
    return site_u, edge_ops


def tensordot_corrections(state, corrections, edge_fix, boundary):
    """``apply_chain_corrections`` by tensordot and moveaxis, one leg at a time."""
    offset = 1 if boundary == "open" else 0
    for site, u in corrections:
        axis = site + offset
        state = np.moveaxis(np.tensordot(u, state, axes=([1], [axis])), 0, axis)
    if edge_fix is not None:
        state = np.tensordot(state, edge_fix, axes=([-1], [0]))
    return state

"""The (class, phase) table sweeps agree with the matrix-sweep oracles.

Hypothesis draws outcome tuples; the tensors are fixed per module, with
random coefficient vectors alpha drawn once from a seeded generator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mftn.basis import MFBasis, weyl_heisenberg_basis
from mftn.errors import DefectStuckError
from mftn.fixtures import aklt_tensor, cluster_tensor, controlled_pauli_mpo
from mftn.mps import MPSTensor, chain_state, complete_constraints, spt_solution
from mftn.peps import topo_solution
from mftn.protocol import (
    ORIENTATIONS,
    PepsPatch,
    _route_defects,
    apply_chain_corrections,
    bond_projector,
    push_chain_defects,
)
from conftest import FOUR_CORNER_3X3, random_complex, site_stacks
from sweep_oracles import matrix_chain_sweep, matrix_route_defects, tensordot_corrections

WH2 = weyl_heisenberg_basis(2)
WH3 = weyl_heisenberg_basis(3)
ATOL = 1e-12


def crippled(tensor, keep):
    """tensor with only its first ``keep`` constraints, so some defects get stuck."""
    return MPSTensor(tensor.tensor, tensor.basis, tensor.constraints[:keep])


def _chain_tensors():
    rng = np.random.default_rng(20241019)
    tensors = {"aklt": aklt_tensor(), "cluster": cluster_tensor(), "aklt-stuck": crippled(aklt_tensor(), 2)}
    for k in range(2):
        tensors[f"spt-wh2-{k}"] = spt_solution(WH2, random_complex(rng, 4))
        tensors[f"spt-wh3-{k}"] = spt_solution(WH3, random_complex(rng, 9))
    tensors["spt-wh3-stuck"] = crippled(tensors["spt-wh3-0"], 3)
    return {name: (t, complete_constraints(t)) for name, t in tensors.items()}


CHAINS = _chain_tensors()
MPOS = {name: controlled_pauli_mpo(basis) for name, basis in (("wh2", WH2), ("wh3", WH3))}


def sweep_or_stuck(sweep, *args):
    try:
        return sweep(*args)
    except DefectStuckError:
        return None


def assert_chain_sweeps_agree(completed, basis, outcomes, boundary):
    """Both sweeps raise, or both give the same corrections, edge fix and prediction."""
    got = sweep_or_stuck(push_chain_defects, completed, basis, outcomes, boundary)
    want = sweep_or_stuck(matrix_chain_sweep, completed, basis, outcomes, boundary)
    assert (got is None) == (want is None)
    if got is None:
        return None
    (corr, fix, predicted), (corr_o, fix_o, predicted_o) = got, want
    assert predicted == predicted_o
    assert [site for site, _ in corr] == [site for site, _ in corr_o]
    for (_, u), (_, u_o) in zip(corr, corr_o):
        np.testing.assert_allclose(u, u_o, rtol=0, atol=ATOL)
    assert (fix is None) == (fix_o is None)
    if fix is not None:
        np.testing.assert_allclose(fix, fix_o, rtol=0, atol=ATOL)
    return corr, fix


def assert_corrections_agree(state, corr, fix, boundary):
    got = apply_chain_corrections(state, corr, fix, boundary)
    want = tensordot_corrections(state, corr, fix, boundary)
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL * np.abs(want).max())


@st.composite
def chain_cases(draw):
    name = draw(st.sampled_from(sorted(CHAINS)))
    boundary = draw(st.sampled_from(["open", "periodic"]))
    n = draw(st.integers(1, 5))
    nbonds = n if boundary == "periodic" else n - 1
    D = CHAINS[name][0].basis.dim
    return name, boundary, n, draw(st.lists(st.integers(0, D * D - 1), min_size=nbonds, max_size=nbonds))


@settings(max_examples=150, deadline=None)
@given(case=chain_cases())
def test_chain_sweep_matches_the_matrix_sweep(case):
    name, boundary, n, outcomes = case
    tensor, completed = CHAINS[name]
    basis = tensor.basis
    agreed = assert_chain_sweeps_agree([completed] * n, basis, outcomes, boundary)
    if agreed is not None and tensor.d**n <= 729:
        stacks = site_stacks([tensor] * n)
        measured = [s @ bond_projector(basis, j) for s, j in zip(stacks, outcomes)]
        assert_corrections_agree(chain_state(measured + stacks[len(outcomes):], boundary), *agreed, boundary)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MPOS)), boundary=st.sampled_from(["open", "periodic"]),
       n=st.integers(1, 3), data=st.data())
def test_mpo_chain_sweep_matches_the_matrix_sweep(name, boundary, n, data):
    mpo = MPOS[name]
    D = mpo.basis.dim
    nbonds = n if boundary == "periodic" else n - 1
    outcomes = data.draw(st.lists(st.integers(0, D * D - 1), min_size=nbonds, max_size=nbonds))
    completed = complete_constraints(mpo.slice_tensor(0))
    agreed = assert_chain_sweeps_agree([completed] * n, mpo.basis, outcomes, boundary)
    if agreed is not None:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        edges = (D,) if boundary == "open" else ()
        state = random_complex(rng, *edges, *(mpo.d,) * n, *edges)
        assert_corrections_agree(state, *agreed, boundary)


def _patches():
    rng = np.random.default_rng(20241020)
    wh2 = [topo_solution(WH2, random_complex(rng, 4)) for _ in range(2)]
    wh3 = topo_solution(WH3, random_complex(rng, 9))
    return {
        "wh2-2x2": PepsPatch([[wh2[0], wh2[1]], [wh2[1], wh2[0]]]),
        "wh3-2x2": PepsPatch([[wh3] * 2] * 2),
        "wh2-four-corner-3x3": PepsPatch([[wh2[0]] * 3] * 3, FOUR_CORNER_3X3),
    }


PATCHES = _patches()


def assert_routes_agree(patch, outcomes):
    got = sweep_or_stuck(_route_defects, patch, outcomes)
    want = sweep_or_stuck(matrix_route_defects, patch, outcomes)
    assert (got is None) == (want is None)
    if got is None:
        return
    site_u, edge_ops = got
    edge_mats = {key: phase * patch.basis.elements[k] for key, (k, phase) in edge_ops.items()}
    for ops, ops_o in zip((site_u, edge_mats), want):
        assert sorted(ops) == sorted(ops_o)
        for key in ops:
            np.testing.assert_allclose(ops[key], ops_o[key], rtol=0, atol=ATOL)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(PATCHES)), data=st.data())
def test_peps_routing_matches_the_matrix_sweep(name, data):
    patch = PATCHES[name]
    n = len(patch.basis.elements)
    outcomes = {key: data.draw(st.integers(0, n - 1)) for key in patch.bonds()}
    assert_routes_agree(patch, outcomes)


@settings(max_examples=30, deadline=None)
@given(orient=st.lists(st.sampled_from(sorted(ORIENTATIONS)), min_size=3, max_size=3),
       data=st.data())
def test_peps_routing_matches_on_any_orientation(orient, data):
    """1 x 3 patches of every orientation, including ones whose defects get stuck."""
    grid = PATCHES["wh2-2x2"].grid[0]
    patch = PepsPatch([[grid[0], grid[1], grid[0]]], [orient])
    outcomes = {key: data.draw(st.integers(0, 3)) for key in patch.bonds()}
    assert_routes_agree(patch, outcomes)


@pytest.mark.parametrize("basis", [WH2, WH3], ids=["WH:2", "WH:3"])
def test_tables_match_the_elementwise_images(basis):
    for table, image in ((basis.conjugate_table(), np.conj), (basis.transpose_table(), np.transpose)):
        assert sorted(table) == list(range(len(basis.elements)))
        for j, (k, phase) in table.items():
            np.testing.assert_allclose(image(basis.elements[j]), phase * basis.elements[k], atol=ATOL)


def test_an_image_outside_the_basis_gets_no_entry_and_sticks_the_sweep():
    # WH:2 conjugated by a non-real diagonal unitary: still a group basis, but
    # the conjugates of its X-type elements leave it
    s = np.diag([1, np.exp(1j * np.pi / 8)])
    rotated = MFBasis(2, [s @ p @ s.conj().T for p in WH2.elements], labels=WH2.labels)
    table = rotated.conjugate_table()
    assert sorted(table) == [rotated.index("I"), rotated.index("Z")]
    for sweep in (push_chain_defects, matrix_chain_sweep):
        with pytest.raises(DefectStuckError, match="left the basis"):
            sweep([{}, {}], rotated, [rotated.index("X")], "open")

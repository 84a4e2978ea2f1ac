"""Each PEPS push is solved once: the pushes a tensor carries against the search.

``topo_solution`` searches the left-leg (A-type) pushes and derives the
down-leg (B-type) ones from Q's left/down swap symmetry; ``PepsPatch`` reads
its up/right push tables from the pushes ``complete_with_isometry`` carries
over.  The search they replace, ``solve_push_table``, is the oracle: the same
images, and each u within 1e-12.  Slots and tensors the carried pushes do not
cover must still reach the search.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mftn import cli, peps, protocol
from mftn.basis import MFBasis, weyl_heisenberg_basis
from mftn.errors import DefectStuckError
from mftn.peps import PEPSTensor, complete_with_isometry, topo_solution
from mftn.protocol import (ORIENTATIONS, PepsPatch, _route_defects, carried_push_table, run_peps_protocol,
                           solve_push_table)
from conftest import FOUR_CORNER_3X3, random_complex, x_power_alpha
from oracles import peps_routing_complete
from reference_tensors import interpolated_alpha

WH2 = weyl_heisenberg_basis(2)
WH3 = weyl_heisenberg_basis(3)
ATOL = 1e-12
SEEDS = st.integers(0, 2**32 - 1)
UP_RIGHT = (1, 2)


def random_alphas(basis):
    return SEEDS.map(lambda seed: random_complex(np.random.default_rng(seed), len(basis.elements)))


def spectral_alpha(basis, spectrum):
    """alpha of the Q with eigenvalue spectrum[s, t] where R_{X^a Z^b} is omega^(as + bt).

    R_k = P_k^* x P_k x P_k x P_k^* is a representation of Z_D x Z_D (the
    phases of P_i P_j cancel across the four factors), so Q = sum_k alpha_k R_k
    is the character sum of the drawn spectrum.
    """
    D = basis.dim
    x, z = basis.element("X"), basis.element("Z")
    s, t = np.meshgrid(range(D), range(D), indexing="ij")
    alpha = np.zeros(D * D, dtype=complex)
    for a in range(D):
        for b in range(D):
            k, _ = basis.resolve(np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b))
            alpha[k] = np.sum(spectrum * np.exp(-2j * np.pi * (a * s + b * t) / D)) / D**2
    return alpha


@st.composite
def psd_alphas(draw):
    """(basis, alpha) of a positive semidefinite Q, rank-deficient where a level is 0.

    Nonzero levels stay within a factor 5 of each other: u is amplified
    round-off of order eps x cond(Q) on both paths, so a Q of condition 88
    already parts the carried and the searched u by 1.3e-12.
    """
    basis = draw(st.sampled_from([WH2, WH3]))
    levels = st.lists(st.one_of(st.just(0.0), st.floats(0.2, 1.0)), min_size=basis.dim**2,
                      max_size=basis.dim**2)
    spectrum = np.reshape(draw(levels.filter(any)), (basis.dim, basis.dim))
    return basis, spectral_alpha(basis, spectrum)


def assert_tables_equal(got, want):
    assert sorted(got) == sorted(want)
    for k, (u, c1, c2) in want.items():
        assert got[k][1:] == (c1, c2)
        assert np.abs(got[k][0] - u).max() <= ATOL


# -- B-type pushes from the left/down swap -----------------------------------


@settings(max_examples=10, deadline=None)
@given(alpha=st.one_of(random_alphas(WH2), random_alphas(WH3)))
# a push that ignores the 1e-8 part fits within 1e-8 but fails the 1e-9 symmetry check
@example(alpha=np.array([0, 1e-8j, 2j, 0]))
# LAPACK's gesdd does not converge on the first stacked 81 x 81 product of this search
# (one BLAS thread); the search then factors the stack's conjugate transpose
@example(alpha=random_complex(np.random.default_rng(67108863), 9))
def test_derived_b_pushes_equal_searched(alpha):
    q = topo_solution(WH2 if len(alpha) == 4 else WH3, alpha)
    searched = solve_push_table(q, 3, UP_RIGHT)
    assert [c.p_in for c in q.constraints_b] == sorted(searched)
    assert_tables_equal({c.p_in: (c.u_phys, c.out_up, c.out_right) for c in q.constraints_b}, searched)


# -- push tables from carried pushes -----------------------------------------


@settings(max_examples=6, deadline=None)
@given(basis_alpha=psd_alphas())
@example(basis_alpha=(WH2, x_power_alpha(WH2)))
@example(basis_alpha=(WH3, x_power_alpha(WH3)))
@example(basis_alpha=(WH2, interpolated_alpha(WH2, 0.3)))  # rank 8 of 16
@example(basis_alpha=(WH2, interpolated_alpha(WH2, 0.5)))
def test_carried_tables_equal_searched(basis_alpha):
    q = topo_solution(*basis_alpha)
    assert np.linalg.eigvalsh(q.as_matrix()).min() >= -ATOL
    a = complete_with_isometry(q)
    for in_slot in (0, 3):
        carried = carried_push_table(a, in_slot, UP_RIGHT)
        assert carried is not None
        assert_tables_equal(carried, solve_push_table(a, in_slot, UP_RIGHT))


# -- what the carried pushes do not cover reaches the search ------------------


@pytest.fixture()
def searches(monkeypatch):
    """The (in_slot, out_slots) of every solve_push_table call."""
    calls = []

    def counting(a, in_slot, out_slots, tol):
        calls.append((in_slot, tuple(out_slots)))
        return solve_push_table(a, in_slot, out_slots, tol)

    monkeypatch.setattr(protocol, "solve_push_table", counting)
    return calls


def test_four_corner_patch_searches_only_the_other_orientations(searches):
    a = complete_with_isometry(topo_solution(WH2, x_power_alpha(WH2)))
    patch = PepsPatch([[a] * 3 for _ in range(3)], FOUR_CORNER_3X3)
    assert peps_routing_complete(patch)
    searched = {(in_slot, out_slots) for o in ("ul", "dl", "dr")
                for in_slots, out_slots in [ORIENTATIONS[o]] for in_slot in in_slots}
    assert sorted(searches) == sorted(searched)
    for (r, c), o in np.ndenumerate(np.array(FOUR_CORNER_3X3)):
        for in_slot in ORIENTATIONS[o][0]:
            assert_tables_equal(patch.push_table(r, c, in_slot),
                                solve_push_table(a, in_slot, ORIENTATIONS[o][1]))
    assert len(searches) == len(searched)


def test_a_tensor_without_constraints_is_searched(searches):
    a = complete_with_isometry(topo_solution(WH2, x_power_alpha(WH2)))
    bare = PEPSTensor(a.tensor, a.basis)
    patch = PepsPatch([[bare]], "ur")
    for in_slot in (0, 3):
        assert_tables_equal(patch.push_table(0, 0, in_slot), solve_push_table(a, in_slot, UP_RIGHT))
    assert searches == [(0, UP_RIGHT), (3, UP_RIGHT)]


def test_pushes_carried_from_another_tensor_are_searched(searches):
    a = complete_with_isometry(topo_solution(WH2, x_power_alpha(WH2)))
    other = complete_with_isometry(topo_solution(WH2, interpolated_alpha(WH2, 0.3)))
    assert a.d == other.d
    wrong = PEPSTensor(a.tensor, a.basis, other.constraints_a, other.constraints_b)
    patch = PepsPatch([[wrong]], "ur")
    for in_slot in (0, 3):
        assert_tables_equal(patch.push_table(0, 0, in_slot), solve_push_table(a, in_slot, UP_RIGHT))
    assert searches == [(0, UP_RIGHT), (3, UP_RIGHT)]


def test_a_basis_whose_transposes_leave_it_uses_its_carried_pushes(searches):
    # WH:2 conjugated by a non-real diagonal unitary: the transposes of its X-type elements
    # leave it, but the carried pushes are keyed as the tables are, so none is needed
    s = np.diag([1, np.exp(1j * np.pi / 8)])
    rotated = MFBasis(2, [s @ p @ s.conj().T for p in WH2.elements], labels=WH2.labels)
    assert sorted(rotated.transpose_table()) == [rotated.index("I"), rotated.index("Z")]
    a = complete_with_isometry(topo_solution(rotated, x_power_alpha(rotated)))
    patch = PepsPatch([[a]], "ur")
    for in_slot in (0, 3):
        carried = carried_push_table(a, in_slot, UP_RIGHT)
        assert_tables_equal(carried, solve_push_table(a, in_slot, UP_RIGHT))
        assert_tables_equal(patch.push_table(0, 0, in_slot), carried)
    assert searches == []


def test_an_all_ur_patch_routes_without_the_transpose_table(monkeypatch, searches):
    """Every defect of an all-ur patch arrives at a bond's second end and
    leaves by a first end, so routing reads no transpose."""
    a = complete_with_isometry(topo_solution(WH2, x_power_alpha(WH2)))
    clean = PepsPatch([[a] * 2] * 2)
    tuples = [dict(zip(clean.bonds(), combo)) for combo in np.ndindex((4,) * len(clean.bonds()))]
    want = [_route_defects(clean, outcomes) for outcomes in tuples]
    monkeypatch.setattr(MFBasis, "transpose_table", lambda self: {})
    patch = PepsPatch([[a] * 2] * 2)
    for outcomes, (site_u, edge_ops) in zip(tuples, want):
        got_u, got_edges = _route_defects(patch, outcomes)
        assert got_edges == edge_ops
        assert sorted(got_u) == sorted(site_u)
        for site, u in site_u.items():
            assert np.array_equal(got_u[site], u)
    assert run_peps_protocol(patch, seed=0).success
    assert searches == []


def test_a_random_tensor_is_not_routed_with_the_pushes_it_carries(wh2, rng):
    q = topo_solution(wh2, x_power_alpha(wh2))
    bad = PEPSTensor.from_matrix(random_complex(rng, q.d, 16), wh2, q.constraints_a, q.constraints_b)
    assert carried_push_table(bad, 0, UP_RIGHT) is not None
    with pytest.raises(DefectStuckError):
        run_peps_protocol(PepsPatch([[bad, bad], [bad, bad]], "ur"), seed=0)


def test_a_z3_item_searches_its_pushes_once(capsys, monkeypatch, searches):
    """One A-type search in topo_solution; no B-type search and no push-table search."""
    pushes = []
    real = peps.solve_pushes

    def counting(*args):
        pushes.append(args[3])  # the in-leg
        return real(*args)

    monkeypatch.setattr(peps, "solve_pushes", counting)
    monkeypatch.setattr(protocol, "solve_pushes", counting)
    spec = {"basis": "WH:3", "alpha": [[1, 0] if k in (0, 3, 6) else [0, 0] for k in range(9)]}
    assert cli.dispatch(["simulate", "--peps", json.dumps(spec), "--rows", "2", "--cols", "2",
                         "--trials", "2", "--seed", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert float(rep["outputs"]["worst_fidelity"]) == pytest.approx(1.0, abs=1e-9)
    assert pushes == [0]
    assert searches == []

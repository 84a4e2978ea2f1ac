"""The stacked push search agrees with the one-at-a-time and full-space oracles.

Every search must pick the same image tuple for every element and in-leg.
The dense view of each stacked fit must match the one-at-a-time range
search's U within 1e-14, and the full-space search's U b; where b has full
row rank, U is unique and must match the full-space U too.  When some
element fits nothing, the search raises for the lowest such element, as the
oracles find it.  Random coefficient vectors alpha come from
Hypothesis-drawn seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mftn.basis import weyl_heisenberg_basis
from mftn.fixtures import controlled_pauli_mpo
from mftn.mps import range_unitary, solve_pushes, spt_solution
from mftn.peps import complete_with_isometry, topo_solution
from mftn.protocol import ORIENTATIONS
from mftn.tensors import DEFAULT_TOL, numerical_rank
from conftest import random_complex, x_power_alpha
from push_oracles import full_space_pushes, range_pushes
from reference_tensors import interpolated_alpha

WH2 = weyl_heisenberg_basis(2)
WH3 = weyl_heisenberg_basis(3)
ATOL = 1e-12
VIEW_ATOL = 1e-14
SEEDS = st.integers(0, 2**32 - 1)


class NoPush(Exception):
    def __init__(self, k):
        super().__init__(k)
        self.k = k


def assert_searches_agree(b, basis, dims, in_leg, out_legs):
    want = full_space_pushes(b, basis, dims, in_leg, [p.T for p in basis.elements], out_legs, DEFAULT_TOL)
    one_at_a_time = range_pushes(b, basis, dims, in_leg, out_legs, DEFAULT_TOL)
    assert [f is None for f in one_at_a_time] == [f is None for f in want]
    if None in want:
        with pytest.raises(NoPush) as exc:
            solve_pushes(b, basis, dims, in_leg, out_legs, DEFAULT_TOL, NoPush)
        assert exc.value.k == want.index(None)
        return
    l, fits = solve_pushes(b, basis, dims, in_leg, out_legs, DEFAULT_TOL, NoPush)
    scale = np.linalg.norm(b)
    full_row_rank = np.linalg.matrix_rank(b) == b.shape[0]
    for (images, u_r), oracle, (range_images, range_u) in zip(fits, want, one_at_a_time, strict=True):
        u = range_unitary(l, u_r)
        assert images == oracle[0] == range_images
        assert np.abs(u - range_u).max() <= VIEW_ATOL
        assert np.linalg.norm(u @ b - oracle[1] @ b) <= ATOL * scale
        if full_row_rank:
            assert np.abs(u - oracle[1]).max() <= ATOL


def assert_peps_searches_agree(q, completed=True):
    """Q's own pushes on the left and down legs, then every push table of
    its compression V Q, which has full row rank.  V needs Q's Hermitian
    part to be positive on range(Q), as it is for a PSD Q."""
    for in_leg in (0, 3):
        assert_searches_agree(q.as_matrix(), q.basis, (q.D,) * 4, in_leg, (1, 2))
    if completed:
        a = complete_with_isometry(q)
        for in_slots, out_slots in ORIENTATIONS.values():
            for in_slot in in_slots:
                assert_searches_agree(a.as_matrix(), a.basis, (a.D,) * 4, in_slot, out_slots)


@settings(max_examples=10, deadline=None)
@given(SEEDS)
def test_random_wh2_topo_solutions(seed):
    """A random complex alpha gives a normal Q of full rank 16, which need not be PSD."""
    q = topo_solution(WH2, random_complex(np.random.default_rng(seed), 4))
    assert_peps_searches_agree(q, completed=False)


@settings(max_examples=3, deadline=None)
@given(SEEDS)
def test_random_wh3_topo_solutions(seed):
    q = topo_solution(WH3, random_complex(np.random.default_rng(seed), 9))
    assert_peps_searches_agree(q, completed=False)


@settings(max_examples=8, deadline=None)
@given(st.floats(0.0, 0.9))
def test_interpolated_wh2_topo_solutions(a):
    assert_peps_searches_agree(topo_solution(WH2, interpolated_alpha(WH2, a)))


@pytest.mark.parametrize("a", [0.3, 0.5])
def test_a_rank_deficient_q(a):
    q = topo_solution(WH2, interpolated_alpha(WH2, a))
    assert numerical_rank(q.as_matrix()) == 8
    assert_peps_searches_agree(q)


def test_wh3_x_power_topo_solution():
    assert_peps_searches_agree(topo_solution(WH3, x_power_alpha(WH3)))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([WH2, WH3]), SEEDS)
def test_random_spt_solutions(basis, seed):
    a = spt_solution(basis, random_complex(np.random.default_rng(seed), len(basis.elements)))
    assert_searches_agree(a.as_matrix(), basis, (basis.dim,) * 2, 0, (1,))


@pytest.mark.parametrize("basis", [WH2, WH3], ids=["wh2", "wh3"])
def test_controlled_pauli_mpo(basis):
    """The search on the o x (a, l, r) flattening that builds the fixture, whose legs differ in size."""
    D = basis.dim
    b = controlled_pauli_mpo(basis).array().reshape(D * D, -1)
    assert_searches_agree(b, basis, (D * D, D, D), 1, (2,))


@pytest.mark.parametrize("seed", range(3))
def test_elements_that_fit_nothing_raise_for_the_lowest(seed):
    """Random diagonal site matrices commute with the Z powers (elements 0..2 of WH:3) and with
    nothing else, so elements 3..8 fit no image and the search raises for element 3."""
    rng = np.random.default_rng(seed)
    b = np.stack([np.diag(random_complex(rng, 3)).reshape(-1) for _ in range(4)])
    want = full_space_pushes(b, WH3, (3, 3), 0, [p.T for p in WH3.elements], (1,), DEFAULT_TOL)
    assert [k for k, f in enumerate(want) if f is None] == list(range(3, 9))
    assert_searches_agree(b, WH3, (3, 3), 0, (1,))

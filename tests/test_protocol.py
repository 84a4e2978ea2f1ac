"""Monte-Carlo MF protocol runs, exact enumeration, and PEPS patch routing."""

import graphlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mftn import protocol
from mftn.basis import MFBasis
from mftn.errors import BoundaryError, DefectStuckError, NumericalRangeError, SizeGuardError
from mftn.fixtures import aklt_tensor, cluster_tensor, copy_tensor
from mftn.mps import MPSTensor, chain_state, complete_constraints, solve_symmetry_family, spt_solution
from mftn.peps import PEPSTensor, complete_with_isometry, topo_solution
from mftn.protocol import (
    ORIENTATIONS,
    PepsPatch,
    _ket_mods,
    _route_defects,
    _sample_peps_bonds,
    apply_chain_corrections,
    bond_projector,
    born_choice,
    enumerate_outcomes,
    enumerate_peps_outcomes,
    peps_routing_complete,
    philox_rng,
    push_chain_defects,
    run_mps_protocol,
    run_peps_protocol,
)
from mftn.tensors import DenseTensor, random_unitary, state_fidelity
from conftest import FOUR_CORNER_3X3, random_complex, site_stacks


def toric_patch(wh2, rows, cols, orientations="ur"):
    alpha = np.zeros(4)
    alpha[wh2.index("I")] = 1.0
    alpha[wh2.index("X")] = 1.0
    a = complete_with_isometry(topo_solution(wh2, alpha))
    grid = [[a for _ in range(cols)] for _ in range(rows)]
    return PepsPatch(grid, orientations)


def z3_toric_patch(wh3):
    alpha = np.zeros(9)
    for k in range(3):
        alpha[wh3.resolve(np.linalg.matrix_power(wh3.element("X"), k))[0]] = 1.0
    a = complete_with_isometry(topo_solution(wh3, alpha))
    return PepsPatch([[a, a], [a, a]], "ur")


class TestMpsProtocol:
    def test_aklt_open_always_succeeds(self):
        chain = [aklt_tensor()] * 5
        for seed in range(20):
            run = run_mps_protocol(chain, "open", seed=seed)
            assert run.success
            assert run.fidelity >= 1 - 1e-9
            assert run.rng_algorithm == "philox4x64"

    def test_probabilities_are_uniform_but_computed(self):
        chain = [aklt_tensor()] * 4
        run = run_mps_protocol(chain, "open", seed=3)
        assert run.probabilities == pytest.approx([0.25] * 3, abs=1e-10)

    def test_single_site_trivial(self):
        run = run_mps_protocol([aklt_tensor()], "open", seed=1)
        assert run.success and run.fidelity == 1.0
        assert run.outcomes == []

    def test_periodic_success_rate(self):
        chain = [aklt_tensor()] * 3
        hits = 0
        trials = 400
        for seed in range(trials):
            run = run_mps_protocol(chain, "periodic", seed=seed)
            assert run.success == run.predicted_success
            hits += run.success
        p_hat = hits / trials
        p_exact = 7 / 27  # cross-checked by exact enumeration below
        sigma = np.sqrt(p_exact * (1 - p_exact) / trials)
        assert abs(p_hat - p_exact) < 3 * sigma

    def test_unknown_boundary(self):
        with pytest.raises(BoundaryError):
            run_mps_protocol([aklt_tensor()] * 2, "twisted", seed=0)

    def test_copy_chain_two_sites(self, wh2):
        run = run_mps_protocol([copy_tensor()] * 2, "open", seed=5)
        assert run.success and run.fidelity >= 1 - 1e-9
        report = enumerate_outcomes([copy_tensor()] * 2, "open")
        assert report.success_probability == pytest.approx(1.0, abs=1e-9)

    def test_incomplete_constraints_report_offender(self, wh2):
        base = aklt_tensor()
        crippled = MPSTensor(base.tensor, wh2, [base.constraints[0], base.constraints[1]])
        report = enumerate_outcomes([crippled] * 2, "open")
        # the {I, X} subgroup is pushable, Z/Y defects are stuck
        assert 0.0 < report.success_probability < 1.0
        assert report.success_probability == pytest.approx(0.5, abs=1e-9)


class TestExtremeScales:
    @pytest.mark.parametrize("a", [1e-100, 1e100])
    def test_tiny_and_huge_tensors_run_like_unit_ones(self, wh2, a):
        unit = spt_solution(wh2, [1.0, 0.5, 0, 0])
        scaled = spt_solution(wh2, [a, a / 2, 0, 0])
        for seed in range(10):
            run = run_mps_protocol([scaled] * 3, "open", seed)
            assert run.success and run.fidelity >= 1 - 1e-9
            assert run.outcomes == run_mps_protocol([unit] * 3, "open", seed).outcomes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_born_choice_refuses_non_finite_weights(self, bad):
        with pytest.raises(NumericalRangeError):
            born_choice([bad, 1.0], philox_rng(0))

    def test_born_choice_refuses_negative_weights_beyond_round_off(self):
        # a weight below -BORN_FLOOR x sum |w| was once clipped to zero without a word
        with pytest.raises(NumericalRangeError, match="negative"):
            born_choice([-2e-9, 1.0], philox_rng(0))
        assert born_choice([-1e-16, 0.25, 0.75], philox_rng(0))[1] in (0.25, 0.75)


def random_aklt_family_member(basis, rng):
    """A random complex member of the family that obeys the AKLT constraints."""
    family = solve_symmetry_family(basis, aklt_tensor().constraints, d=3)
    coeffs = random_complex(rng, len(family))
    data = sum(c * t.tensor.data for c, t in zip(coeffs, family))
    return MPSTensor(DenseTensor(data, family[0].tensor.legs), basis, family[0].constraints)


def dense_corrected_fidelity(chain, boundary, outcomes, target):
    """The corrected chain's fidelity from dense d^n states (the oracle)."""
    basis = chain[0].basis
    completed = [complete_constraints(x) for x in chain]
    corrections, edge_fix, _ = push_chain_defects(completed, basis, outcomes, boundary)
    stacks = site_stacks(chain)
    measured = [s @ bond_projector(basis, j) for s, j in zip(stacks, outcomes)]
    projected = chain_state(measured + stacks[len(outcomes):], boundary)
    return state_fidelity(apply_chain_corrections(projected, corrections, edge_fix, boundary), target)


class TestChainMatchesDenseOracle:
    """Transfer-matrix runs agree with dense d^n states and exact enumeration."""

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("name", ["aklt", "cluster", "random"])
    def test_fidelity_and_conditionals(self, wh2, rng, boundary, name):
        fixtures = {"aklt": aklt_tensor, "cluster": cluster_tensor}
        tensor = random_aklt_family_member(wh2, rng) if name == "random" else fixtures[name]()
        for n in range(1, 11):
            chain = [tensor] * n
            target = chain_state(site_stacks(chain), boundary)
            weights = {}
            if n <= 5:
                report = enumerate_outcomes(chain, boundary)
                weights = dict(zip(report.outcomes, report.probabilities))
            for seed in range(20):
                run = run_mps_protocol(chain, boundary, seed=seed)
                assert run.final_state is None
                oracle = dense_corrected_fidelity(chain, boundary, run.outcomes, target)
                assert abs(run.fidelity - oracle) < 1e-12, (n, seed)
                if weights:
                    assert abs(np.prod(run.probabilities) - weights[tuple(run.outcomes)]) < 1e-12

    def test_two_hundred_sites_build_no_dense_state(self):
        chain = [aklt_tensor()] * 200
        run_mps_protocol(chain, "periodic", seed=0)  # warm the basis caches
        tracemalloc.start()
        try:
            run = run_mps_protocol(chain, "open", seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.success
        assert peak < 10 * 2**20

    def test_twenty_thousand_sites_keep_the_fidelity(self):
        # a running sum of the per-site log scales gave 1 + 1.6e-9 here
        run = run_mps_protocol([aklt_tensor()] * 20000, "open", seed=1)
        assert abs(1 - run.fidelity) < 1e-10


class TestEnumeration:
    def test_aklt_open_probability_one(self):
        report = enumerate_outcomes([aklt_tensor()] * 3, "open")
        assert report.success_probability == pytest.approx(1.0, abs=1e-9)
        assert sum(report.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert report.probabilities == pytest.approx([1 / 16] * 16, abs=1e-10)
        assert all(f >= 1 - 1e-9 for f in report.fidelities)

    def test_aklt_periodic_quarter(self):
        report = enumerate_outcomes([aklt_tensor()] * 3, "periodic")
        # exactly 4/16 of merged products are proportional to the identity
        assert sum(report.correctable) == 16  # of 64 outcome tuples
        assert report.correctable_fraction == pytest.approx(0.25, abs=1e-12)
        # the Born weights of the branches differ: the exact success
        # probability is tr(E^3)/sum_P tr(E^3 P x P*) = 7/27, not 1/4
        assert sum(report.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert report.success_probability == pytest.approx(7 / 27, abs=1e-9)
        for ok, fid in zip(report.correctable, report.fidelities):
            if ok:
                assert fid >= 1 - 1e-9

    def test_random_family_members_always_correctable(self, wh2, rng):
        # open-boundary success probability is exactly 1 for any
        # constraint-complete MF MPS, tested over random Q-form members
        for _ in range(5):
            alpha = random_complex(rng, 4)
            q = spt_solution(wh2, alpha)
            report = enumerate_outcomes([q, q], "open")
            assert report.success_probability == pytest.approx(1.0, abs=1e-9)
            assert all(f >= 1 - 1e-8 for f in report.fidelities)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            enumerate_outcomes([aklt_tensor()] * 10, "open")

    def test_per_call_work_is_done_once_and_nothing_is_resolved(self, monkeypatch):
        # site matrices once per distinct tensor, not once per tuple; the sweep
        # composes (class, phase) pairs and never projects a matrix onto the basis
        calls = []
        original = MPSTensor.site_matrices

        def counting(self):
            calls.append(id(self))
            return original(self)

        def refuse(*args, **kwargs):
            raise AssertionError("try_resolve called by a chain enumeration")

        monkeypatch.setattr(MPSTensor, "site_matrices", counting)
        monkeypatch.setattr(MFBasis, "try_resolve", refuse)
        a, b = aklt_tensor(), aklt_tensor()
        for boundary in ("open", "periodic"):
            calls.clear()
            report = enumerate_outcomes([a, b, a, b], boundary)
            assert len(report.outcomes) == 4 ** (4 if boundary == "periodic" else 3)
            assert sorted(calls) == sorted([id(a), id(b)])

    def test_size_guard_comes_before_the_dense_target(self, monkeypatch):
        # a 40-site chain's dense state would need 3^40 amplitudes
        def refuse(*args):
            raise AssertionError("dense chain state built before the size guard")

        monkeypatch.setattr(protocol, "chain_state", refuse)
        for boundary in ("open", "periodic"):
            with pytest.raises(SizeGuardError):
                enumerate_outcomes([aklt_tensor()] * 40, boundary)


class TestPepsProtocol:
    def test_single_site_trivial(self, wh2):
        patch = toric_patch(wh2, 1, 1)
        run = run_peps_protocol(patch, seed=0)
        assert run.success and run.fidelity == 1.0

    def test_two_by_two_toric_deterministic(self, wh2):
        patch = toric_patch(wh2, 2, 2)
        for seed in range(25):
            run = run_peps_protocol(patch, seed=seed)
            assert run.success
            assert run.fidelity >= 1 - 1e-9

    def test_two_by_two_dense_state_matches_target(self, wh2):
        patch = toric_patch(wh2, 2, 2)
        run = run_peps_protocol(patch, seed=11)
        assert run.final_state is None
        # the dense oracle: the measured network with the routed corrections applied
        outcomes = dict(zip(patch.bonds(), run.outcomes))
        site_u, edge_ops = _route_defects(patch, outcomes)
        mats = {k: bond_projector(wh2, j) for k, j in outcomes.items()}
        corrected = patch.dense_state(ket_mods=_ket_mods(site_u, edge_ops), ket_bonds=mats)
        assert state_fidelity(corrected.data, patch.dense_state().data) >= 1 - 1e-9

    def test_two_by_two_enumeration_all_correctable(self, wh2):
        patch = toric_patch(wh2, 2, 2)
        report = enumerate_peps_outcomes(patch)
        assert all(report.correctable)
        assert report.success_probability == pytest.approx(1.0, abs=1e-9)
        assert max(abs(p - 1 / 256) for p in report.probabilities) <= 1e-15
        assert all(f is None or f >= 1 - 1e-9 for f in report.fidelities)

    def test_enumeration_size_guard_comes_before_any_contraction(self, wh2, monkeypatch):
        # 12 bonds of 4 outcomes each: 4^12 tuples
        patch = toric_patch(wh2, 3, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("network contracted before the size guard")

        monkeypatch.setattr(PepsPatch, "network_value", refuse)
        with pytest.raises(SizeGuardError):
            enumerate_peps_outcomes(patch)

    def test_three_by_three_four_corner(self, wh2):
        patch = toric_patch(wh2, 3, 3, FOUR_CORNER_3X3)
        assert peps_routing_complete(patch)
        for seed in range(3):
            run = run_peps_protocol(patch, seed=seed)
            assert run.success
            assert run.fidelity >= 1 - 1e-9

    @pytest.mark.parametrize("rows, cols, orientation", [(2, 1, "dr"), (2, 2, "dr"), (2, 2, "dl"), (3, 3, "dr")])
    def test_downward_drain(self, wh2, rows, cols, orientation):
        # a vertical bond's up and down ends were once swapped when the sites were
        # ordered, so a downward defect reached a bond that was already corrected
        patch = toric_patch(wh2, rows, cols, orientation)
        for seed in range(8):
            run = run_peps_protocol(patch, seed=seed)
            assert run.success
            assert run.fidelity >= 1 - 1e-9

    def test_three_by_six_runs_past_the_old_label_limit(self, wh2):
        # 27 bonds once took 54 einsum labels in one call, past einsum's 52
        patch = toric_patch(wh2, 3, 6)
        assert len(patch.bonds()) == 27
        run = run_peps_protocol(patch, seed=4)
        assert run.success and run.fidelity >= 1 - 1e-9

    def test_front_size_guard_comes_before_any_contraction(self, wh2, monkeypatch):
        # a 10 x 10 WH:2 front holds (4^10) x 4 x 4 = 2^24 elements
        patch = toric_patch(wh2, 10, 10)

        def refuse(*args, **kwargs):
            raise AssertionError("network contracted or push table solved before the size guard")

        monkeypatch.setattr(PepsPatch, "network_value", refuse)
        monkeypatch.setattr(PepsPatch, "push_table", refuse)
        with pytest.raises(SizeGuardError, match="front"):
            run_peps_protocol(patch)

    def test_work_guard_comes_before_any_contraction(self, wh2, monkeypatch):
        # a 9 x 9 WH:2 front is exactly 2^22 elements and passes the front guard, but
        # (144 bonds + 2) x 81 sites x 2^22 is about 5e10: hours of einsum per trial
        patch = toric_patch(wh2, 9, 9)

        def refuse(*args, **kwargs):
            raise AssertionError("network contracted or push table solved before the work guard")

        monkeypatch.setattr(PepsPatch, "network_value", refuse)
        monkeypatch.setattr(PepsPatch, "push_table", refuse)
        with pytest.raises(SizeGuardError, match="work"):
            run_peps_protocol(patch)

    def test_single_site_enumeration(self, wh2):
        report = enumerate_peps_outcomes(toric_patch(wh2, 1, 1))
        assert report.outcomes == [()]
        assert report.probabilities == [1.0]
        assert report.correctable == [True]
        assert report.fidelities == pytest.approx([1.0], abs=1e-12)

    def test_dense_state_size_guard_comes_before_any_einsum(self, wh2, monkeypatch):
        # 8^9 physical amplitudes times 2^12 for the boundary legs
        patch = toric_patch(wh2, 3, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("einsum called before the size guard")

        monkeypatch.setattr(np, "einsum", refuse)
        with pytest.raises(SizeGuardError):
            patch.dense_state()

    def test_uniform_bond_probabilities(self, wh2):
        patch = toric_patch(wh2, 2, 2)
        run = run_peps_protocol(patch, seed=2)
        assert run.probabilities == pytest.approx([0.25] * 4, abs=1e-9)

    def test_a_bond_both_ends_drain_into_is_refused(self, wh2):
        # neither site takes bond ("h", 0, 0) in, so its defect is never consumed
        patch = toric_patch(wh2, 1, 2, [["ur", "ul"]])
        with pytest.raises(DefectStuckError, match=r"\('h', 0, 0\)") as refused:
            peps_routing_complete(patch)
        assert refused.value.site == ("h", 0, 0)
        assert enumerate_peps_outcomes(patch).correctable_fraction == 0.25

    @pytest.mark.parametrize("cols", [2, 3])
    def test_routing_complete_exactly_when_every_tuple_is_correctable(self, wh2, cols):
        site = toric_patch(wh2, 1, 1).grid[0][0]
        for row in itertools.product(sorted(ORIENTATIONS), repeat=cols):
            patch = PepsPatch([[site] * cols], [list(row)])
            try:
                accepted = peps_routing_complete(patch)
            except DefectStuckError:
                accepted = False
            assert accepted == (enumerate_peps_outcomes(patch).correctable_fraction == 1), row

    def test_routing_completeness_q_form(self, wh2):
        alpha = np.ones(4)
        q = topo_solution(wh2, alpha)
        patch = PepsPatch([[q, q], [q, q]], "ur")
        assert peps_routing_complete(patch)


def emission_graph(patch):
    """Site -> the sites its defects feed, from the bond keys and ORIENTATIONS alone.

    ("h", r, c) joins the right leg of (r, c) to the left leg of (r, c+1);
    ("v", r, c) joins the down leg of (r, c) to the up leg of (r+1, c).
    """
    graph = {(r, c): set() for r in range(patch.rows) for c in range(patch.cols)}
    for kind, r, c in patch.bonds():
        if kind == "h":
            a, b = ((r, c), 2), ((r, c + 1), 0)
        else:
            a, b = ((r, c), 3), ((r + 1, c), 1)
        for (emitter, out_slot), (receiver, in_slot) in ((a, b), (b, a)):
            outs = ORIENTATIONS[patch.orient[emitter[0]][emitter[1]]][1]
            ins = ORIENTATIONS[patch.orient[receiver[0]][receiver[1]]][0]
            if out_slot in outs and in_slot in ins:
                graph[emitter].add(receiver)
    return graph


@st.composite
def orientation_grids(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(sorted(ORIENTATIONS)), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@pytest.fixture(scope="module")
def toric_site(wh2):
    return toric_patch(wh2, 1, 1).grid[0][0]


@settings(max_examples=80, deadline=None)
@given(orient=orientation_grids())
@example(orient=[["ur", "dr"], ["ul", "dl"]])  # defects circle the plaquette
def test_processing_order_respects_the_emission_graph(toric_site, orient):
    patch = PepsPatch([[toric_site] * len(orient[0]) for _ in orient], orient)
    graph = emission_graph(patch)
    feeders = {site: {s for s in graph if site in graph[s]} for site in graph}
    try:
        list(graphlib.TopologicalSorter(feeders).static_order())
    except graphlib.CycleError:
        with pytest.raises(DefectStuckError):
            patch.processing_order()
        return
    order = patch.processing_order()
    assert sorted(order) == sorted(graph)
    position = {site: k for k, site in enumerate(order)}
    assert all(position[emitter] < position[receiver] for emitter in graph for receiver in graph[emitter])


class TestClusterChain:
    def test_cluster_chain_protocol(self):
        from mftn.fixtures import cluster_tensor

        chain = [cluster_tensor()] * 4
        for seed in range(10):
            run = run_mps_protocol(chain, "open", seed=seed)
            assert run.success and run.fidelity >= 1 - 1e-9
        report = enumerate_outcomes(chain[:3], "open")
        assert report.success_probability == pytest.approx(1.0, abs=1e-9)


class TestQutritPepsProtocol:
    def test_z3_toric_two_by_two(self, wh3):
        patch = z3_toric_patch(wh3)
        for seed in range(3):
            run = run_peps_protocol(patch, seed=seed)
            assert run.success and run.fidelity >= 1 - 1e-9
            assert run.probabilities == pytest.approx([1 / 9] * 4, abs=1e-9)


def unfolded_value(patch, ket_mods, bra_mods, ket_bonds, bra_bonds, cuts):
    """<bra|ket> over separate ket and bra layers, no folded pair legs, in one fresh einsum.

    Each site's ket and bra first sum over the physical leg and over the legs
    a cut bond or the boundary traces against the same site's bra leg, so a
    3 x 3 patch needs at most 48 labels, within einsum's 52.  A live bond joins
    each layer's two sides through its own matrix.  The bond geometry is
    written out here, apart from the patch's bond table: a bond matrix's first
    index sits on the west site of a horizontal bond and on the south site of
    a vertical one.
    """
    fresh = itertools.count()
    eye = np.eye(patch.D)
    sides, operands = {}, []
    for key in patch.bonds():
        if key in cuts:
            continue
        sides[key] = {layer: (next(fresh), next(fresh)) for layer in "kb"}
        operands += [ket_bonds.get(key, eye), list(sides[key]["k"])]
        operands += [bra_bonds.get(key, eye).conj(), list(sides[key]["b"])]
    for r in range(patch.rows):
        for c in range(patch.cols):
            # left, up, right, down: (bond key, 0 on the bond's first side, 1 on its second)
            slots = [(("h", r, c - 1), 1), (("v", r - 1, c), 0), (("h", r, c), 0), (("v", r, c), 1)]
            live = [s for s, (key, _) in enumerate(slots) if key in sides]
            bra_legs = "".join("ABCD"[s] if s in live else "abcd"[s] for s in range(4))
            out = "".join("abcd"[s] for s in live) + "".join("ABCD"[s] for s in live)
            ket = patch._site_array(r, c, ket_mods.get((r, c)))
            bra = patch._site_array(r, c, bra_mods.get((r, c))).conj()
            operands += [np.einsum(f"abcdp,{bra_legs}p->{out}", ket, bra),
                         [sides[slots[s][0]][layer][slots[s][1]] for layer in "kb" for s in live]]
    return complex(np.einsum(*operands, [], optimize=True))


def pair_matrices(patch, ket_bonds, bra_bonds):
    """``network_value``'s pairs: kron(ket, bra^*) on every bond either layer sets."""
    eye = np.eye(patch.D)
    return {key: np.kron(ket_bonds.get(key, eye), bra_bonds.get(key, eye).conj())
            for key in {**ket_bonds, **bra_bonds}}


def batched_bond(pairs):
    """The one bond whose pair matrix is a stack."""
    (key,) = [key for key, m in pairs.items() if m.ndim == 3]
    return key


def assert_batched_weights_match(patch, monkeypatch):
    """Each bond's batched Born weights equal its per-candidate network values."""
    draws = []
    original = PepsPatch.network_value

    def recording(self, *args, **kwargs):
        value = original(self, *args, **kwargs)
        draws.append((kwargs, value.real))
        return value

    monkeypatch.setattr(PepsPatch, "network_value", recording)
    chosen, _ = _sample_peps_bonds(patch, philox_rng(0))
    monkeypatch.undo()
    projectors = [bond_projector(patch.basis, j) for j in range(len(patch.basis.elements))]
    order = patch.bonds()
    assert [batched_bond(kwargs["pairs"]) for kwargs, _ in draws] == order
    for k, (kwargs, batched) in enumerate(draws):
        single = []
        for m in projectors:
            mats = {**{b: projectors[chosen[b]] for b in order[:k]}, order[k]: m}
            single.append(patch.network_value(pair_matrices(patch, mats, mats), cuts=kwargs["cuts"]).real)
        assert np.max(np.abs(batched - single)) <= 1e-14 * np.sum(single)


class TestBatchedPepsContraction:
    """One batched contraction per sampled bond, with per-patch folded sites."""

    @pytest.fixture(scope="class", params=["toric3x3", "z3-toric2x2"])
    def built(self, request, wh2, wh3):
        if request.param == "toric3x3":
            return toric_patch(wh2, 3, 3, FOUR_CORNER_3X3)
        return z3_toric_patch(wh3)

    @pytest.fixture()
    def patch(self, built):
        """A fresh patch, with empty caches, on the class's tensors."""
        return PepsPatch(built.grid, built.orient)

    def test_batched_weights_equal_per_candidate_weights(self, patch, monkeypatch):
        assert_batched_weights_match(patch, monkeypatch)

    def test_batched_weights_on_random_tensors(self, wh3, rng, monkeypatch):
        """A 2 x 2 WH:3 patch of random tensors, whose conditionals, unlike an
        MF-symmetric patch's, are not uniform, so a conjugation slip shows."""
        grid = [[PEPSTensor.from_matrix(random_complex(rng, 3, 81), wh3) for _ in range(2)] for _ in range(2)]
        assert_batched_weights_match(PepsPatch(grid), monkeypatch)

    def test_folded_value_equals_fresh_einsum(self, wh2, rng):
        patch = toric_patch(wh2, 2, 3)
        bonds = patch.bonds()

        def arguments():
            ket_mods = {(0, 0): (random_unitary(patch.grid[0][0].d, rng), [(2, random_complex(rng, 2, 2))]),
                        (1, 2): (None, [(1, random_complex(rng, 2, 2))])}
            bra_mods = {(0, 1): (random_unitary(patch.grid[0][1].d, rng), [(3, random_complex(rng, 2, 2))])}
            ket_bonds = {key: random_complex(rng, 2, 2) for key in bonds[:4]}
            bra_bonds = {key: random_complex(rng, 2, 2) for key in bonds[2:]}
            return ket_mods, bra_mods, ket_bonds, bra_bonds, frozenset(bonds[5:])

        def folded_value(ket_mods, bra_mods, ket_bonds, bra_bonds, cuts):
            return patch.network_value(pair_matrices(patch, ket_bonds, bra_bonds), ket_mods, bra_mods, cuts)

        folded_value(*arguments())  # folds and keeps the unmodified sites
        for _ in range(3):
            args = arguments()
            expected = unfolded_value(patch, *args)
            assert abs(folded_value(*args) - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("rows, cols", [(4, 4), (2, 6)])
    def test_batched_weights_on_larger_patches(self, wh2, rows, cols, monkeypatch):
        assert_batched_weights_match(toric_patch(wh2, rows, cols), monkeypatch)

    def test_one_stacked_bond_at_most(self, wh2):
        patch = toric_patch(wh2, 1, 3)
        stack = patch.outcome_pairs[0]
        with pytest.raises(ValueError, match="at most one bond"):
            patch.network_value(dict.fromkeys(patch.bonds()[:2], stack))

    @pytest.mark.parametrize("rows, cols, orientations", [
        (1, 2, "ur"), (2, 3, "ur"), (3, 2, "ur"), (3, 3, "ur"), (3, 3, FOUR_CORNER_3X3),
    ], ids=["1x2", "2x3", "3x2", "3x3", "3x3-four-corner"])
    def test_sweep_equals_fresh_einsum_on_random_networks(self, wh2, rng, rows, cols, orientations):
        """Random distinct site tensors, site ops, bond matrices and cuts, so that a
        slip in the sweep's order, labels or bond ends shows."""
        grid = [[PEPSTensor.from_matrix(random_complex(rng, 3, 16), wh2) for _ in range(cols)]
                for _ in range(rows)]
        patch = PepsPatch(grid, orientations)
        bonds = patch.bonds()
        sites = [(r, c) for r in range(rows) for c in range(cols)]

        def some(items):
            return [items[k] for k in sorted(rng.choice(len(items), rng.integers(len(items) + 1), replace=False))]

        def mods():
            return {site: (random_unitary(3, rng) if rng.random() < 0.5 else None,
                           [(slot, random_complex(rng, 2, 2)) for slot in range(4) if rng.random() < 0.3])
                    for site in some(sites)}

        for _ in range(4):
            ket_bonds = {key: random_complex(rng, 2, 2) for key in some(bonds)}
            bra_bonds = {key: random_complex(rng, 2, 2) for key in some(bonds)}
            args = mods(), mods(), ket_bonds, bra_bonds, frozenset(some(bonds))
            expected = unfolded_value(patch, *args)
            got = patch.network_value(pair_matrices(patch, ket_bonds, bra_bonds), *args[:2], args[4])
            assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_outcomes_pinned(self, patch):
        pinned = {
            (3, 3): [(0, 1, 1, 0, 3, 1, 3, 0, 0, 0, 3, 1), (0, 0, 0, 3, 0, 1, 1, 1, 2, 3, 3, 0),
                     (2, 3, 3, 3, 1, 3, 0, 2, 1, 0, 2, 2), (0, 0, 0, 3, 3, 2, 3, 1, 3, 3, 1, 3),
                     (1, 2, 3, 1, 2, 3, 1, 3, 0, 2, 1, 3)],
            (2, 2): [(0, 2, 4, 0), (0, 0, 0, 7), (6, 7, 6, 7), (0, 1, 1, 8), (3, 6, 8, 4)],
        }
        runs = [run_peps_protocol(patch, seed=s) for s in range(5)]
        assert [tuple(run.outcomes) for run in runs] == pinned[patch.rows, patch.cols]
        assert all(run.success for run in runs)

    def test_one_contraction_per_bond_and_one_target_norm(self, patch, monkeypatch):
        calls = []
        original = PepsPatch.network_value

        def counting(self, *args, **kwargs):
            calls.append(any(m.ndim == 3 for m in (kwargs.get("pairs") or {}).values()))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PepsPatch, "network_value", counting)
        nbonds = len(patch.bonds())
        _sample_peps_bonds(patch, philox_rng(0))
        assert calls == [True] * nbonds
        # <t|t> is contracted by the first trial only; each trial adds its two overlaps
        for expected in (nbonds + 3, nbonds + 2):
            calls.clear()
            assert run_peps_protocol(patch, seed=1).success
            assert len(calls) == expected

    def test_caches_hold_no_dense_state(self, patch):
        run_peps_protocol(patch, seed=0)
        largest = max(a.size for a in patch._folds.values())
        assert largest <= patch.D ** 8


class TestSamplingMatchesEnumeration:
    """The product of a run's sampled conditionals is the enumerated Born weight."""

    @staticmethod
    def assert_runs_match(weights, runs):
        for run in runs:
            assert abs(np.prod(run.probabilities) - weights[tuple(run.outcomes)]) < 1e-12

    def check_chain(self, chain, boundary):
        report = enumerate_outcomes(chain, boundary)
        weights = dict(zip(report.outcomes, report.probabilities))
        self.assert_runs_match(weights, (run_mps_protocol(chain, boundary, seed=s) for s in range(20)))

    def test_aklt_open(self):
        self.check_chain([aklt_tensor()] * 4, "open")

    def test_aklt_periodic(self):
        self.check_chain([aklt_tensor()] * 3, "periodic")

    def test_cluster_open(self):
        self.check_chain([cluster_tensor()] * 4, "open")

    def test_random_family_member(self, wh2, rng):
        family = solve_symmetry_family(wh2, aklt_tensor().constraints, d=3)
        coeffs = random_complex(rng, len(family))
        data = sum(c * t.tensor.data for c, t in zip(coeffs, family))
        member = MPSTensor(DenseTensor(data, family[0].tensor.legs), wh2, family[0].constraints)
        for boundary in ("open", "periodic"):
            self.check_chain([member] * 3, boundary)

    def test_toric_patch(self, wh2):
        patch = toric_patch(wh2, 2, 2)
        report = enumerate_peps_outcomes(patch)
        weights = dict(zip(report.outcomes, report.probabilities))
        self.assert_runs_match(weights, (run_peps_protocol(patch, seed=s) for s in range(20)))

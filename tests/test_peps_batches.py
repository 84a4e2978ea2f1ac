"""A PEPS item's trials run in batches: one contraction per bond draws that
bond for every trial of the batch, and one more gives both fidelity overlaps
of all of them.

``oracles.sequential_peps_run`` runs one trial on its own, with a contraction
per bond and per overlap, as the protocol did before batches; every batch is
held to it.  Noisy patches are built from MF tensors plus noise, at a patch
tolerance loose enough that they still route: their conditionals and
fidelities differ from trial to trial, so a batch that mixed up its trials
would show.
"""

import collections
import functools
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mftn import cli, protocol
from mftn.basis import weyl_heisenberg_basis
from mftn.errors import DefectStuckError, NumericalRangeError
from mftn.peps import PEPSTensor, complete_with_isometry, topo_solution
from mftn.protocol import PepsPatch, run_peps_trials
from mftn.tensors import DEFAULT_TOL, DenseTensor
from conftest import FOUR_CORNER_3X3, random_complex, x_power_alpha
from oracles import sequential_peps_run

WH2 = weyl_heisenberg_basis(2)
NOISY_TOL = 0.5  # pushes of the noisy tensors fit within it, so every outcome routes


def site_tensors(seed: int, count: int, noise: float) -> list:
    """``count`` distinct random-alpha WH:2 tensors, each with noise x its largest entry added."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = topo_solution(WH2, random_complex(rng, 4))
        data = q.tensor.data
        data = data + noise * np.abs(data).max() * random_complex(rng, *data.shape)
        out.append(PEPSTensor(DenseTensor(data, q.tensor.legs), WH2, q.constraints_a, q.constraints_b))
    return out


def grid_of(rows, cols, seed, noise):
    sites = site_tensors(seed, rows * cols, noise)
    return [sites[r * cols:(r + 1) * cols] for r in range(rows)]


def sequential(grid, orientation, seeds, tol):
    """The oracle's runs, or the error its lowest failing seed raises, on a patch of its own."""
    patch = PepsPatch(grid, orientation, tol)
    try:
        return [sequential_peps_run(patch, seed, tol) for seed in seeds], None
    except Exception as exc:
        return None, exc


def assert_runs_match(got, want, atol=1e-12):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.seed, a.rng_algorithm, a.outcomes) == (b.seed, b.rng_algorithm, b.outcomes)
        assert [site for site, _ in a.corrections] == [site for site, _ in b.corrections]
        assert all(np.array_equal(u, v) for (_, u), (_, v) in zip(a.corrections, b.corrections))
        assert np.abs(np.subtract(a.probabilities, b.probabilities)).max(initial=0) <= atol
        assert abs(a.fidelity - b.fidelity) <= atol
        assert (a.success, a.predicted_success, a.final_state) == (b.success, b.predicted_success, None)


def toric_patch(rows, cols):
    """The toric-code patch that ``simulate --peps`` builds from the WH:2 X-power alpha."""
    return PepsPatch([[complete_with_isometry(topo_solution(WH2, x_power_alpha(WH2)))] * cols] * rows)


SHAPES = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3) if r * c >= 2]


@st.composite
def batch_cases(draw):
    """(grid, orientation, seeds, tol): distinct random WH:2 sites from 1 x 2 to 3 x 3."""
    rows, cols = draw(st.sampled_from(SHAPES))
    orientation = draw(st.sampled_from(["ur", "ul", "dr", "dl"] + (["four-corner"] if rows == cols == 3 else [])))
    noise = draw(st.sampled_from([0.0, 0.05]))
    first = draw(st.integers(0, 10**6))
    trials = draw(st.sampled_from([1, 2, 3, 5]))
    grid = grid_of(rows, cols, draw(st.integers(0, 2**32 - 1)), noise)
    return (grid, FOUR_CORNER_3X3 if orientation == "four-corner" else orientation,
            list(range(first, first + trials)), NOISY_TOL if noise else DEFAULT_TOL)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=batch_cases())
@example(case=(grid_of(3, 3, 7, 0.05), FOUR_CORNER_3X3, [0, 1, 2, 3, 4], NOISY_TOL))
@example(case=(grid_of(1, 2, 8, 0.05), "dl", [3], NOISY_TOL))
def test_a_batch_equals_its_trials_run_one_at_a_time(case):
    grid, orientation, seeds, tol = case
    want, error = sequential(grid, orientation, seeds, tol)
    runs = run_peps_trials(PepsPatch(grid, orientation, tol), seeds, tol)
    if error is not None:
        with pytest.raises(type(error), match=re.escape(str(error))):
            list(runs)
        return
    assert_runs_match(list(runs), want)


def test_noisy_trials_differ_from_each_other():
    """The noisy patches the property draws are not uniform, so they can tell trials apart."""
    runs = list(run_peps_trials(PepsPatch(grid_of(3, 3, 7, 0.05), FOUR_CORNER_3X3, NOISY_TOL), range(5), NOISY_TOL))
    assert len({run.fidelity for run in runs}) == 5
    assert np.ptp([p for run in runs for p in run.probabilities]) > 1e-6


def test_a_split_batch_equals_the_whole(monkeypatch):
    grid = grid_of(3, 3, 11, 0.05)
    whole = list(run_peps_trials(PepsPatch(grid, FOUR_CORNER_3X3, NOISY_TOL), range(7), NOISY_TOL))
    patch = PepsPatch(grid, FOUR_CORNER_3X3, NOISY_TOL)
    sizes = []
    batch = protocol._run_peps_batch

    def sized(patch, seeds, tol):
        sizes.append(len(seeds))
        return batch(patch, seeds, tol)

    monkeypatch.setattr(protocol, "_run_peps_batch", sized)
    # a batch holds floor(MAX_DENSE_ELEMENTS / the elements one trial holds) trials
    monkeypatch.setattr(protocol, "MAX_DENSE_ELEMENTS", 2 * protocol._trial_elements(patch) + 1)
    split = list(run_peps_trials(patch, range(7), NOISY_TOL))
    assert sizes == [2, 2, 2, 1]
    assert_runs_match(split, whole)


def test_runs_are_held_one_batch_at_a_time(monkeypatch):
    patch = PepsPatch(grid_of(2, 2, 5, 0.0), "ur")
    monkeypatch.setattr(protocol, "MAX_DENSE_ELEMENTS", 3 * protocol._trial_elements(patch))
    alive = []
    for run in run_peps_trials(patch, range(10)):
        alive.append(weakref.ref(run))
        assert sum(ref() is not None for ref in alive) <= 3
    assert len(alive) == 10


def test_the_cli_reads_the_runs_batch_by_batch(capsys, monkeypatch):
    """A run split into batches of two reports what one batch reports."""
    spec = '{"basis": "WH:2", "alpha": [[1, 0], [0, 0], [1, 0], [0, 0]]}'
    argv = ["simulate", "--peps", spec, "--rows", "2", "--cols", "3", "--trials", "5", "--seed", "3"]

    def report():
        assert cli.dispatch(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        rep.pop("elapsed_ms")
        return rep

    whole = report()
    monkeypatch.setattr(protocol, "MAX_DENSE_ELEMENTS", 2 * protocol._trial_elements(toric_patch(2, 3)))
    batches = []
    real = protocol._run_peps_batch
    monkeypatch.setattr(protocol, "_run_peps_batch", lambda *args: batches.append(len(args[1])) or real(*args))
    assert report() == whole
    assert batches == [2, 2, 1]


def test_batches_stay_within_the_front_bound(monkeypatch):
    """Every batch, with all that its trials hold, peaks within MAX_DENSE_ELEMENTS
    complex elements, lowered here so that a batch takes a few hundred trials."""
    monkeypatch.setattr(protocol, "MAX_DENSE_ELEMENTS", 1 << 18)
    patch = toric_patch(2, 2)
    list(run_peps_trials(patch, [0]))  # the patch's caches are not a batch's
    tracemalloc.start()
    try:
        count = sum(1 for _ in run_peps_trials(patch, range(1000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1000
    assert peak <= 16 * protocol.MAX_DENSE_ELEMENTS


def test_one_processing_order_sort_per_patch(monkeypatch):
    """The Kahn sort runs once for a 100-trial batch, not once per trial's routing;
    a cyclic flow is not cached and still raises at every routing."""
    sorts = []
    kahn = PepsPatch.processing_order.func

    def counted(self):
        sorts.append(self)
        return kahn(self)

    order = functools.cached_property(counted)
    order.__set_name__(PepsPatch, "processing_order")
    monkeypatch.setattr(PepsPatch, "processing_order", order)
    patch = toric_patch(2, 2)
    assert protocol.MAX_DENSE_ELEMENTS // protocol._trial_elements(patch) >= 100  # one batch
    runs = list(run_peps_trials(patch, range(100)))
    assert len(runs) == 100 and all(run.success for run in runs)
    assert sorts == [patch]
    site = patch.grid[0][0]
    cyclic = PepsPatch([[site, site], [site, site]], [["ur", "dr"], ["ul", "dl"]])  # defects circle the plaquette
    for _ in range(2):
        with pytest.raises(DefectStuckError, match="cyclic"):
            list(run_peps_trials(cyclic, range(3)))
    assert sorts == [patch, cyclic, cyclic]


@pytest.fixture()
def failing(monkeypatch):
    """Make chosen trials raise: a NumericalRangeError in a seed's n-th draw, a
    DefectStuckError when a given outcome row is routed.  The protocol and the
    oracle are patched alike."""
    draws_of, seed_of = collections.Counter(), {}
    plan = {"draw": {}, "route": []}
    real_rng, real_choice, real_route = protocol.philox_rng, protocol.born_choice, protocol._route_defects

    def tagged_rng(seed):
        rng = real_rng(seed)
        seed_of[id(rng)] = seed
        return rng

    def choice(weights, rng):
        seed = seed_of[id(rng)]
        draws_of[seed] += 1
        if plan["draw"].get(seed) == draws_of[seed]:
            raise NumericalRangeError(f"draw {draws_of[seed]} of seed {seed}")
        return real_choice(weights, rng)

    def route(patch, outcomes):
        if list(outcomes.values()) in plan["route"]:
            raise DefectStuckError(f"routing {list(outcomes.values())}")
        return real_route(patch, outcomes)

    for module in (protocol, oracles):
        monkeypatch.setattr(module, "philox_rng", tagged_rng)
        monkeypatch.setattr(module, "born_choice", choice)
        monkeypatch.setattr(module, "_route_defects", route)

    def run(grid, seeds, draw=None, route=()):
        plan["draw"], plan["route"] = draw or {}, [list(r) for r in route]
        draws_of.clear()
        want, error = sequential(grid, "ur", seeds, NOISY_TOL)
        draws_of.clear()
        with pytest.raises(type(error)) as raised:
            list(run_peps_trials(PepsPatch(grid, "ur", NOISY_TOL), seeds, NOISY_TOL))
        return error, raised.value

    return run


def test_a_failing_trial_fails_the_batch_with_the_lowest_failing_seeds_error(failing):
    grid = grid_of(2, 2, 3, 0.05)
    clean = [sequential_peps_run(PepsPatch(grid, "ur", NOISY_TOL), s, NOISY_TOL) for s in range(6)]
    assert clean[2].outcomes not in [run.outcomes for run in clean[:2]]
    cases = [
        ({4: 3}, [clean[2].outcomes], "routing"),  # seed 4 fails first in the batch, seed 2 is lower
        ({4: 3, 1: 4}, [clean[2].outcomes], "seed 1"),  # seed 1's last draw comes before any routing
        ({4: 3}, [], "seed 4"),
        ({0: 1}, [], "draw 1 of seed 0"),  # the whole batch is gone after the first draw
    ]
    for draw, route, name in cases:
        want, got = failing(grid, list(range(6)), draw, route)
        assert (type(got), str(got)) == (type(want), str(want))
        assert name in str(got)

"""The certificate of synthesized Cliffords against the dense checks it replaced.

``synthesize_clifford`` accepts phi0 and its completed tableau on one
certificate: integer checks of the tableau and bounds, from
||Z'_k phi0 - phi0||, on the 2n residuals ||U g - g' U|| of the dense U and,
by Schur's lemma, on its unitarity.  The dense U, built when it is read, is
not measured again.  The dense Gram (``isometry_residual``),
``image_residual`` and ``is_clifford`` stay as the oracles these tests hold
the bounds to.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mftn import cli
from mftn import clifford as qc
from mftn.clifford import (PartialCliffordMap, PauliVector, complete_tableau, image_residual, is_clifford,
                           synthesize_clifford)
from mftn.errors import InadmissibleMapError
from mftn.mps import clifford_magic_decompose
from mftn.peps import peps_split_polar, topo_solution
from mftn.tensors import PAULI_FLOOR, VERDICT_FLOOR, isometry_residual

from conftest import perfbench_module, x_power_alpha
from oracles import complete_symplectic_by_full_reduction, joint_eigenvector_by_projection


def xz(n, d, v, w, p=0):
    return PauliVector(n, d, tuple(v), tuple(w), p)


def order_d_phase(v, w, d, r):
    """A phase exponent making (phase * XZ(v, w))^d the identity: parity of (d - 1) v.w, plus 2r."""
    return ((d - 1) * sum(x * y for x, y in zip(v, w))) % 2 + 2 * r


# every (n, d) with d prime up to 7 and n log2 d <= 10: U is at most 1024 x 1024
SIZES = [(n, d) for d in (2, 3, 5, 7) for n in range(1, 11) if n * math.log2(d) <= 10]


@st.composite
def admissible_maps(draw):
    """Requested images for slot 0 and a random set of further slots, with random order-d phases.

    Slot 0's images are random; the others come from its completed tableau, so
    every requested pair keeps the commutation of (X_k, Z_k) with the rest.
    """
    n, d = draw(st.sampled_from(SIZES))
    vec = st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n)
    a = draw(vec.filter(any))
    b = draw(vec.filter(lambda b: sum(a[n + k] * b[k] - a[k] * b[n + k] for k in range(n)) % d))
    form = sum(a[n + k] * b[k] - a[k] * b[n + k] for k in range(n)) % d
    # X_0 Z_0 = omega^(d-1) Z_0 X_0: scale b until the targets commute the same way
    b = [x * pow(form, -1, d) * (d - 1) % d for x in b]
    tx, tz = complete_tableau(PartialCliffordMap(n, d, (
        (PauliVector.x_gen(n, d, 0), xz(n, d, a[:n], a[n:], order_d_phase(a[:n], a[n:], d, 0))),
        (PauliVector.z_gen(n, d, 0), xz(n, d, b[:n], b[n:], order_d_phase(b[:n], b[n:], d, 0))))))
    slots = [0] + (sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else [])
    images = []
    for k in slots:
        for src, t in ((PauliVector.x_gen(n, d, k), tx[k]), (PauliVector.z_gen(n, d, k), tz[k])):
            phase = order_d_phase(t.v, t.w, d, draw(st.integers(0, d - 1)))
            images.append((src, PauliVector(n, d, t.v, t.w, phase)))
    return PartialCliffordMap(n, d, tuple(images))


GHZ = PartialCliffordMap(3, 2, (
    (xz(3, 2, [1, 0, 0], [0, 0, 0]), xz(3, 2, [1, 1, 1], [0, 0, 0])),
    (xz(3, 2, [0, 0, 0], [1, 0, 0]), xz(3, 2, [0, 0, 0], [1, 1, 1])),
))
# X_1 -> X_1 X_2, Z_1 -> Z_1^2 Z_2^2 on three qutrits: column digits wrap at 3
QUTRIT = PartialCliffordMap(3, 3, (
    (xz(3, 3, [0, 1, 0], [0, 0, 0]), xz(3, 3, [0, 1, 1], [0, 0, 0])),
    (xz(3, 3, [0, 0, 0], [0, 1, 0]), xz(3, 3, [0, 0, 0], [0, 2, 2])),
))


def odd_ghz(n):
    """X_0 -> X...X, Z_0 -> -Z...Z on an odd number n of qubits: the completed Z images
    fix |1..1> alone, so |0..0> is off the support."""
    return PartialCliffordMap(n, 2, (
        (PauliVector.x_gen(n, 2, 0), xz(n, 2, [1] * n, [0] * n)),
        (PauliVector.z_gen(n, 2, 0), xz(n, 2, [0] * n, [1] * n, 2)),
    ))


# Z -> omega Z on one qutrit: its joint eigenstate is |2>
SHIFTED_QUTRIT = PartialCliffordMap(1, 3, (
    (PauliVector.x_gen(1, 3, 0), xz(1, 3, [1], [0])),
    (PauliVector.z_gen(1, 3, 0), xz(1, 3, [0], [1], 2)),
))


def generators(n, d):
    return [PauliVector.x_gen(n, d, k) for k in range(n)] + [PauliVector.z_gen(n, d, k) for k in range(n)]


def stacked_synthesis(m):
    """U assembled by np.stack over the X-image powers: the in-place assembly must match it bit for bit."""
    tx, tz = complete_tableau(m)
    dim = m.d**m.n
    u = qc._joint_eigenvector(tz, dim)[:, None]
    for t in tx:
        mono = t.monomial()
        pows = [u]
        for _ in range(m.d - 1):
            pows.append(qc._apply(mono, pows[-1]))
        u = np.stack(pows, axis=2).reshape(dim, -1)
    return u


def assert_bounds_cover_the_dense_oracles(got, m):
    """The certificate against the dense oracles on the filled U: every generator's bound at or
    above its ``image_residual``, the isometry bound at or above the Gram's, and the verdict
    ``is_clifford`` gives."""
    u, (n, d) = got.data, (m.n, m.d)
    tx, tz = complete_tableau(m)
    for g, t, b in zip(generators(n, d), tx + tz, got.x_bounds + got.z_bounds):
        assert b >= image_residual(u, g, t)
    for src, tgt in m.images:
        assert got.bound(src) >= image_residual(u, src, tgt)
    assert got.isometry_bound >= isometry_residual(u)
    assert got.certified == is_clifford(u, n, d)


class TestCertificateAgainstTheDenseOracles:
    @settings(max_examples=40, deadline=None)
    @given(m=admissible_maps())
    @example(m=GHZ)
    @example(m=QUTRIT)
    @example(m=odd_ghz(3))
    @example(m=SHIFTED_QUTRIT)
    def test_random_admissible_maps(self, m):
        got = synthesize_clifford(m)
        assert np.array_equal(got.data, stacked_synthesis(m))
        assert_bounds_cover_the_dense_oracles(got, m)
        assert got.certified

    def test_the_check_peps_wh3_map(self, monkeypatch, wh3):
        """The clifford workload's largest U, 729 x 729 (8.1 MiB): synthesis and the read of U
        hold U and one column block, never a stacked copy of U or a dense Gram."""
        maps = []

        def record(m):
            maps.append(m)
            return synthesize(m)

        synthesize = qc.synthesize_clifford
        monkeypatch.setattr(qc, "synthesize_clifford", record)
        clifford_magic_decompose(peps_split_polar(topo_solution(wh3, x_power_alpha(wh3))))
        (m,) = maps
        assert (m.n, m.d) == (6, 3)
        tracemalloc.start()
        try:
            got = synthesize(m)
            got.data
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 << 20
        assert np.array_equal(got.data, stacked_synthesis(m))
        assert_bounds_cover_the_dense_oracles(got, m)


def requested_pairs(m):
    """The (x-image, z-image) vectors of the requested slots, in slot order, as ``complete_tableau`` reads them."""
    by_slot = {}
    for src, tgt in m.images:
        kind, slot = qc._generator_kind(src)
        by_slot.setdefault(slot, {})[kind] = tgt
    return [(by_slot[s]["X"].sympl(), by_slot[s]["Z"].sympl()) for s in sorted(by_slot)]


@settings(max_examples=40, deadline=None)
@given(m=admissible_maps())
@example(m=GHZ)
@example(m=QUTRIT)
def test_symplectic_completion_matches_the_full_reduction(m):
    """Candidates kept reduced as pairs are found give the integer pairs, in order, that
    reducing every candidate again for each partner search gives."""
    requested = requested_pairs(m)
    got = qc._complete_symplectic(requested, m.n, m.d)
    want = complete_symplectic_by_full_reduction(requested, m.n, m.d)
    assert len(got) == len(want) == m.n
    for (u, v), (u_want, v_want) in zip(got, want):
        assert np.array_equal(u, u_want) and np.array_equal(v, v_want)


@settings(max_examples=40, deadline=None)
@given(m=admissible_maps())
@example(m=GHZ)
@example(m=QUTRIT)
@example(m=odd_ghz(3))
@example(m=SHIFTED_QUTRIT)
def test_the_joint_eigenvector_matches_the_projection_of_every_basis_vector(m):
    _, tz = complete_tableau(m)
    dim = m.d**m.n
    got, want = qc._joint_eigenvector(tz, dim), joint_eigenvector_by_projection(tz, dim)
    j = qc._support_index(tz)
    assert abs(want[j]) >= 0.5 / np.sqrt(dim)  # on the support, also where |0..0> is
    if abs(want[0]) >= 0.5 / np.sqrt(dim):  # both project |0..0>
        assert np.array_equal(got, want)
    assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("m, index", [(odd_ghz(3), 7), (odd_ghz(9), 511), (SHIFTED_QUTRIT, 2)],
                         ids=["ghz3", "ghz9", "qutrit"])
def test_the_support_point_where_zero_is_off_the_support(m, index):
    _, tz = complete_tableau(m)
    dim = m.d**m.n
    assert qc._support_index(tz) == index
    assert np.linalg.norm(qc._stabilized(tz, np.eye(dim, 1, dtype=complex)[:, 0])) < 1e-12
    assert np.abs(qc._joint_eigenvector(tz, dim) - joint_eigenvector_by_projection(tz, dim)).max() <= 1e-14


def test_the_joint_eigenvector_builds_no_dim_by_dim_temporary():
    """9 qubits with |0..0> off the support: the projection of every basis vector took 4 MiB."""
    _, tz = complete_tableau(odd_ghz(9))
    tracemalloc.start()
    try:
        qc._joint_eigenvector(tz, 2**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_z_images_without_a_joint_eigenstate_are_refused():
    """-I in the group the Z images generate: Z_0 Z_1 and -Z_0 Z_1 never both fix a state."""
    tz = [xz(2, 2, [0, 0], [1, 1]), xz(2, 2, [0, 0], [1, 1], 2)]
    with pytest.raises(InadmissibleMapError, match="no joint"):
        qc._joint_eigenvector(tz, 4)


def _scaled(u, resid):
    """c u for a unitary u, with c chosen so that isometry_residual(c u) = resid."""
    return np.sqrt(1 + resid * np.sqrt(len(u))) * u


def _entry(u):
    e = np.zeros_like(u)
    e[1, 2] = 1.0
    return e


def _swap(u):
    """The direction from U to U with its columns 1 and 2 swapped."""
    return u[:, [0, 2, 1] + list(range(3, len(u)))] - u


@pytest.mark.parametrize("m", [GHZ, QUTRIT], ids=["ghz", "qutrit"])
class TestCorruptedUnitaries:
    """The Schur bound and the Pauli-floor verdict on unitaries corrupted past round-off."""

    @pytest.mark.parametrize("corrupt", [
        lambda u: _scaled(u, 50 * VERDICT_FLOOR), lambda u: u + 1e-3 * _entry(u), lambda u: u + _swap(u),
    ], ids=["scaled", "one-entry", "two-columns"])
    def test_bound_and_verdict_hold_on_corrupted_unitaries(self, m, corrupt):
        bad = corrupt(synthesize_clifford(m).data)
        tx, tz = complete_tableau(m)
        eps = max(image_residual(bad, g, t) for g, t in zip(generators(m.n, m.d), tx + tz))
        assert qc._isometry_bound(eps, float(np.linalg.norm(bad)), m.n, m.d) >= isometry_residual(bad)
        if eps <= PAULI_FLOOR * np.sqrt(len(bad)):  # the certificate's verdict; only the scaled U gets it
            assert is_clifford(bad, m.n, m.d)


def test_no_subcommand_computes_the_gram_of_a_synthesized_clifford(monkeypatch, capsys):
    def refuse(m):
        raise AssertionError("dense Gram of a synthesized Clifford")

    monkeypatch.setattr(qc, "isometry_residual", refuse)
    ghz = {"n": 3, "d": 2, "images": [
        {"source": src.to_json(), "target": tgt.to_json()} for src, tgt in GHZ.images]}
    wh3_alpha = json.dumps([[1.0 if w == 0 else 0.0, 0.0] for v in range(3) for w in range(3)])
    runs = {"is_clifford": ["clifford-synth", "--map", json.dumps(ghz)],
            "clifford_form": ["check-peps", "--basis", "WH:3", "--alpha", wh3_alpha],
            "clifford_magic_reconstruction": ["decompose-mps", "--tensor", "aklt"]}
    for check, argv in runs.items():
        assert cli.dispatch(argv) == 0, argv
        checks = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks[check] and all(checks.values()), argv


# -- the abstract certificate -------------------------------------------------


class TestAbstractCertificateAgainstTheDenseOracles:
    def test_every_map_the_clifford_workload_draws(self, monkeypatch, capsys):
        """The maps of the first clifford cycle at seeds 0-2: the random 8-qubit, 5-qutrit and
        2-qutrit syntheses, GHZ, and the Clifford forms of check-peps (WH:3, WH:2) and decompose-mps."""
        maps = []

        def record(m):
            maps.append(m)
            return synthesize(m)

        synthesize = qc.synthesize_clifford
        monkeypatch.setattr(qc, "synthesize_clifford", record)
        workloads = perfbench_module("workloads")
        for seed in range(3):
            for item in workloads.cycle("clifford", seed, 0):
                assert cli.dispatch(item.argv) == 0, item.kind
        capsys.readouterr()
        assert len(maps) == 27
        assert {(m.n, m.d) for m in maps} == {(8, 2), (5, 3), (2, 3), (3, 2), (6, 3), (6, 2)}
        for m in maps:
            assert_bounds_cover_the_dense_oracles(synthesize(m), m)


def _certify_phi0(phi0, m):
    return qc._certify(phi0, m.images, *complete_tableau(m))


def _basis_vector(dim, j):
    e = np.zeros(dim, dtype=complex)
    e[j] = 1.0
    return e


@pytest.mark.parametrize("m", [GHZ, QUTRIT], ids=["ghz", "qutrit"])
class TestAbstractRefusals:
    """Both refusals on a scaled or perturbed phi0, pinned at 0.99x and 1.01x of their bounds,
    as the tolerance tests pin theirs."""

    def test_unitarity_refusal_at_its_bound(self, m):
        """phi0 scaled by c scales U by c: isometry_residual(c U) = (c^2 - 1) / sqrt(dim)."""
        phi0 = synthesize_clifford(m).phi0
        got = _certify_phi0(_scaled(phi0, 0.99 * VERDICT_FLOOR), m)
        assert_bounds_cover_the_dense_oracles(got, m)
        with pytest.raises(InadmissibleMapError, match="non-unitary"):
            _certify_phi0(_scaled(phi0, 1.01 * VERDICT_FLOOR), m)

    def test_image_refusal_at_its_bound(self, m):
        """phi0 + s e with s set so that the worst requested bound, sqrt(dim) s ||Z' e - e||,
        is 0.99x or 1.01x of VERDICT_FLOOR dim.  Below that the bound breaks the unitarity
        bound, so the refusal is the other one."""
        phi0 = synthesize_clifford(m).phi0
        dim = len(phi0)
        e = _basis_vector(dim, 1)  # |0..01>, which every requested Z image here moves
        per_unit = max(np.sqrt(dim) * np.linalg.norm(tgt.matrix() @ e - e)
                       for src, tgt in m.images if qc._generator_kind(src)[0] == "Z")
        limit = VERDICT_FLOOR * dim
        with pytest.raises(InadmissibleMapError, match="non-unitary"):
            _certify_phi0(phi0 + 0.99 * limit / per_unit * e, m)
        with pytest.raises(InadmissibleMapError, match="fails a requested image"):
            _certify_phi0(phi0 + 1.01 * limit / per_unit * e, m)

    @pytest.mark.parametrize("size", [1e-13, 1e-11])
    def test_bounds_hold_on_a_perturbed_phi0(self, m, size):
        phi0 = synthesize_clifford(m).phi0
        got = _certify_phi0(phi0 + size * _basis_vector(len(phi0), 1), m)
        assert max(got.z_bounds) > 0.5 * size * np.sqrt(len(phi0))  # the perturbation shows
        assert_bounds_cover_the_dense_oracles(got, m)

    def test_a_completed_image_with_its_phase_moved_is_refused(self, m):
        """(e^{i pi / d} P)^d = -P^d: one step of the phase exponent breaks the order."""
        phi0 = synthesize_clifford(m).phi0
        tx, tz = complete_tableau(m)
        free = next(k for k in range(m.n) if all(qc._generator_kind(src)[1] != k for src, _ in m.images))
        for images in (tx, tz):
            t = images[free]
            images[free] = PauliVector(t.n, t.d, t.v, t.w, t.phase_exp + 1)
            with pytest.raises(InadmissibleMapError, match="order d"):
                qc._certify(phi0, m.images, tx, tz)
            images[free] = t
        src, tgt = m.images[0]  # a requested image moved no longer holds the request
        kind, slot = qc._generator_kind(src)
        images = tx if kind == "X" else tz
        images[slot] = PauliVector(tgt.n, tgt.d, tgt.v, tgt.w, tgt.phase_exp + 1)
        with pytest.raises(InadmissibleMapError, match="requested image"):
            qc._certify(phi0, m.images, tx, tz)

    def test_a_non_commuting_pair_is_refused(self, m):
        """A free slot's X image replaced by a requested slot's: it then fails to commute
        with that slot's Z image, where X and Z of different slots commute."""
        phi0 = synthesize_clifford(m).phi0
        tx, tz = complete_tableau(m)
        _, slot = qc._generator_kind(m.images[0][0])
        free = next(k for k in range(m.n) if k != slot)
        tx[free] = tx[slot]
        with pytest.raises(InadmissibleMapError, match="do not commute"):
            qc._certify(phi0, m.images, tx, tz)


def ghz_like(n):
    """X_0 -> X..X and Z_0 -> Z..Z I on n qubits: the two images anticommute."""
    return PartialCliffordMap(n, 2, (
        (PauliVector.x_gen(n, 2, 0), xz(n, 2, [1] * n, [0] * n)),
        (PauliVector.z_gen(n, 2, 0), xz(n, 2, [0] * n, [1] * (n - 1) + [0])),
    ))


def map_spec(m):
    return json.dumps({"n": m.n, "d": m.d, "images": [
        {"source": src.to_json(), "target": tgt.to_json()} for src, tgt in m.images]})


def test_clifford_synth_without_out_holds_no_dense_unitary(capsys):
    """10 qubits: a dense U would be 16 MiB; the report is read from phi0 and the tableau."""
    spec = map_spec(ghz_like(10))
    qc._digit_table.cache_clear()
    tracemalloc.start()
    try:
        code = cli.dispatch(["clifford-synth", "--map", spec])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().out
    assert all(c["passed"] for c in json.loads(capsys.readouterr().out)["checks"])
    assert peak < 1 << 20

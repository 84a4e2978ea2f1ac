"""Qudit Pauli arithmetic and Clifford synthesis from partial generator maps."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mftn import cli
from mftn import clifford as qc
from mftn.clifford import (
    PartialCliffordMap,
    PauliVector,
    check_admissible,
    complete_tableau,
    image_residual,
    is_clifford,
    match_pauli_matrix,
    synthesize_clifford,
)
from mftn.errors import InadmissibleMapError, NonPrimeDimensionError
from mftn.fixtures import aklt_tensor
from mftn.mps import clifford_magic_decompose, is_stabilizer_state, split_polar
from mftn.peps import peps_split_polar, topo_solution
from mftn.tensors import fix_global_phase, random_unitary

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def xz(n, d, v, w, p=0):
    return PauliVector(n, d, tuple(v), tuple(w), p)


class TestPauliMatrix:
    def test_single_qubit_generators(self):
        x = xz(1, 2, [1], [0]).matrix()
        np.testing.assert_allclose(x, [[0, 1], [1, 0]], atol=1e-15)
        y = xz(1, 2, [1], [1]).matrix()
        np.testing.assert_allclose(y, [[0, -1], [1, 0]], atol=1e-15)

    def test_qutrit_kron_oracle(self):
        got = xz(2, 3, [1, 0], [0, 2]).matrix()
        x = np.roll(np.eye(3), 1, axis=0)
        z2 = np.diag(np.exp(2j * np.pi * np.arange(3) * 2 / 3))
        np.testing.assert_allclose(got, np.kron(x, z2), atol=1e-12)

    def test_projective_homomorphism(self, rng):
        # matrix(a) matrix(b) equals matrix(a compose b) including phase
        for _ in range(25):
            d = int(rng.choice([2, 3]))
            n = 2
            a = xz(n, d, rng.integers(0, d, n), rng.integers(0, d, n), int(rng.integers(0, 2 * d)))
            b = xz(n, d, rng.integers(0, d, n), rng.integers(0, d, n), int(rng.integers(0, 2 * d)))
            np.testing.assert_allclose(
                a.matrix() @ b.matrix(), a.compose(b).matrix(), atol=1e-10
            )

    def test_matrix_round_trip(self, rng):
        for _ in range(10):
            d, n = 3, 2
            p = xz(n, d, rng.integers(0, d, n), rng.integers(0, d, n), int(rng.integers(0, 2 * d)))
            v, w, phase = match_pauli_matrix(p.matrix(), n, d)
            assert (v, w) == (p.v, p.w)
            assert abs(phase - p.phase) < 1e-12


class TestAdmissibility:
    def test_ghz_style_map_admissible(self):
        m = PartialCliffordMap(
            3,
            2,
            (
                (xz(3, 2, [1, 0, 0], [0, 0, 0]), xz(3, 2, [1, 1, 1], [0, 0, 0])),
                (xz(3, 2, [0, 0, 0], [1, 0, 0]), xz(3, 2, [0, 0, 0], [1, 1, 1])),
            ),
        )
        assert check_admissible(m).admissible

    def test_commuting_targets_fail(self):
        m = PartialCliffordMap(
            2,
            2,
            (
                (xz(2, 2, [1, 0], [0, 0]), xz(2, 2, [1, 1], [0, 0])),
                (xz(2, 2, [0, 0], [1, 0]), xz(2, 2, [0, 0], [0, 0])),
            ),
        )
        rep = check_admissible(m)
        assert not rep.commutation_ok

    def test_order_condition(self):
        # bare XZ squares to -I (order 4): fails; i XZ squares to +I: passes
        bad = PartialCliffordMap(
            1, 2, ((xz(1, 2, [0], [1]), xz(1, 2, [1], [1], 0)),)
        )
        rep = check_admissible(bad)
        assert not rep.order_ok
        # explicit matrix power oracle
        m = xz(1, 2, [1], [1], 0).matrix()
        np.testing.assert_allclose(m @ m, -np.eye(2), atol=1e-12)
        good = PartialCliffordMap(
            1, 2, ((xz(1, 2, [0], [1]), xz(1, 2, [1], [1], 1)),)
        )
        assert check_admissible(good).order_ok
        m = xz(1, 2, [1], [1], 1).matrix()
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), d=st.integers(2, 7), n=st.integers(1, 4))
    def test_closed_form_order_matches_the_power(self, data, d, n):
        """(e^{i pi p / d} XZ(v, w))^d = I exactly when p + (d - 1) v.w is even, composite d included;
        ``power`` composes d factors one at a time."""
        digits = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
        v, w = data.draw(digits), data.draw(digits)
        p = data.draw(st.integers(0, 2 * d - 1))
        assert xz(n, d, v, w, p).has_order_d() == xz(n, d, v, w, p).power(d).is_identity()
        assert xz(n, d, v, w, qc._order_fixed_phase(d, v, w)).power(d).is_identity()


class TestSynthesis:
    def check_map(self, m):
        u = synthesize_clifford(m).data
        dim = m.d**m.n
        assert np.linalg.norm(u @ u.conj().T - np.eye(dim)) < 1e-9
        assert is_clifford(u, m.n, m.d)
        for src, tgt in m.images:
            got = u @ src.matrix() @ u.conj().T
            assert np.linalg.norm(got - tgt.matrix()) < 1e-9
        return u

    def test_ghz_style_broadcast_map(self):
        m = PartialCliffordMap(
            3,
            2,
            (
                (xz(3, 2, [1, 0, 0], [0, 0, 0]), xz(3, 2, [1, 1, 1], [0, 0, 0])),
                (xz(3, 2, [0, 0, 0], [1, 0, 0]), xz(3, 2, [0, 0, 0], [1, 1, 1])),
            ),
        )
        self.check_map(m)

    def test_identity_map_one_qudit(self):
        m = PartialCliffordMap(
            1,
            2,
            (
                (xz(1, 2, [1], [0]), xz(1, 2, [1], [0])),
                (xz(1, 2, [0], [1]), xz(1, 2, [0], [1])),
            ),
        )
        u = self.check_map(m)
        # any unitary commuting with X and Z is a phase; identity is acceptable
        assert np.linalg.norm(np.abs(u) - np.eye(2)) < 1e-9

    def test_qutrit_map(self):
        # X -> X x X, Z -> Z^2 x Z^2 preserves the commutator omega exactly
        m = PartialCliffordMap(
            2,
            3,
            (
                (xz(2, 3, [1, 0], [0, 0]), xz(2, 3, [1, 1], [0, 0])),
                (xz(2, 3, [0, 0], [1, 0]), xz(2, 3, [0, 0], [2, 2])),
            ),
        )
        self.check_map(m)

    def test_rejects_composite_dimension(self):
        m = PartialCliffordMap(
            1,
            4,
            (
                (xz(1, 4, [1], [0]), xz(1, 4, [1], [0])),
                (xz(1, 4, [0], [1]), xz(1, 4, [0], [1])),
            ),
        )
        with pytest.raises(NonPrimeDimensionError):
            synthesize_clifford(m)

    def test_rejects_inadmissible(self):
        m = PartialCliffordMap(
            1, 2, ((xz(1, 2, [0], [1]), xz(1, 2, [1], [1], 0)),)
        )
        with pytest.raises(InadmissibleMapError):
            synthesize_clifford(m)


class TestIsClifford:
    def test_hadamard(self):
        assert is_clifford(H2, 1, 2)

    def test_t_gate_is_not(self):
        assert not is_clifford(T_GATE, 1, 2)

    def test_cnot_with_spectator(self):
        u = np.kron(CNOT, np.eye(2))
        assert is_clifford(u, 3, 2)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            is_clifford(np.diag([1.0, 2.0]), 1, 2)


# -- the monomial layer against the dense path it replaced -----------------


def dense_synthesis(m):
    """The dense builder: U from d^n x d^n Pauli matrices and their products."""
    tx, tz = complete_tableau(m)
    n, d, dim = m.n, m.d, m.d**m.n
    proj = np.eye(dim, dtype=complex)
    for t in tz:
        tm = t.matrix()
        acc, stabsum = np.eye(dim, dtype=complex), np.zeros((dim, dim), dtype=complex)
        for _ in range(d):
            stabsum += acc
            acc = acc @ tm
        proj = proj @ (stabsum / d)
    phi0 = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    phi0 = fix_global_phase(phi0 / np.linalg.norm(phi0))
    pows = [[np.linalg.matrix_power(t.matrix(), x) for x in range(d)] for t in tx]
    u = np.empty((dim, dim), dtype=complex)
    for idx in range(dim):
        vec = phi0
        for k, x in enumerate(np.unravel_index(idx, (d,) * n)):
            vec = pows[k][x] @ vec
        u[:, idx] = vec
    return u


def dense_is_clifford(u, n, d):
    """Every U S U† (S = X_k, Z_k) has overlap dim with one of the d^2n dense strings."""
    dim = d**n
    strings = np.stack([xz(n, d, a[:n], a[n:]).matrix() for a in np.ndindex(*([d] * (2 * n)))])
    for k in range(n):
        for gen in (PauliVector.x_gen(n, d, k), PauliVector.z_gen(n, d, k)):
            conj = u @ gen.matrix() @ u.conj().T
            overlaps = np.abs(np.einsum("pij,ij->p", strings.conj(), conj))
            if not np.any(np.abs(overlaps - dim) < 1e-6 * dim):
                return False
    return True


def order_d_phase(v, w, d, r):
    """A phase exponent making (phase * XZ(v, w))^d the identity: parity of (d - 1) v.w, plus 2r."""
    return ((d - 1) * sum(x * y for x, y in zip(v, w))) % 2 + 2 * r


@st.composite
def admissible_maps(draw):
    """Random images of X_0 and Z_0 that keep their commutation and their order."""
    n, d = draw(st.integers(1, 5)), draw(st.sampled_from([2, 3]))
    vec = st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n)
    a, b = draw(vec.filter(any)), draw(vec)
    form = sum(a[n + k] * b[k] - a[k] * b[n + k] for k in range(n)) % d
    assume(form)
    # X_0 Z_0 = omega^(d-1) Z_0 X_0: scale b until the targets commute the same way
    b = [x * pow(form, -1, d) * (d - 1) % d for x in b]
    ra, rb = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    tx = xz(n, d, a[:n], a[n:], order_d_phase(a[:n], a[n:], d, ra))
    tz = xz(n, d, b[:n], b[n:], order_d_phase(b[:n], b[n:], d, rb))
    return PartialCliffordMap(n, d, ((PauliVector.x_gen(n, d, 0), tx), (PauliVector.z_gen(n, d, 0), tz)))


# Z_0 -> omega Z_0 leaves |0..0> outside the joint eigenstate, so synthesis
# projects every basis vector; the GHZ map projects |0..0> alone
SHIFTED_CLOCK = PartialCliffordMap(2, 3, (
    (xz(2, 3, [1, 0], [0, 0]), xz(2, 3, [1, 0], [0, 0])),
    (xz(2, 3, [0, 0], [1, 0]), xz(2, 3, [0, 0], [1, 0], 2)),
))
GHZ = PartialCliffordMap(3, 2, (
    (xz(3, 2, [1, 0, 0], [0, 0, 0]), xz(3, 2, [1, 1, 1], [0, 0, 0])),
    (xz(3, 2, [0, 0, 0], [1, 0, 0]), xz(3, 2, [0, 0, 0], [1, 1, 1])),
))


class TestMonomials:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), d=st.sampled_from([2, 3, 5]))
    def test_monomial_reproduces_the_dense_matrix(self, data, n, d):
        digits = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
        p = xz(n, d, data.draw(digits), data.draw(digits), data.draw(st.integers(0, 2 * d - 1)))
        perm, phases = p.monomial()
        dim = d**n
        dense = np.zeros((dim, dim), dtype=complex)
        dense[perm, np.arange(dim)] = phases
        np.testing.assert_allclose(dense, p.matrix(), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(m=admissible_maps())
    @example(m=SHIFTED_CLOCK)
    @example(m=GHZ)
    def test_synthesis_equals_the_dense_builder(self, m):
        u = synthesize_clifford(m).data
        assert np.abs(u - dense_synthesis(m)).max() < 1e-12

    def test_image_residual_is_the_conjugation_distance(self, rng):
        u = random_unitary(9, rng)
        src, tgt = xz(2, 3, [1, 0], [0, 2]), xz(2, 3, [2, 1], [1, 0], 3)
        dense = np.linalg.norm(u @ src.matrix() @ u.conj().T - 1j * tgt.matrix())
        assert abs(image_residual(u, src, tgt, 1j) - dense) < 1e-12

    def test_is_clifford_agrees_with_the_dense_oracle(self, rng):
        qutrit_fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
        cases = [
            (H2, 1, 2), (T_GATE, 1, 2), (np.kron(CNOT, np.eye(2)), 3, 2),
            (np.kron(T_GATE, H2), 2, 2), (qutrit_fourier, 1, 3),
            (np.diag([1, 1, np.exp(0.3j)]), 1, 3),
            (np.kron(qutrit_fourier, np.diag([1, 1, np.exp(2j * np.pi / 9)])), 2, 3),
            (synthesize_clifford(GHZ).data, 3, 2), (synthesize_clifford(SHIFTED_CLOCK).data, 2, 3),
        ]
        cases += [(random_unitary(d**n, rng), n, d) for n, d in ((1, 2), (2, 2), (1, 3), (2, 3))]
        verdicts = [is_clifford(u, n, d) for u, n, d in cases]
        assert verdicts == [dense_is_clifford(np.asarray(u, dtype=complex), n, d) for u, n, d in cases]
        assert verdicts.count(True) == 5

    def test_match_pauli_matrix_refuses_a_near_miss(self):
        m = xz(2, 3, [1, 2], [0, 1], 1).matrix()
        assert match_pauli_matrix(m, 2, 3) is not None
        m[4, 3] += 1e-3
        assert match_pauli_matrix(m, 2, 3) is None

    def test_no_dense_pauli_matrix_is_built(self, monkeypatch, capsys, wh2):
        def refuse(self):
            raise AssertionError("dense Pauli matrix built")

        monkeypatch.setattr(PauliVector, "matrix", refuse)
        u = synthesize_clifford(GHZ).data
        assert is_clifford(u, 3, 2)
        form = clifford_magic_decompose(split_polar(aklt_tensor()))
        assert not is_stabilizer_state(form.psi, 2, 2)
        clifford_magic_decompose(peps_split_polar(topo_solution(wh2, [1.0, 0.0, 1.0, 0.0])))
        spec = {"n": 3, "d": 2, "images": [
            {"source": src.to_json(), "target": tgt.to_json()} for src, tgt in GHZ.images]}
        assert cli.dispatch(["clifford-synth", "--map", json.dumps(spec)]) == 0
        assert '"images_reproduced"' in capsys.readouterr().out

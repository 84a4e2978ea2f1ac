import numpy as np
import pytest

from mftn.basis import weyl_heisenberg_basis

# the benchmark's 3 x 3 patch: each quadrant drains to its own corner
FOUR_CORNER_3X3 = [["ul", "ur", "ur"], ["ul", "ur", "ur"], ["dl", "dr", "dr"]]


@pytest.fixture(scope="session")
def wh2():
    return weyl_heisenberg_basis(2)


@pytest.fixture(scope="session")
def wh3():
    return weyl_heisenberg_basis(3)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def x_power_alpha(basis, charge=0):
    """alpha_i = omega_k^i on the X-power subgroup {X^i}."""
    D = basis.dim
    alpha = np.zeros(len(basis.elements), dtype=complex)
    x = basis.element("X")
    cur = np.eye(D, dtype=complex)
    for i in range(D):
        idx, _ = basis.resolve(cur)
        alpha[idx] = np.exp(2j * np.pi * charge * i / D)
        cur = x @ cur
    return alpha


def site_stacks(family):
    """The (d, D, D) site stacks of a chain of MPS tensors, as ``chain_state`` takes them."""
    return [np.stack(t.site_matrices()) for t in family]

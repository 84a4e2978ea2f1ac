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


def site_stacks(family):
    """The (d, D, D) site stacks of a chain of MPS tensors, as ``chain_state`` takes them."""
    return [np.stack(t.site_matrices()) for t in family]

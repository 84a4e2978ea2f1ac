import importlib.util
import sys
from pathlib import Path

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


def perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path and only read: the benchmark is no package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module

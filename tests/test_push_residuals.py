"""MF tensors are values: their pushes are fixed when they are built, and each
tensor computes its push residuals (``MFTensor.push_residuals``) at most once,
whatever tol and whichever caller judges them."""

import contextlib
import io
import json

import numpy as np
import pytest

from mftn import cli
from mftn.fixtures import aklt_tensor
from mftn.mps import MFTensor, MPSTensor, check_mf_symmetry
from mftn.peps import check_peps_mf_symmetry, topo_solution
from mftn.tensors import DenseTensor

from conftest import random_complex, x_power_alpha

X3 = [[1, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0]]
ALPHA2 = json.dumps([[1, 0], [0.5, 0], [0.2, 0.1], [0.3, 0]])
STRING = json.dumps([{"n": 2, "d": 2, "v": [1, 0], "w": [0, 0]}, {"n": 2, "d": 2, "v": [0, 1], "w": [0, 0]}])


def _perturbed_aklt(rng, size):
    """AKLT's data moved by ``size`` (relative), with AKLT's pushes: residuals of about size."""
    a = aklt_tensor()
    data = a.tensor.data + size * np.linalg.norm(a.tensor.data) * random_complex(rng, *a.tensor.shape)
    return MPSTensor(DenseTensor(data, a.tensor.legs), a.basis, a.constraints)


class TestImmutable:
    def test_constraint_tuples_refuse_assignment(self, wh2):
        mps, peps = aklt_tensor(), topo_solution(wh2, x_power_alpha(wh2))
        for constraints in (mps.constraints, peps.constraints_a, peps.constraints_b):
            assert isinstance(constraints, tuple)
            with pytest.raises(TypeError):
                constraints[0] = constraints[1]

    def test_attributes_are_set_once(self, wh2):
        mps, peps = aklt_tensor(), topo_solution(wh2, x_power_alpha(wh2))
        for tensor, name in ((mps, "constraints"), (mps, "tensor"), (peps, "constraints_a"),
                             (peps, "constraints_b"), (peps, "basis")):
            with pytest.raises(AttributeError):
                setattr(tensor, name, getattr(tensor, name))


class TestOneVerdictManyTols:
    def test_two_tols_read_the_same_residuals(self, rng):
        a = _perturbed_aklt(rng, 1e-6)
        loose, tight = check_mf_symmetry(a, 1e-3), check_mf_symmetry(a, 1e-9)
        assert loose.residuals == tight.residuals == list(a.push_residuals)
        assert 1e-9 < loose.max_residual < 1e-3
        assert loose.passed and not tight.passed

    def test_a_report_is_a_copy(self, rng):
        a = _perturbed_aklt(rng, 1e-6)
        first = check_mf_symmetry(a)
        first.residuals[:] = [0.0] * len(first.residuals)
        assert not check_mf_symmetry(a).passed
        assert check_mf_symmetry(a).residuals == list(a.push_residuals) != first.residuals

    def test_peps_report_reads_the_carried_residuals(self, wh2):
        q = topo_solution(wh2, x_power_alpha(wh2))
        assert len(q.push_residuals) == len(q.constraints_a) + len(q.constraints_b)
        assert check_peps_mf_symmetry(q, 1e-12).residuals == list(q.push_residuals)


@pytest.fixture()
def evaluations(monkeypatch):
    """How many times ``push_residuals`` is computed, across all tensors."""
    prop = MFTensor.__dict__["push_residuals"]
    count, func = [0], prop.func

    def counting(self):
        count[0] += 1
        return func(self)

    monkeypatch.setattr(prop, "func", counting)
    return count


@pytest.mark.parametrize("argv, want", [
    # Q in topo_solution (read again by the handler and peps_split_polar) and A in complete_with_isometry
    pytest.param(["check-peps", "--basis", "WH:3", "--alpha", json.dumps(X3)], 2, id="check-peps"),
    # Q, and A in complete_with_isometry (read again by the patch's push tables)
    pytest.param(["simulate", "--peps", json.dumps({"basis": "WH:3", "alpha": X3}), "--rows", "2",
                  "--cols", "2", "--trials", "2"], 2, id="simulate-peps"),
    # one tensor at every site, validated by the enumeration and by each of three trials
    pytest.param(["simulate", "--chain", "aklt", "--sites", "5", "--enumerate", "--trials", "3"], 1,
                 id="simulate-chain"),
    pytest.param(["expect", "--alpha", ALPHA2, "--string", STRING, "--basis", "WH:2"], 1, id="expect"),
    pytest.param(["spt", "--alpha", ALPHA2, "--basis", "WH:2"], 1, id="spt"),
])
def test_each_tensor_is_judged_once_per_command(evaluations, argv, want):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.dispatch(argv) == 0
    assert evaluations[0] == want

"""Span arithmetic and attribute restoration of the benchmark's tracer."""

import sys
import types

import numpy as np
import pytest

import spans

FAKE_TARGETS = ("layer.outer", "layer.inner", "layer.Box.method", "layer.Box.prop")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake(monkeypatch):
    """A package whose functions advance a fake clock by known amounts."""
    clock = FakeClock()
    layer = types.ModuleType("fakepkg.layer")
    other = types.ModuleType("fakepkg.other")

    def inner():
        clock.now += 3.0

    def outer(fail=False):
        clock.now += 1.0
        layer.inner()
        clock.now += 2.0
        other.inner()
        clock.now += 4.0
        if fail:
            raise RuntimeError("deliberate")
        return np.zeros(4)

    class Box:
        def method(self):
            clock.now += 5.0
            return self.prop

        @property
        def prop(self):
            clock.now += 0.5

    layer.inner, layer.outer, layer.Box = inner, outer, Box
    other.inner = inner  # the same function bound in a second module
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.layer", layer)
    monkeypatch.setitem(sys.modules, "fakepkg.other", other)
    originals = {"inner": inner, "outer": outer, "method": vars(Box)["method"],
                 "prop": vars(Box)["prop"]}
    return types.SimpleNamespace(clock=clock, layer=layer, other=other, originals=originals)


def assert_fake_restored(fake):
    assert fake.layer.inner is fake.originals["inner"]
    assert fake.other.inner is fake.originals["inner"]
    assert fake.layer.outer is fake.originals["outer"]
    assert vars(fake.layer.Box)["method"] is fake.originals["method"]
    assert vars(fake.layer.Box)["prop"] is fake.originals["prop"]


def test_self_time_subtracts_wrapped_children(fake):
    with spans.Tracer(FAKE_TARGETS, package="fakepkg", clock=fake.clock) as tracer:
        fake.layer.outer()
        fake.layer.Box().method()
    s = tracer.stats
    assert (s["layer.inner"].calls, s["layer.inner"].total_s, s["layer.inner"].self_s) == (2, 6.0, 6.0)
    assert (s["layer.outer"].calls, s["layer.outer"].total_s, s["layer.outer"].self_s) == (1, 13.0, 7.0)
    assert (s["layer.Box.method"].total_s, s["layer.Box.method"].self_s) == (5.5, 5.0)
    assert (s["layer.Box.prop"].calls, s["layer.Box.prop"].self_s) == (1, 0.5)
    assert s["layer.inner"].none_results == 2 and s["layer.outer"].none_results == 0
    assert s["layer.outer"].out_bytes == 32
    assert_fake_restored(fake)


def test_attributes_restored_after_a_raise(fake):
    with pytest.raises(RuntimeError, match="deliberate"):
        with spans.Tracer(FAKE_TARGETS, package="fakepkg", clock=fake.clock) as tracer:
            fake.layer.outer(fail=True)
    assert tracer.stats["layer.outer"].calls == 1
    assert tracer.stats["layer.outer"].total_s == 13.0
    assert_fake_restored(fake)


def test_nested_tracer_refused_and_restored(fake):
    with spans.Tracer(FAKE_TARGETS, package="fakepkg", clock=fake.clock):
        with pytest.raises(RuntimeError, match="already traced"):
            with spans.Tracer(FAKE_TARGETS, package="fakepkg", clock=fake.clock):
                pass
        assert fake.layer.outer is not fake.originals["outer"]
    assert_fake_restored(fake)


def test_mftn_targets_wrapped_everywhere_and_restored(capsys):
    import mftn.cli

    def snapshot():
        owners = [m for n, m in sys.modules.items() if n == "mftn" or n.startswith("mftn.")]
        owners += [mftn.basis.MFBasis, mftn.tensors.DenseTensor, mftn.clifford.PauliVector,
                   mftn.protocol.PepsPatch]
        return [(owner, dict(vars(owner))) for owner in owners]

    before = snapshot()
    chain_state = mftn.mps.chain_state
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer() as tracer:
            assert mftn.mps.chain_state is not chain_state
            assert mftn.protocol.chain_state is mftn.mps.chain_state
            assert mftn.cli.dispatch(["mpo", "apply", "--sites", "2", "--seed", "1"]) == 0
            1 / 0
    capsys.readouterr()
    assert tracer.stats["cli.dispatch"].calls == 1
    assert tracer.stats["mpo.apply_mpo_via_protocol"].calls == 1
    for owner, attrs in before:
        for name, value in attrs.items():
            assert vars(owner)[name] is value, f"{owner.__name__}.{name}"

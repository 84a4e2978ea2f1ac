"""Every per-layer span target of the benchmark names a function in mftn.

The benchmark's tracer (perfbench/spans.py, loaded here by path and only
read) wraps each target by name, so a renamed or deleted function would
otherwise fail only a traced benchmark run.  Targets resolve as the tracer
resolves them: a module attribute, or an attribute a class defines itself.
"""

import importlib

from conftest import perfbench_module


def layer_targets():
    return list(perfbench_module("spans").LAYER_METRICS)


def resolve(target):
    module_name, qualname = target.split(".", 1)
    owner = importlib.import_module(f"mftn.{module_name}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        return vars(getattr(owner, owner_name)).get(attr)
    return getattr(owner, attr, None)


def test_every_span_target_resolves_in_mftn():
    targets = layer_targets()
    assert targets
    missing = [t for t in targets if not (callable(resolve(t)) or isinstance(resolve(t), property))]
    assert not missing, f"span targets missing from mftn: {missing}"

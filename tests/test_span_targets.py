"""Every per-layer span target of the benchmark names a function in mftn.

The benchmark's tracer (perfbench/spans.py, loaded here by path and only
read) wraps each target by name, so a renamed or deleted function would
otherwise fail only a traced benchmark run.  Targets resolve as the tracer
resolves them: a module attribute, or an attribute a class defines itself.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def layer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return list(module.LAYER_METRICS)


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

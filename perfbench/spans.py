"""Per-layer spans for the traced benchmark run, recorded from outside mftn.

A ``Tracer`` replaces each target function, method or property with a
timing wrapper in every module or class of the package that binds it (a
function imported into three modules is wrapped in all three), and puts the
originals back on exit, also when the traced code raises.  Spans are
aggregated in memory: calls, total and self time, results that were None,
and the bytes of returned arrays.  The tracer is single-threaded, as the
benchmark is.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass

# target ("<module>.<qualname>") -> the metric kinds the benchmark reports for it
LAYER_METRICS = {
    "tensors.state_fidelity": ("calls", "self_ms"),
    "tensors.DenseTensor.transpose_to": ("calls", "self_ms"),
    "tensors.procrustes_unitary": ("calls", "self_ms"),
    "tensors.polar_nd": ("calls", "self_ms"),
    "basis.MFBasis.resolve": ("calls", "self_ms"),
    "basis.MFBasis.try_resolve": ("calls", "misses"),
    "basis.MFBasis.identity_index": ("calls",),
    "basis.MFBasis.product_table": ("calls", "self_ms"),
    "basis.weyl_heisenberg_basis": ("calls", "self_ms"),
    "clifford.synthesize_clifford": ("calls", "self_ms"),
    "clifford.PauliVector.matrix": ("calls", "self_ms"),
    "clifford.match_pauli_matrix": ("calls", "self_ms"),
    "clifford.is_clifford": ("calls", "self_ms"),
    "mps.chain_state": ("calls", "self_ms", "out_mb"),
    "mps.complete_constraints": ("calls", "self_ms"),
    "mps.check_mf_symmetry": ("calls", "self_ms"),
    "mps.split_polar": ("total_ms",),
    "mps.clifford_magic_decompose": ("total_ms",),
    "peps.peps_split_polar": ("calls", "self_ms"),
    "peps.injectivity_check": ("self_ms",),
    "peps.check_peps_mf_symmetry": ("self_ms",),
    "peps.topo_solution": ("self_ms",),
    "peps.complete_with_isometry": ("self_ms",),
    "protocol.run_mps_protocol": ("calls", "self_ms"),
    "protocol.enumerate_outcomes": ("calls", "self_ms"),
    "protocol.PepsPatch.network_value": ("calls", "self_ms"),
    "protocol.PepsPatch.dense_state": ("calls", "self_ms", "out_mb"),
    "protocol.PepsPatch.push_table": ("calls",),
    "protocol.solve_push_table": ("calls", "self_ms"),
    "protocol.run_peps_protocol": ("calls", "self_ms"),
    "protocol.peps_fidelity": ("total_ms",),
    "mpo.apply_mpo_via_protocol": ("calls", "self_ms"),
    "mpo.direct_mpo_state": ("self_ms",),
    "cli.dispatch": ("calls", "self_ms"),
}

UNITS = {"calls": "count", "misses": "count", "self_ms": "ms", "total_ms": "ms", "out_mb": "MiB"}
DERIVED = {"protocol.push_table_hit_ratio": "ratio", "trace_overhead_frac": "ratio"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {f"{target}.{kind}": UNITS[kind]
             for target, kinds in LAYER_METRICS.items() for kind in kinds}
    units.update(DERIVED)
    return units


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    none_results: int = 0
    out_bytes: int = 0

    def counts(self) -> tuple:
        """The fields that must repeat exactly when the same items run again."""
        return self.calls, self.none_results, self.out_bytes


def _returned_bytes(result) -> int:
    """Bytes of a returned array, or of the array a returned tensor holds."""
    nbytes = getattr(result, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    nbytes = getattr(getattr(result, "data", None), "nbytes", 0)
    return nbytes if isinstance(nbytes, int) else 0


class Tracer:
    """Context manager that wraps ``targets`` of ``package`` while it is open."""

    def __init__(self, targets=tuple(LAYER_METRICS), package: str = "mftn",
                 clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.stats = {target: SpanStats() for target in targets}
        self._stack: list = []  # time covered by wrapped children, one entry per open span
        self._installed: list = []  # (owner, attribute, original)

    def __enter__(self) -> "Tracer":
        try:
            for target in self.stats:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def _install(self, target: str) -> None:
        module_name, qualname = target.split(".", 1)
        module = sys.modules[f"{self.package}.{module_name}"]
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name)
            original = vars(cls)[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(target, original.fget), original.fset,
                                   original.fdel, original.__doc__)
            else:
                wrapped = self._wrap(target, original)
            self._replace(cls, attr, original, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self._wrap(target, original)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, name, original, wrapped)

    def _replace(self, owner, attr: str, original, wrapped) -> None:
        if getattr(getattr(original, "fget", original), "_perfbench_span", False):
            raise RuntimeError(f"{owner.__name__}.{attr} is already traced")
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _restore(self) -> None:
        installed, self._installed = self._installed, []
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
        for owner, attr, original in installed:
            if vars(owner).get(attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")

    def _wrap(self, target: str, fn):
        stats, stack, clock = self.stats[target], self._stack, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            stats.none_results += result is None
            stats.out_bytes += _returned_bytes(result)
            return result

        span._perfbench_span = True
        return span


def layer_metrics(passes: list, untraced_s: list, traced_s: list) -> dict:
    """Per-layer metrics from the stats of repeated traced passes of one item list.

    Counts come from the first pass (the caller checks that they repeat);
    times are medians over passes.
    """
    first = passes[0]
    values = {}
    for target, kinds in LAYER_METRICS.items():
        for kind in kinds:
            if kind == "calls":
                value = first[target].calls
            elif kind == "misses":
                value = first[target].none_results
            elif kind == "out_mb":
                value = first[target].out_bytes / 2**20
            else:
                field = "self_s" if kind == "self_ms" else "total_s"
                value = statistics.median(getattr(p[target], field) for p in passes) * 1000
            values[f"{target}.{kind}"] = value
    pushes = first["protocol.PepsPatch.push_table"].calls
    solves = first["protocol.solve_push_table"].calls
    values["protocol.push_table_hit_ratio"] = 1 - solves / pushes if pushes else 0.0
    values["trace_overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    units = metric_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}

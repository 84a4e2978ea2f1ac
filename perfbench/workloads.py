"""Workloads of the mftn benchmark and the references their reports must meet.

An item is one ``mftn.cli.dispatch`` call, given as the argv a user would
type.  A workload repeats a cycle of items.  Every cycle holds the same mix
of item kinds, so whole cycles cost the same whatever the seed; the seed
chooses the protocol seeds, the item order, the interpolation parameter and
the Clifford images, none of which changes the cost of an item.

Mixes are chosen so that the run's median item falls inside one kind's
group and the tail item (ten items beyond it) inside the slowest kind that
has more than ten items in a run; a boundary between two kinds would make
those figures jump from seed to seed.

This module uses only the standard library: the references below are held
here, not computed with the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

FIDELITY_FLOOR = 1 - 1e-9
PROBABILITY_TOL = 1e-9
MPO_MAX_SITES = 4  # `mftn mpo apply` clamps larger requests to 4 sites without saying so

# Born-exact success probability of the periodic AKLT chain, (1 + 3^-n) / 4
PERIODIC_AKLT_SUCCESS = {3: 7 / 27, 5: 61 / 243}

FOUR_CORNER_3X3 = [["ul", "ur", "ur"], ["ul", "ur", "ur"], ["dl", "dr", "dr"]]
SPLIT_CHECKS = ("peps_mf_symmetry", "isometry_condition", "q_commutants", "clifford_form")


@dataclass
class Item:
    kind: str
    argv: list
    checks: tuple  # report checks that must be present and pass
    exact: dict = field(default_factory=dict)  # outputs; floats to PROBABILITY_TOL
    floor: dict = field(default_factory=dict)  # outputs with a lower bound


def verify(item: Item, code, report, tolerance: float) -> list:
    """Problems with one item's outcome; an empty list means it passed."""
    problems = [] if code == 0 else [f"exit code {code}"]
    if not isinstance(report, dict):
        return problems + ["no JSON report"]
    if report.get("command") != item.argv[0]:
        problems.append(f"report is for command {report.get('command')!r}")
    if report.get("tolerance") != tolerance:
        problems.append(f"report ran at tolerance {report.get('tolerance')!r}")
    passed = {c["name"]: c["passed"] for c in report.get("checks", [])}
    problems += [f"check {name} failed" for name, ok in passed.items() if not ok]
    problems += [f"check {name} missing" for name in item.checks if name not in passed]
    outputs = report.get("outputs", {})
    for key, want in item.exact.items():
        got = outputs.get(key)
        if isinstance(want, float):
            ok = isinstance(got, (int, float)) and abs(got - want) <= PROBABILITY_TOL
        else:
            ok = type(got) is type(want) and got == want
        if not ok:
            problems.append(f"output {key} = {got!r}, reference {want!r}")
    for key, low in item.floor.items():
        got = outputs.get(key)
        if not isinstance(got, (int, float)) or got < low:
            problems.append(f"output {key} = {got!r}, below {low!r}")
    return problems


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _wh_alpha(D: int, support, value=1.0, rest=0.0):
    """Alpha over Weyl-Heisenberg labels X^v Z^w in the CLI order v * D + w."""
    return [[value if (v, w) in support else rest, 0.0] for v in range(D) for w in range(D)]


def _x_powers(D: int):
    return {(v, 0) for v in range(D)}


def chain(rng, sites: int, boundary: str = "open") -> Item:
    argv = ["simulate", "--chain", "aklt", "--sites", str(sites), "--seed", _seed(rng)]
    if boundary == "open":
        return Item("open%d" % sites, argv, ("deterministic_success",),
                    exact={"success_rate": 1.0},
                    floor={"worst_success_fidelity": FIDELITY_FLOOR})
    # the periodic check is only `ran: true`; a failed trial leaves the fidelity at 1
    return Item("periodic%d" % sites, argv + ["--boundary", "periodic"], ("ran",),
                floor={"worst_success_fidelity": FIDELITY_FLOOR})


def enumeration(rng, tensor: str, sites: int, boundary: str = "open") -> Item:
    argv = ["simulate", "--chain", tensor, "--sites", str(sites), "--enumerate",
            "--boundary", boundary, "--seed", _seed(rng)]
    if boundary == "open":
        checks = ("probabilities_normalized", "deterministic_success")
        exact = {"success_probability": 1.0, "correctable_fraction": 1.0}
    else:
        checks = ("probabilities_normalized", "ran")
        # one tuple in D^2 = 4 merges to the identity defect
        exact = {"success_probability": PERIODIC_AKLT_SUCCESS[sites], "correctable_fraction": 0.25}
    return Item(f"enum-{tensor}-{boundary}{sites}", argv, checks, exact,
                {"worst_success_fidelity": FIDELITY_FLOOR})


def mpo_apply(rng, sites: int) -> Item:
    if sites > MPO_MAX_SITES:
        raise ValueError(f"mpo apply runs at most {MPO_MAX_SITES} sites")
    argv = ["mpo", "apply", "--basis", "WH:2", "--sites", str(sites), "--seed", _seed(rng)]
    return Item(f"mpo{sites}", argv, ("matches_direct_action",))


def peps_patch(rng, kind: str, trials: int) -> Item:
    if kind == "toric3x3":
        spec = {"basis": "WH:2", "alpha": _wh_alpha(2, _x_powers(2)),
                "orientation": FOUR_CORNER_3X3}
        rows = cols = 3
    else:  # the Z3 toric patch
        spec = {"basis": "WH:3", "alpha": _wh_alpha(3, _x_powers(3))}
        rows = cols = 2
    argv = ["simulate", "--peps", json.dumps(spec), "--rows", str(rows), "--cols", str(cols),
            "--trials", str(trials), "--seed", _seed(rng)]
    return Item(f"{kind}-t{trials}", argv, ("all_trials_succeed",), exact={"trials": trials},
                floor={"worst_fidelity": FIDELITY_FLOOR})


def check_peps_wh3(rng) -> Item:
    alpha = json.dumps(_wh_alpha(3, _x_powers(3)))
    return Item("check-peps-wh3", ["check-peps", "--basis", "WH:3", "--alpha", alpha],
                SPLIT_CHECKS, exact={"rank": 27})


def check_peps_wh2(rng) -> Item:
    # alpha = 1 on {I, X} and a on {Z, XZ}; a = 0 is the toric code, rank 8 holds for a != 1
    a = round(rng.uniform(0.0, 0.9), 6)
    alpha = json.dumps(_wh_alpha(2, _x_powers(2), rest=a))
    return Item("check-peps-wh2", ["check-peps", "--basis", "WH:2", "--alpha", alpha],
                SPLIT_CHECKS, exact={"rank": 8})


def decompose_aklt(rng) -> Item:
    checks = ("polar_reconstruction", "null_space_match", "q_commutants",
              "correction_consistency", "clifford_magic_reconstruction")
    # AKLT maps the four virtual states onto spin 1 injectively, and is not a stabilizer state
    return Item("decompose-aklt", ["decompose-mps", "--tensor", "aklt"], checks,
                exact={"rank": 3, "psi_is_stabilizer": False})


def _pauli(n, d, vec, phase_exp=0):
    return {"n": n, "d": d, "v": list(vec[:n]), "w": list(vec[n:]), "phase_exp": phase_exp}


def _order_d_phase(rng, vec, n, d):
    """Phase exponent p (of e^{i pi p / d}) making (phase * X^v Z^w)^d the identity.

    The d-th power collects e^{i pi (d p + d (d - 1) v.w) / d}, so p must have the
    parity of (d - 1) v.w; the even part is free.
    """
    return ((d - 1) * sum(x * y for x, y in zip(vec[:n], vec[n:]))) % 2 + 2 * rng.randrange(d)


def admissible_map(rng, n: int, d: int) -> dict:
    """Random images of X_0 and Z_0 that keep their commutation and order."""
    while True:
        a = [rng.randrange(d) for _ in range(2 * n)]
        b = [rng.randrange(d) for _ in range(2 * n)]
        form = (sum(a[n + k] * b[k] - a[k] * b[n + k] for k in range(n))) % d
        if any(a) and form:
            break
    # X_0 Z_0 = w^(d-1) Z_0 X_0, so scale b until the targets commute the same way
    scale = pow(form, -1, d) * (d - 1) % d
    b = [x * scale % d for x in b]
    e = [1] + [0] * (2 * n - 1)
    f = [0] * n + [1] + [0] * (n - 1)
    return {"n": n, "d": d, "images": [
        {"source": _pauli(n, d, e), "target": _pauli(n, d, a, _order_d_phase(rng, a, n, d))},
        {"source": _pauli(n, d, f), "target": _pauli(n, d, b, _order_d_phase(rng, b, n, d))},
    ]}


GHZ_MAP = {"n": 3, "d": 2, "images": [
    {"source": _pauli(3, 2, [1, 0, 0, 0, 0, 0]), "target": _pauli(3, 2, [1, 1, 1, 0, 0, 0])},
    {"source": _pauli(3, 2, [0, 0, 0, 1, 0, 0]), "target": _pauli(3, 2, [0, 0, 0, 1, 1, 1])},
]}


def clifford_synth(rng, n: int, d: int, spec=None) -> Item:
    spec = spec or admissible_map(rng, n, d)
    return Item(f"synth-{n}x{d}", ["clifford-synth", "--map", json.dumps(spec)],
                ("admissible", "is_clifford", "images_reproduced"))


# name -> (makes a cycle, makes the warm-up item).  Latencies in the comments are
# medians of benchmark runs, single-threaded on a 2-vCPU Xeon VM, on the
# code this benchmark was written against.
WORKLOADS = {
    # dense verification of 10-12 site chains dominates (open12 ~1.0 s);
    # the median falls on open11, the tail on the open12 pair
    "chain-dense": (
        lambda rng: [chain(rng, 10), chain(rng, 11, "periodic"), chain(rng, 11),
                     chain(rng, 12), chain(rng, 12)],
        lambda rng: chain(rng, 10),
    ),
    # thousands of tiny contractions, basis lookups and defect sweeps;
    # median on the 3-site periodic and 4-site cluster enumerations (~60 ms),
    # tail on the 5-site periodic pair (~1.1 s)
    "chain-enum": (
        lambda rng: [mpo_apply(rng, 4), mpo_apply(rng, 4), enumeration(rng, "cluster", 4),
                     enumeration(rng, "aklt", 3, "periodic"), enumeration(rng, "aklt", 5),
                     enumeration(rng, "aklt", 5, "periodic"),
                     enumeration(rng, "aklt", 5, "periodic")],
        lambda rng: enumeration(rng, "aklt", 3, "periodic"),
    ),
    # PepsPatch.network_value and its einsum path search.  Trial counts spread
    # item latencies from ~0.12 to ~0.35 s, so the median moves smoothly with
    # machine speed instead of jumping between the fast and slow copies of one
    # latency; the tail falls on the two 4-trial kinds
    "peps-patch": (
        lambda rng: [peps_patch(rng, "toric3x3", t) for t in (1, 2, 3, 4)]
        + [peps_patch(rng, "z3-toric2x2", t) for t in (2, 3, 4)],
        lambda rng: peps_patch(rng, "toric3x3", 1),
    ),
    # the Clifford layer: one WH:3 split (~4.4 s) per cycle runs fewer than ten
    # times a run, so the tail falls on the 8-qubit syntheses; the median on
    # the 5-qutrit synthesis, between the fast items and the 8-qubit ones
    "clifford": (
        lambda rng: [check_peps_wh3(rng), check_peps_wh2(rng), decompose_aklt(rng),
                     clifford_synth(rng, 8, 2), clifford_synth(rng, 8, 2),
                     clifford_synth(rng, 8, 2), clifford_synth(rng, 5, 3),
                     clifford_synth(rng, 2, 3), clifford_synth(rng, 3, 2, GHZ_MAP)],
        lambda rng: check_peps_wh2(rng),
    ),
}


def cycle(workload: str, seed: int, index: int) -> list:
    """The index-th cycle of a workload, shuffled; the same for the same seed."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    items = WORKLOADS[workload][0](rng)
    rng.shuffle(items)
    return items


def warmup(workload: str, seed: int) -> Item:
    return WORKLOADS[workload][1](random.Random(f"{workload}:{seed}:warmup"))

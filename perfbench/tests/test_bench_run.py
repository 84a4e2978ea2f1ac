"""Failure accounting, global-state hygiene and the contract of the benchmark runner."""

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run
import spans
import workloads


@pytest.fixture
def tolerance():
    import mftn.tensors

    return mftn.tensors.DEFAULT_TOL


def failing_mix(rng):
    wrong = workloads.enumeration(rng, "aklt", 3, "periodic")
    wrong.exact["success_probability"] = 0.5  # a reference the output cannot meet
    bad_exit = workloads.Item("bad-exit", ["simulate", "--chain", "{not json"], ())
    return [workloads.mpo_apply(rng, 2), wrong, bad_exit]


def test_failed_items_counted_not_dropped(tolerance):
    outcomes = run.run_items(failing_mix(random.Random(0)), tolerance)
    assert [bool(o.problems) for o in outcomes] == [False, True, True]
    assert any("success_probability" in p for p in outcomes[1].problems)
    assert "exit code 3" in outcomes[2].problems
    assert run.latency_summary(outcomes, 2.0)["items_per_s"] == 0.5


@pytest.mark.parametrize("trace", [0, 1])
def test_main_reports_failures_in_fail_frac(monkeypatch, capsys, trace):
    for var in run.BLAS_ENV:  # main pins these; restore them afterwards
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny",
                        (failing_mix, lambda rng: workloads.mpo_apply(rng, 2)))
    monkeypatch.setattr(run, "setup_in_child", lambda workload, seed: 0.0)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == 2 * result["attempted"] // 3
    assert record["fail_frac"] == pytest.approx(2 / 3)
    assert record["problems"]
    names = run.END_TO_END if trace == 0 else spans.metric_units()
    assert set(result["metrics"]) == set(names)


def test_tolerance_mutation_fails_the_item_and_is_undone(tolerance):
    import mftn.tensors

    item = workloads.mpo_apply(random.Random(1), 2)
    item.argv += ["--tol", "1e-7"]
    outcome = run.run_item(item, tolerance)
    assert any("DEFAULT_TOL" in p for p in outcome.problems)
    assert mftn.tensors.DEFAULT_TOL == tolerance


def test_tail_has_ten_items_beyond():
    outcomes = [run.Outcome("k", ms / 1000, None, []) for ms in range(1, 31)]
    summary = run.latency_summary(outcomes, 1.0)
    assert summary["item_tail_ms"] == pytest.approx(20.0)
    assert summary["tail_items_beyond"] == 10
    assert summary["tail_percentile"] == pytest.approx(200 / 3)
    assert summary["item_p50_ms"] == pytest.approx(15.5)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_cycles_repeat_per_seed_and_keep_their_mix(name):
    first = workloads.cycle(name, 7, 0)
    assert [i.argv for i in first] == [i.argv for i in workloads.cycle(name, 7, 0)]
    other = workloads.cycle(name, 8, 3)
    assert Counter(i.kind for i in first) == Counter(i.kind for i in other)
    for item in first + other:
        assert "--tol" not in item.argv
        if item.argv[:2] == ["mpo", "apply"]:
            assert int(item.argv[item.argv.index("--sites") + 1]) <= workloads.MPO_MAX_SITES


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.metric_units()


def run_script(script, cwd, **env):
    return subprocess.run([sys.executable, str(script), "--workload", "peps-patch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=cwd, capture_output=True, text=True, timeout=120,
                          env={**os.environ, **env})


def test_refuses_to_run_with_mftn_tol_set():
    proc = run_script(run.HERE / "run.py", run.ROOT, MFTN_TOL="1e-7")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "MFTN_TOL" in proc.stderr


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_script(tmp_path / "perfbench" / "run.py", tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""

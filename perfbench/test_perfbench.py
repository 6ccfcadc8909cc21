"""Tests of the benchmark itself, on tiny instance lists.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def tiny_run(workload, seed, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                         "--trace", str(trace)], scale=TINY)
    assert code == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2].removeprefix("gate ")), json.loads(lines[-1])


def inputs(workload, seed):
    m = run.load_monoideal(ROOT)
    wl = workloads.make(workload, ROOT / run.WORKDIR / workload)
    plan = wl.build(m, random.Random(f"{workload}:{seed}"), TINY)
    return run.inputs_digest(wl, plan)


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_seed_fixes_the_inputs(workload):
    assert inputs(workload, 3) == inputs(workload, 3)
    assert inputs(workload, 3) != inputs(workload, 4)


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_tiny_run_passes_its_gate(workload):
    gate, result = tiny_run(workload, 1, 0)
    assert result["correct"], gate["notes"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert gate["sizes"]


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_traced_counts_repeat(workload):
    runs = [tiny_run(workload, 2, 1) for _ in range(2)]
    for gate, result in runs:
        assert result["correct"], gate["notes"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
              for _, result in runs]
    assert counts[0] == counts[1]
    assert runs[0][0]["verdict_digest"] == runs[1][0]["verdict_digest"]


def test_gate_fails_on_changed_answers_or_sizes():
    m = run.load_monoideal(ROOT)
    wl = workloads.make("sweeps", ROOT / run.WORKDIR / "sweeps")
    plan = wl.build(m, random.Random("sweeps:1"), TINY)
    result = run.run_instances(m, wl, plan)
    ok, report = run.gate(wl, plan, result)
    assert ok
    recorded = {"sizes": report["sizes"], "verdict_digests": {"1": report["verdict_digest"]}}
    assert run.gate(wl, plan, result, recorded, 1)[0]
    assert not run.gate(wl, plan, result, {**recorded, "verdict_digests": {"1": "0" * 16}}, 1)[0]
    fewer = {**recorded, "sizes": {**report["sizes"], "poly.ineq_systems": 1000}}
    assert not run.gate(wl, plan, result, fewer, 1)[0]


def test_verdicts_repeat_across_hash_seeds():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "sys.exit(run.main(['--workload', 'sweeps', '--seed', '5', "
            "'--seconds', '0'], scale=0.05))")
    gates = []
    for hash_seed in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
                              timeout=120)
        assert done.returncode == 0, done.stderr
        gates.append(json.loads(done.stdout.splitlines()[-2].removeprefix("gate ")))
    assert gates[0]["verdict_digest"] == gates[1]["verdict_digest"]


def test_no_result_without_the_package():
    # the benchmark's own directory holds no src/monoideal
    done = subprocess.run([sys.executable, "run.py", "--workload", "sweeps",
                           "--seed", "1", "--seconds", "1"], cwd=HERE,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_scaling():
    import speed
    assert speed.reference() > 0
    steady = speed.scales([speed.REFERENCE_S] * 40)
    assert steady == [1.0] * 40
    # a slow stretch of loop times scales the instances inside it down
    slow = speed.scales([speed.REFERENCE_S] * 40 + [2 * speed.REFERENCE_S] * 40)
    assert slow[0] == 1.0 and slow[-1] == 0.5

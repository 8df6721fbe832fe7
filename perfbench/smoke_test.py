"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/smoke_test.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def test_spec_matches_the_runner():
    assert [m["name"] for m in SPEC["workloads"]] == NAMES
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    plan = json.loads((HERE / "map.json").read_text())
    assert {row["metric"] for row in plan["layers"]} == set(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]
               if len(line.split()) >= 3}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    assert "fail_frac" in printed
    if trace:
        record = json.loads((HERE / "results" / f"{workload}.trace1.json").read_text())
        self_s = sum(v["value"] for k, v in result["metrics"].items()
                     if k.endswith(".self_s"))
        assert 0 < self_s <= record["traced_wall_s"]


def shape(workload: str, seed: int, size: str, rounds: int = 3) -> list:
    wl = workloads.WORKLOADS[workload](seed, size)
    wl.setup()
    out = []
    for r in range(rounds):
        ops = wl.round(r)
        out.append(sorted(
            (op.kind, len(op.args),
             tuple(sorted((len(w), sum(1 for x in w if x.is_z)) for w in op.words)))
            for op in ops))
    return out


@pytest.mark.parametrize("size", ["tiny", "full"])
@pytest.mark.parametrize("workload", NAMES)
def test_second_seed_gives_the_same_shape(workload, size):
    assert shape(workload, 1, size) == shape(workload, 2, size)
    first = workloads.WORKLOADS[workload](1, size)
    second = workloads.WORKLOADS[workload](2, size)
    if workload == "mc-trials":
        assert first.base != second.base
    else:
        assert [op.args for op in first.round(0)] != [op.args for op in second.round(0)]


PLANTS = {
    "freeness-sweep": ("mixed_cumulant_value", lambda word, n: Fraction(1)),
    "mc-trials": ("mc_exact", lambda word, n: 1e3),
    "cli-ops": ("cli_expected", lambda argv: "wrong"),
}


@pytest.mark.parametrize("workload", NAMES)
def test_planted_wrong_expected_value_fails(workload, monkeypatch):
    wl = workloads.WORKLOADS[workload](1, "tiny")
    wl.setup()
    ops, outputs, agreed, _, _ = run.closed_loop(wl, 0.5, wl.passes)
    assert all(agreed) and all(wl.check(ops, outputs))
    attr, wrong = PLANTS[workload]
    monkeypatch.setattr(workloads, attr, wrong)
    ok = wl.check(ops, outputs)
    assert ok.count(False) / len(ok) > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("freeness-sweep", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The benchmark's own tests (tiny sizes; about a minute on two cores).

    python3 -m pytest perfbench/tests/check_benchmark.py -q

Run from the repository root. The file name keeps it out of the
repository's tier-1 ``pytest`` collection.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from instance import run_instance  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stdout[-3000:] + process.stderr[-3000:]
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [w["name"] for w in spec["workloads"]] + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(END_TO_END.values()) + list(PER_LAYER.values()):
        assert UNIT.match(unit), unit
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run_prints_every_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "2", "--seconds", "1", "--size", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == END_TO_END[name]
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_reconciles(workload):
    result = _result(
        _bench("--workload", workload, "--seed", "2", "--seconds", "1", "--size", "tiny", "--trace", "1")
    )
    assert result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == PER_LAYER[name]
        assert entry["value"] >= 0, name
    shard_metrics = [result["metrics"][name]["value"] for name in PER_LAYER if name.startswith("shard.")]
    sharded = WORKLOADS[workload].entry == "sharded"
    assert all(shard_metrics) if sharded else not any(shard_metrics)


def test_same_seed_gives_identical_sim_metrics():
    args = ("--workload", "adversarial-congested-250", "--seconds", "1", "--size", "tiny")
    first = _result(_bench(*args, "--seed", "5"))["metrics"]
    second = _result(_bench(*args, "--seed", "5"))["metrics"]
    other = _result(_bench(*args, "--seed", "6"))["metrics"]
    sim = [name for name in END_TO_END if name.startswith("sim_")]
    assert [first[name] for name in sim] == [second[name] for name in sim]
    assert [first[name] for name in sim] != [other[name] for name in sim]


def test_self_times_are_never_negative_and_sum_to_the_loop_span():
    instance = run_instance(WORKLOADS["table2-original-100"], 7, size="tiny", trace=True)
    spans_ = instance["trace"]["spans"]
    assert all(entry["self_s"] >= 0 for entry in spans_.values())
    loop = spans_["engine.run"]["total_s"]
    inside = sum(
        entry["self_s"] for name, entry in spans_.items()
        if name not in ("setup.build_network", "setup.build_views", "metrics.snapshot")
    )
    assert inside == pytest.approx(loop, rel=1e-9)


def test_tracer_nesting_is_exact():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(1000))

    inner = tracer.span("net.send", leaf)

    def outer():
        inner()
        inner()
        return leaf()

    root = tracer.span("engine.run", outer)
    root()
    root()
    export = tracer.export()
    assert export["calls"] == {"engine.run": 2, "net.send": 4}
    assert all(ns >= 0 for ns in export["self_ns"].values())
    assert sum(export["self_ns"].values()) == export["total_ns"]["engine.run"]


def test_wrappers_are_removed_after_an_instance():
    from repro.net.network import Network
    from repro.simulation._core import Simulator

    before = (Network.send, Network.multicast, Simulator.run)
    run_instance(WORKLOADS["scale-3000"], 3, size="tiny", trace=True)
    assert (Network.send, Network.multicast, Simulator.run) == before


def test_refuses_to_run_without_the_program():
    # A checkout that holds only BENCHMARK.json and the benchmark's files,
    # made inside the (ignored) record directory so nothing leaves the tree.
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        process = _bench("--workload", "scale-3000", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert process.returncode != 0
    assert not process.stdout.strip()

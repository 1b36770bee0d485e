"""The benchmark's own tests.  Run from the repository root with
``python -m pytest hostbench/tests``; every workload here is shrunk."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import DigestRecorder, Spans, run_trial
from layers import LAYERS, LayerProfiler, layer_of
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
RUN = BENCH / "run.py"

#: small enough for a test, large enough to cross every protocol path
#: the full workload does (the alltoall keeps a multi-chunk round)
TINY = {"pingpong": 0.02, "mpi_alltoall_lossy": 0.13, "ring1024": 1 / 64}


def test_every_source_file_maps_to_a_named_layer():
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert files
    for f in files:
        layer = layer_of(str(f))
        assert layer in LAYERS and layer not in ("stdlib", "workload"), f
    assert layer_of(str(RUN)) == "workload"
    assert layer_of(json.__file__) == "stdlib"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_runs_pass_the_correctness_checks(name):
    t = run_trial(WORKLOADS[name], 3, Spans(), scale=TINY[name])
    assert t["attempted"] > 0 and t["failed"] == 0
    assert t["msgs"] > 0 and t["sim_us"] > 0 and t["events"] > 0
    assert 0.0 < t["goodput_ratio"] <= 1.0


def test_payload_corruption_is_counted_as_failed():
    wl = WORKLOADS["mpi_alltoall_lossy"](3, TINY["mpi_alltoall_lossy"])
    n = wl.nodes
    wl.received = [[[chunks[src][dst] + b"!" for src in range(n)]
                    for dst in range(n)] for chunks in wl.chunks]
    attempted, failed = wl.verify()
    assert failed == attempted == wl.msgs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_agree_on_simulated_outputs(name):
    plain = run_trial(WORKLOADS[name], 5, Spans(), scale=TINY[name],
                      digest=DigestRecorder())
    traced = run_trial(WORKLOADS[name], 5, Spans(), scale=TINY[name],
                       digest=DigestRecorder(), profiler=LayerProfiler())
    for key in ("sim_us", "events", "stale", "packets", "digest"):
        assert plain[key] == traced[key], key


_COUNTS = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
from harness import Spans, run_trial
from layers import LayerProfiler
from workloads import WORKLOADS
out = []
for name, scale in {tiny!r}.items():
    for _ in range(2):
        prof = LayerProfiler()
        run_trial(WORKLOADS[name], 9, Spans(), scale=scale, profiler=prof)
        out.append(prof.calls)
print(json.dumps(out))
"""


def test_call_counts_repeat_exactly_across_runs_and_hash_seeds():
    code = _COUNTS.format(bench=str(BENCH), src=str(ROOT / "src"),
                          tiny=TINY)
    runs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        p = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=600)
        assert p.returncode == 0, p.stderr
        runs.append(json.loads(p.stdout))
    assert runs[0] == runs[1]
    per_workload = runs[0]
    for first, second in zip(per_workload[::2], per_workload[1::2]):
        assert first == second
        assert first["obs"] == first["check"] == 0
        assert first["am"] > 0 and first["sim"] > 0
    mpi_counts = per_workload[2]
    assert mpi_counts["mpi"] > 0 and mpi_counts["faults"] > 0


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "hostbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_cli_prints_the_declared_metrics_and_a_json_last_line(trace,
                                                              section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    p = _cli(ROOT, "--workload", "pingpong", "--seed", "4", "--seconds", "0",
             "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    reported = {k: m["unit"] for k, m in result["metrics"].items()}
    assert reported == declared
    assert "manifest " in p.stdout
    if trace == "1":
        values = {k: m["value"] for k, m in result["metrics"].items()}
        assert values["obs.calls_per_msg"] == 0
        assert values["check.calls_per_msg"] == 0
        assert values["am.goodput_ratio"] == 1.0


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _cli(tmp_path, "--workload", "pingpong", "--seed", "1",
             "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout

"""Smoke the ``spam-bench perf`` suite and its golden-digest gate.

Full-size numbers live in the committed ``BENCH_simperf.json``; here we
prove the machinery: the workloads run, the report validates against the
``spam-bench/1`` schema, and the gate passes on the committed digests
and trips on any one of them altered.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.benchjson import make_report
from repro.bench.perf import (
    DIGEST_FIELDS,
    DIGEST_SIZES,
    WORKLOADS,
    check_regression,
    report_entries,
    run_determinism,
    run_perf,
)
from repro.obs.schema import validate_bench_report

COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_simperf.json"

_TINY_SIZES = {
    "pingpong": (60,),
    "bulk": (8_192, 1),
    "alltoall": (3, 2_048, 1),
    "soak": (6,),
}
_TINY_DIGESTS = {
    "pingpong": (40,),
    "bulk": (8_192, 1),
    "alltoall": (3, 2_048, 1),
    "soak": (4,),
}


@pytest.fixture(scope="module")
def tiny_run():
    return run_perf(quick=True, repeat=1, sizes=_TINY_SIZES,
                    digest_sizes=_TINY_DIGESTS)


@pytest.fixture(scope="module")
def committed():
    return json.loads(COMMITTED.read_text())


class TestSuite:
    def test_suite_runs_and_report_validates(self, tiny_run):
        for name in WORKLOADS:
            w = tiny_run["workloads"][name]
            assert w["events"] > 0
            assert w["adj_eps"] > 0
            assert w["sim_us"] > 0
            d = tiny_run["determinism"][name]
            assert len(d["digest"]) == 32
            assert d["events"] > 0
        report = make_report("simperf", report_entries(tiny_run),
                             extra=tiny_run)
        assert validate_bench_report(report) == []

    def test_regression_gate_self_and_doctored(self, tiny_run):
        assert check_regression(tiny_run, tiny_run) == []
        doctored = copy.deepcopy(tiny_run)
        doctored["determinism"]["pingpong"]["digest"] = "0" * 32
        problems = check_regression(tiny_run, doctored)
        assert len(problems) == 1 and "pingpong: digest" in problems[0]

    def test_regression_gate_flags_determinism_mismatch(self, tiny_run):
        for key in DIGEST_FIELDS:
            broken = copy.deepcopy(tiny_run)
            broken["determinism"]["soak"][key] = 1
            problems = check_regression(broken, tiny_run)
            assert problems and f"soak: {key}" in problems[0], key
        missing = copy.deepcopy(tiny_run)
        del missing["determinism"]["bulk"]
        assert any("bulk" in p for p in check_regression(missing, tiny_run))

    def test_gate_refuses_a_different_xfer_mode(self, tiny_run):
        other = dict(tiny_run, xfer_mode="rendezvous")
        problems = check_regression(other, tiny_run)
        assert problems and "xfer_mode" in problems[0]


def test_committed_digests_gate_the_current_engine(committed):
    # the committed file's determinism section is a set of golden
    # constants: this tree must reproduce them exactly, and altering any
    # single committed digest must fail the gate
    assert set(committed["determinism"]) == set(WORKLOADS)
    current = {"xfer_mode": committed["xfer_mode"],
               "determinism": run_determinism(DIGEST_SIZES)}
    assert check_regression(current, committed) == []
    for name in WORKLOADS:
        altered = copy.deepcopy(committed)
        altered["determinism"][name]["digest"] = "f" * 32
        problems = check_regression(current, altered)
        assert len(problems) == 1 and problems[0].startswith(name), problems


def test_determinism_digests_are_stable_within_scheduler():
    # same workload, same sizes -> same digest: the digest is a pure
    # function of the event order, so a committed one is meaningful
    a = run_determinism({"pingpong": (30,)})
    b = run_determinism({"pingpong": (30,)})
    assert a == b
    assert set(a) == {"pingpong"}

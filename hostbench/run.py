"""Host-cost benchmark of the simulator: end to end and per layer.

Run from the repository root::

    python3 hostbench/run.py --workload pingpong --seed 1 --seconds 30 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: after one
warm-up trial at the committed golden seed (whose simulated outputs must
match ``golden.json``), it repeats trials with inputs drawn from
``--seed`` until ``--seconds`` have passed and reports medians of their
process CPU seconds, and the peak resident memory of the process.
``--trace 1`` measures the per-layer metrics: it alternates an untraced
trial with a ``sys.setprofile``-traced one on the same inputs, and the
two must agree on every simulated output.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and the run manifest are written to ``hostbench/out/`` at exit.
See ``hostbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
import resource
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

#: the simulated outputs a behaviour-preserving change must keep exactly
GOLDEN_KEYS = ("sim_us", "events", "stale", "digest")

#: the golden warm-up trial's seed
GOLDEN_SEED = 0
#: fewest timed trials a run makes, however short ``--seconds`` is
MIN_TRIALS = 3
#: the metrics ``--trace 0`` reports in its JSON line
END_TO_END = ("setup_s", "run_s", "msgs_per_s", "peak_rss_mb")

#: which end-to-end metric each per-layer metric should move, and where
LAYER_EFFECTS = (
    ("<layer>.calls_per_msg", "run_s",
     "pingpong; mpi_alltoall_lossy for mpi, faults"),
    ("<layer>.self_share", "run_s",
     "the workload where that layer is largest"),
    ("sim.events_per_msg, sim.stale_per_msg", "run_s",
     "pingpong, mpi_alltoall_lossy"),
    ("hardware.build_s, hardware.bytes_per_node", "setup_s, peak_rss_mb",
     "ring1024"),
    ("hardware.packets_per_msg, hardware.rx_dropped", "run_s",
     "mpi_alltoall_lossy"),
    ("am.attach_s", "setup_s", "ring1024"),
    ("am.retransmissions_per_msg, am.nacks_per_msg, am.goodput_ratio",
     "run_s, sim_us", "mpi_alltoall_lossy"),
    ("mpi.attach_s, mpi.unexpected_share, mpi.rendezvous_share",
     "setup_s, run_s", "mpi_alltoall_lossy"),
    ("obs.calls_per_msg, check.calls_per_msg", "must stay 0",
     "every workload"),
    ("trace.overhead_x", "none: the cost of tracing itself",
     "every workload"),
)


def _git_sha() -> str:
    """The commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def manifest(args, repeats: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": repeats,
    }


def _golden_check(trial: dict, workload: str) -> list:
    """Compare the golden-seed trial with the committed values."""
    committed = json.loads(GOLDEN.read_text())["workloads"].get(workload)
    if committed is None:
        return [f"no committed golden values for {workload}"]
    return [f"{k}: committed {committed[k]!r}, measured {trial[k]!r}"
            for k in GOLDEN_KEYS if committed[k] != trial[k]]


def run_untraced(cls, args, spans, problems):
    from harness import DigestRecorder, run_trial

    golden = run_trial(cls, GOLDEN_SEED, spans, digest=DigestRecorder())
    for p in _golden_check(golden, args.workload):
        problems.append("behaviour change vs golden.json: " + p)
    subseeds = random.Random(args.seed)
    trials = []
    deadline = time.perf_counter() + args.seconds
    while len(trials) < MIN_TRIALS or time.perf_counter() < deadline:
        trials.append(run_trial(cls, subseeds.getrandbits(32), spans))
    rows = {}
    for name, unit, values in (
            ("setup_s", "s", [t["setup_s"] for t in trials]),
            ("run_s", "s", [t["run_s"] for t in trials]),
            ("msgs_per_s", "1/s", [t["msgs"] / t["run_s"] for t in trials])):
        q1, med, q3 = statistics.quantiles(values, n=4)
        rows[name] = (med, unit, f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows["peak_rss_mb"] = (rss_mb, "MB", "peak of the process")
    first = trials[0]
    note = f"first trial; events {first['events']}"
    if args.workload == "pingpong":
        rtt = first["sim_us"] / (first["msgs"] / 2)
        note += f"; RTT {rtt:.3f} us vs paper 51.0"
    rows["sim_us"] = (first["sim_us"], "us", note)
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    rows["failed_frac"] = (failed / attempted, "1",
                           f"{failed} of {attempted}")
    for name, (value, unit, note) in rows.items():
        print(f"{name:<14} {value:>14.6g} {unit:<4} {note}")
    print(f"golden seed {GOLDEN_SEED}: sim_us {golden['sim_us']!r} "
          f"events {golden['events']} digest {golden['digest']}")
    metrics = {k: {"value": rows[k][0], "unit": rows[k][1]}
               for k in END_TO_END}
    return len(trials), metrics, attempted, failed


def run_traced(cls, args, spans, problems):
    from harness import build_bytes_per_node, run_trial
    from layers import LAYERS, LayerProfiler

    seed = random.Random(args.seed).getrandbits(32)
    with spans.span("build_sp_machine", layer="hardware", tracemalloc=True):
        bytes_per_node = build_bytes_per_node(cls, seed)
    refs, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        refs.append(run_trial(cls, seed, spans))
        prof = LayerProfiler()
        traced.append(run_trial(cls, seed, spans, profiler=prof))
        traced[-1].update(calls=prof.calls, self_s=prof.self_s,
                          wall_s=prof.wall_s)
    first = refs[0]
    for t in refs + traced:
        for k in ("sim_us", "events", "stale", "packets"):
            if t[k] != first[k]:
                problems.append(f"traced/untraced trials differ on {k}: "
                                f"{t[k]!r} vs {first[k]!r}")
    calls = traced[0]["calls"]
    if any(t["calls"] != calls for t in traced):
        problems.append("per-layer call counts did not repeat exactly")
    for layer in ("obs", "check"):
        if calls[layer]:
            problems.append(f"{layer} layer made {calls[layer]} calls with "
                            f"its instrumentation off")
    msgs = first["msgs"]

    def med(key, ts=refs):
        return statistics.median(t[key] for t in ts)

    #: metric name -> (value, unit)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls_per_msg"] = (calls[layer] / msgs, "calls/msg")
        m[f"{layer}.self_share"] = (statistics.median(
            t["self_s"][layer] / t["wall_s"] for t in traced), "ratio")
    m.update({
        "sim.events_per_msg": (first["events"] / msgs, "events/msg"),
        "sim.stale_per_msg": (first["stale"] / msgs, "events/msg"),
        "hardware.build_s": (med("build_s"), "s"),
        "hardware.bytes_per_node": (bytes_per_node, "B"),
        "hardware.packets_per_msg": (first["packets"] / msgs, "packets/msg"),
        "hardware.rx_dropped": (first["rx_dropped"], "packets"),
        "am.attach_s": (med("am_attach_s"), "s"),
        "am.retransmissions_per_msg": (first["retransmissions"] / msgs,
                                       "packets/msg"),
        "am.nacks_per_msg": (first["nacks"] / msgs, "packets/msg"),
        "am.goodput_ratio": (first["goodput_ratio"], "ratio"),
        "mpi.attach_s": (med("mpi_attach_s"), "s"),
        "mpi.unexpected_share": (first.get("unexpected_share", 0.0),
                                 "ratio"),
        "mpi.rendezvous_share": (first.get("rendezvous_share", 0.0),
                                 "ratio"),
        "trace.overhead_x": (med("run_s", traced) / med("run_s"), "x"),
    })
    print(f"{'layer':<10} {'calls/msg':>12} {'self share':>11}")
    for layer in LAYERS:
        print(f"{layer:<10} {m[layer + '.calls_per_msg'][0]:>12.4f} "
              f"{m[layer + '.self_share'][0]:>11.4f}")
    metrics = {}
    for name, (value, unit) in m.items():
        metrics[name] = {"value": value, "unit": unit}
        if not name.endswith(("calls_per_msg", "self_share")):
            print(f"{name:<28} {value:>14.6g} {unit}")
    print(f"trace.overhead_x is traced over untraced run_s, median of "
          f"{len(traced)} pair(s)")
    print("per-layer metric -> end-to-end metric it should move (workload):")
    for layer_metric, e2e, where in LAYER_EFFECTS:
        print(f"  {layer_metric} -> {e2e} ({where})")
    attempted = sum(t["attempted"] for t in refs + traced)
    failed = sum(t["failed"] for t in refs + traced)
    return len(refs) + len(traced), metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from harness import Spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spans = Spans()
    problems = []
    runner = run_traced if args.trace else run_untraced
    repeats, metrics, attempted, failed = runner(
        WORKLOADS[args.workload], args, spans, problems)
    man = manifest(args, repeats)
    print("manifest " + json.dumps(man))
    for p in problems:
        print("FAIL " + p)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"manifest": man, "metrics": metrics,
                               "problems": problems,
                               "spans": spans.records}, indent=1))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

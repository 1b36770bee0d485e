"""Record the committed simulated outputs that ``run.py`` checks against.

Run from the repository root, only when a change is meant to alter the
simulated behaviour (and say so in its change notes)::

    python3 hostbench/record_golden.py

For each workload it runs the golden-seed trial with an event-order
digest recorder and writes ``sim_us``, the executed and stale event
counts and the digest to ``hostbench/golden.json``.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, GOLDEN_KEYS, GOLDEN_SEED, HERE, ROOT


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from harness import DigestRecorder, Spans, run_trial
    from workloads import WORKLOADS

    out = {"seed": GOLDEN_SEED, "workloads": {}}
    for name, cls in WORKLOADS.items():
        trial = run_trial(cls, GOLDEN_SEED, Spans(), digest=DigestRecorder())
        if trial["failed"]:
            print(f"{name}: {trial['failed']} operations failed",
                  file=sys.stderr)
            return 1
        out["workloads"][name] = {k: trial[k] for k in GOLDEN_KEYS}
        print(name, out["workloads"][name])
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

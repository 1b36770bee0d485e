"""Host-cost attribution to the program's layers, from outside the program.

A layer is one ``src/repro/<pkg>`` package.  The top-level modules
``repro/__init__.py`` and ``repro/cli.py`` form the ``cli`` layer, the
benchmark's own files form ``workload``, and everything else - the
standard library, third-party packages and every builtin or C function -
is ``stdlib``.

:class:`LayerProfiler` is a ``sys.setprofile`` hook (Python 3.11 has no
``sys.monitoring``).  It attributes each Python call to the layer of the
file that defines the called code, and each C call to ``stdlib``.  Time
between two profile events is charged to the layer on top of the call
stack, which is the same as a span's self time: its duration minus the
part its children cover.  Counts are exact and repeatable; times carry
the profiler's own overhead.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, List

#: every layer, in report order
LAYERS = ("sim", "hardware", "am", "mpi", "faults", "obs", "check",
          "mpl", "splitc", "apps", "bench", "cli", "stdlib", "workload")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str) -> str:
    """Name the layer that the file ``filename`` belongs to."""
    path = os.path.abspath(filename)
    if path.startswith(_BENCH_DIR + os.sep):
        return "workload"
    cut = path.rfind(_REPRO_MARK)
    if cut < 0:
        return "stdlib"
    parts = path[cut + len(_REPRO_MARK):].split(os.sep)
    if len(parts) == 1:
        return "cli"
    if parts[0] not in LAYERS:
        raise ValueError(f"{filename} is in no named layer")
    return parts[0]


class LayerProfiler:
    """Counts calls and self time per layer while installed."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.wall_s = 0.0
        self._by_code: Dict[object, str] = {}
        self._stack: List[str] = ["workload"]
        self._last = 0.0

    def _hook(self, frame, event, arg):
        now = time.perf_counter()
        stack = self._stack
        self.self_s[stack[-1]] += now - self._last
        if event == "call":
            code = frame.f_code
            layer = self._by_code.get(code)
            if layer is None:
                layer = self._by_code[code] = layer_of(code.co_filename)
            self.calls[layer] += 1
            stack.append(layer)
        elif event == "c_call":
            self.calls["stdlib"] += 1
            stack.append("stdlib")
        elif len(stack) > 1:
            stack.pop()
        self._last = time.perf_counter()

    def run(self, fn, *args):
        """Call ``fn(*args)`` with the hook installed; return its result."""
        t0 = self._last = time.perf_counter()
        sys.setprofile(self._hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)
            self.wall_s += time.perf_counter() - t0

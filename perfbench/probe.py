"""The two measurements that need isolation from the measured process.

* :func:`spin` -- a machine-speed probe that uses no repo code: a fixed
  ``heapq``/list/dict loop of about 0.3 s, run at the start and the end
  of every workload process.  It is reported (``calib.spin_s``,
  ``calib.drift``) and marks a run ``noisy``; it is never used to
  rescale a gated metric.
* ``python3 probe.py <workload> <seed>`` -- what a user pays before the
  first frame, measured in a fresh interpreter: import of the repro
  surface (NumPy pre-imported, as in any process that can call repro)
  and the workload's tiny warm-up job (lazy backend load, caches).
  :func:`setup_probe` runs it and parses the answer.
"""

from __future__ import annotations

import heapq
import json
import os
import subprocess
import sys
import time

__all__ = ["setup_probe", "spin"]

_HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(_HERE), "src")


def spin(n: int = 200_000) -> float:
    """Seconds for a fixed amount of interpreter work."""
    t0 = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    x = 1
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        table[x & 0xFFF] = i
        if i & 3 == 3:
            heapq.heappop(heap)
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> dict[str, float]:
    """Import + warm-up cost of ``workload`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), workload, str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _main(workload: str, seed: int) -> None:
    sys.path[:0] = [_HERE, SRC]
    from workloads import WORKLOADS, load_surface  # imports NumPy

    t0 = time.perf_counter()
    surface = load_surface()
    t1 = time.perf_counter()
    WORKLOADS[workload].warmup(surface, seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))


if __name__ == "__main__":
    _main(sys.argv[1], int(sys.argv[2]))

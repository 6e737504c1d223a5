"""Statistics, the printed report, and parent-vs-change comparison."""

from __future__ import annotations

import json
import os
import statistics
from typing import Any

__all__ = ["compare", "load_spec", "print_run", "quartiles"]

_HERE = os.path.dirname(os.path.abspath(__file__))
#: pairs of parent/change runs a ``better`` verdict needs
MIN_PAIRS = 10


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(os.path.join(os.path.dirname(_HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile and sample count.

    No tail percentile: 3-20 samples do not support one.
    """
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def print_run(doc: dict[str, Any]) -> None:
    """Every metric by name with its unit; host time and simulated time
    are labelled as such."""
    print(
        f"# {doc['workload']}  seed={doc['seed']} scale={doc['scale']} "
        f"iterations={doc['iterations']} work_unit={doc['work_unit']} "
        f"backend={doc['backend_effective']} knobs={','.join(doc['knobs_applied']) or '-'}"
    )
    for name, m in doc["end_to_end"].items():
        spread = ""
        if name in doc["iteration_samples"]:
            stats = quartiles(doc["iteration_samples"][name])
            spread = f"  [q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']}]"
        print(f"host  {name:<28} {m['value']:.6g} {m['unit']}{spread}")
    for name, m in doc.get("per_layer", {}).items():
        kind = "sim " if m["unit"] == "sim_s" else "count" if m["unit"] == "count" else "host"
        print(f"{kind:<5} {name:<28} {m['value']:.6g} {m['unit']}")
    calib = doc["calib"]
    print(
        f"info  calib.spin_s {calib['spin_s']:.4f} s, drift {calib['drift']:.3f}"
        f"{' NOISY (drift > 10 %)' if doc['noisy'] else ''}; "
        f"wall_s / calib.spin_s = {doc['end_to_end']['wall_s']['value'] / calib['spin_s']:.3f} "
        "(informational, never gated)"
    )
    print(
        f"info  failed_share {doc['failed']}/{doc['attempted']}"
        + "".join(f"\n      {line}" for line in doc["failures"])
    )


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------

def _load_runs(path: str) -> dict[str, dict[str, dict[str, Any]]]:
    """``{workload: {relative path: run document}}`` under ``path``."""
    files = []
    if os.path.isdir(path):
        for root, _, names in os.walk(path):
            files += [os.path.join(root, n) for n in names]
    else:
        files = [path]
    runs: dict[str, dict[str, dict[str, Any]]] = {}
    for name in sorted(files):
        if not name.endswith(".json") or name.endswith(".trace.json"):
            continue
        with open(name) as fh:
            doc = json.load(fh)
        runs.setdefault(doc["workload"], {})[os.path.relpath(name, path)] = doc
    return runs


def _values(runs: dict[str, dict[str, Any]], metric: str) -> list[float]:
    """One value per run; a single run falls back to its iterations."""
    if len(runs) == 1:
        (doc,) = runs.values()
        return doc["iteration_samples"].get(metric) or [doc["end_to_end"][metric]["value"]]
    return [doc["end_to_end"][metric]["value"] for doc in runs.values()]


def compare(path_a: str, path_b: str) -> int:
    """Print one row per workload x end-to-end metric: parent (A) against
    change (B).  Returns the number of ``worse`` rows.

    ``unresolved``: either side's quartile spread is wider than the
    bound, so the runs cannot tell.  ``worse``: B's median is worse than
    A's by more than the bound.  ``better``: B's median is better by more
    than A's own quartile spread and B wins at least nine tenths of at
    least ten pairs (runs at the same path under both directories).
    """
    spec = load_spec()
    runs_a, runs_b = _load_runs(path_a), _load_runs(path_b)
    worse = 0
    print(
        f"{'workload':<18}{'metric':<13}{'A median [q1, q3] n':<40}"
        f"{'B median [q1, q3] n':<40}{'B/A':>8}{'bound':>7}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            a = quartiles(_values(runs_a[workload], name))
            b = quartiles(_values(runs_b[workload], name))
            # positive = B is worse, as a share of A's median
            loss = sign * (b["median"] - a["median"]) / a["median"]
            spread_a = (a["q3"] - a["q1"]) / a["median"]
            spread_b = (b["q3"] - b["q1"]) / b["median"]
            pairs = [
                sign * (runs_b[workload][k]["end_to_end"][name]["value"]
                        - runs_a[workload][k]["end_to_end"][name]["value"])
                for k in runs_a[workload] if k in runs_b[workload]
            ]
            pairs = [d for d in pairs if d != 0]  # ties count for neither side
            wins = sum(d < 0 for d in pairs)
            if max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict = "worse"
                worse += 1
            elif -loss > spread_a and len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs):
                verdict = "better"
            else:
                verdict = "same"
            cell = "{median:.6g} [{q1:.6g}, {q3:.6g}] {n}"
            print(
                f"{workload:<18}{name:<13}{cell.format(**a):<40}{cell.format(**b):<40}"
                f"{b['median'] / a['median']:>8.4f}{bound:>7.2f}  {verdict}"
                + (f" ({wins}/{len(pairs)} pairs)" if len(pairs) >= 2 else "")
            )
    return worse

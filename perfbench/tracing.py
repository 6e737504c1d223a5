"""Per-layer attribution from outside: a ``cProfile`` hook + post-processor.

The traced pass runs one iteration with a :class:`cProfile.Profile`
enabled around the measured region, so no file under ``src/`` changes.
Class-level wrappers on ``Link.send`` / ``Host.deliver`` would not do:
the engine enters the layers through bound-method callbacks cached at
construction, so a wrapper is either missed or billed to ``engine``.

The post-processor turns the profile into layer aggregates -- an
iteration makes 1-6 M calls, so one record per span is not kept:

* every function defined under ``src/repro/`` is bucketed by file
  (:func:`layers.layer_of`);
* *foreign* code -- built-ins, NumPy, ctypes, the standard library --
  has no layer of its own: its self time is billed to the layer it ran
  on behalf of, found through the profile's caller edges;
* the layer-boundary spans are kept as an edge matrix
  (caller layer -> callee layer: calls, cumulative seconds).

``calls`` and ``entries`` are exact counts and repeat for a fixed seed;
the times are host times under roughly 2.4x profiler overhead, biased
toward call-heavy layers -- they say where a saving sits, never how big
it is.
"""

from __future__ import annotations

import cProfile
import os
from typing import Any

from layers import LAYERS, layer_of

__all__ = ["attribute", "traced_iteration"]

_HERE = os.path.dirname(os.path.abspath(__file__))


def traced_iteration(workload: Any, surface: Any, specs: list[dict[str, Any]],
                     repro_root: str) -> tuple[dict[str, Any], dict[str, Any]]:
    """One iteration with the profiler on around its measured region;
    returns the iteration and its per-layer attribution."""
    profiler = cProfile.Profile()
    iteration = workload.iteration(surface, specs, profiler)
    return iteration, attribute(profiler, repro_root)


def _native_layer(code: Any, repro_root: str) -> str | None:
    """Layer of a profiled function, or ``None`` for foreign code.

    The benchmark's own frames sit above every layer and count as
    ``other``; they own whatever foreign time they cause directly.
    """
    filename = getattr(code, "co_filename", None)
    if filename is None:
        return None  # a built-in: cProfile names it by string
    if filename.startswith(repro_root):
        return layer_of(filename[len(repro_root):])
    if filename.startswith(_HERE):
        return "other"
    return None


def _label(code: Any) -> str:
    if isinstance(code, str):
        return code
    return f"{os.path.basename(code.co_filename)}:{code.co_firstlineno}:{code.co_name}"


def attribute(profiler: cProfile.Profile, repro_root: str, top: int = 5) -> dict[str, Any]:
    """Aggregate a finished profile into per-layer numbers.

    Returns ``{"layers": {layer: {self_s, share, calls, entries}},
    "edges": [{from, to, calls, cum_s}], "top": {layer: [...]},
    "total_self_s": float}``.
    """
    repro_root = os.path.join(os.path.abspath(repro_root), "")
    entries = profiler.getstats()
    native = {e.code: _native_layer(e.code, repro_root) for e in entries}

    # callers[F] = [(P, cumulative seconds of F under P)] for foreign F
    callers: dict[Any, list[tuple[Any, float]]] = {}
    for e in entries:
        for sub in e.calls or ():
            if native.get(sub.code) is None:
                callers.setdefault(sub.code, []).append((e.code, sub.totaltime))

    owner_memo: dict[Any, dict[str, float]] = {}
    resolving: set[Any] = set()

    def owner(code: Any) -> dict[str, float]:
        """The layers a function runs on behalf of, as fractions."""
        layer = native.get(code)
        if layer is not None:
            return {layer: 1.0}
        memo = owner_memo.get(code)
        if memo is not None:
            return memo
        parents = callers.get(code)
        if not parents or code in resolving:
            return {"other": 1.0}  # a root, or foreign recursion
        resolving.add(code)
        total = sum(t for _, t in parents)
        shares: dict[str, float] = {}
        for parent, t in parents:
            weight = t / total if total > 0 else 1.0 / len(parents)
            for layer, frac in owner(parent).items():
                shares[layer] = shares.get(layer, 0.0) + weight * frac
        resolving.discard(code)
        owner_memo[code] = shares
        return shares

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    entered = dict.fromkeys(LAYERS, 0)
    edges: dict[tuple[str, str], list[float]] = {}
    per_function: dict[str, list[tuple[float, int, str]]] = {l: [] for l in LAYERS}
    foreign_seen: set[Any] = set()

    for e in entries:
        layer = native[e.code]
        if layer is not None:
            self_s[layer] += e.inlinetime
            calls[layer] += e.callcount
            per_function[layer].append((e.inlinetime, e.callcount, _label(e.code)))
        caller_label = layer if layer is not None else "other"
        for sub in e.calls or ():
            callee = native.get(sub.code)
            if callee is None:
                # foreign self time goes to whoever the *caller* works for
                foreign_seen.add(sub.code)
                for own, frac in owner(e.code).items():
                    self_s[own] += sub.inlinetime * frac
            elif callee != caller_label:
                entered[callee] += sub.callcount
                cell = edges.setdefault((caller_label, callee), [0, 0.0])
                cell[0] += sub.callcount
                cell[1] += sub.totaltime
    # foreign functions nobody was seen calling (the profiler's own
    # enable/disable frames)
    for e in entries:
        if native[e.code] is None and e.code not in foreign_seen:
            self_s["other"] += e.inlinetime

    total = sum(self_s.values())
    return {
        "total_self_s": total,
        "layers": {
            layer: {
                "self_s": self_s[layer],
                "share": self_s[layer] / total if total > 0 else 0.0,
                "calls": calls[layer],
                "entries": entered[layer],
            }
            for layer in LAYERS
        },
        "edges": [
            {"from": a, "to": b, "calls": int(c), "cum_s": t}
            for (a, b), (c, t) in sorted(edges.items())
        ],
        "top": {
            layer: [
                {"function": name, "self_s": t, "calls": n}
                for t, n, name in sorted(funcs, reverse=True)[:top]
            ]
            for layer, funcs in per_function.items()
        },
    }

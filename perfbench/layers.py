"""Per-layer host-time rollup of a cProfile run.

A layer is a ``repro`` package.  A function defined in a layer's package
charges its self time to that layer.  Any other function -- a C builtin
(``struct``, ``hashlib``, ``heapq``, ``len``) or a Python function outside
``repro`` (``random``) -- charges its self time to the layers of its
callers, split by how much of it each call edge accounted for.  Replacing
per-field ``struct`` calls therefore shows up as a drop in ``rpc.self_s``
rather than as time moving between a "builtins" bucket and ``rpc``.

Time that reaches no layer (the benchmark's own step loop,
``repro.ensemble``, ``repro.metrics``) lands in ``other``.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Dict, Tuple

__all__ = ["LAYERS", "STEP_FUNC", "rollup"]

LAYERS = (
    "sim", "net", "rpc", "nfs", "core", "dirsvc", "smallfile", "storage",
    "wal", "util", "obs", "workloads",
)
OTHER = "other"
#: (file suffix, function name) of the sim kernel's per-event step
STEP_FUNC = ("sim/engine.py", "step")


def _home_layer(filename: str, repro_root: Path):
    """The layer a function's source file belongs to, or None."""
    if filename.startswith("~") or filename.startswith("<"):
        return None  # C builtin or synthetic code
    try:
        rel = Path(filename).resolve().relative_to(repro_root)
    except ValueError:
        return None
    if len(rel.parts) > 1 and rel.parts[0] in LAYERS:
        return rel.parts[0]
    return OTHER  # a repro module outside the named layers


def rollup(stats: pstats.Stats, repro_root: Path):
    """Return ({layer: self seconds}, {layer: calls}, step calls).

    ``calls`` counts calls to functions defined in the layer's package,
    from any caller; it repeats exactly for a given workload and seed.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    home = {func: _home_layer(func[0], repro_root) for func in table}
    shares: Dict[Tuple, Dict[str, float]] = {}

    def share_of(func, visiting) -> Dict[str, float]:
        """How ``func``'s self time splits over layers (sums to 1)."""
        if home.get(func) is not None:
            return {home[func]: 1.0}
        if func in shares:
            return shares[func]
        # A recursive function's edge to itself says nothing about layers.
        callers = {
            c: edge for c, edge in (table[func][4] if func in table else {}).items()
            if c != func
        }
        if func in visiting or not callers:
            return {OTHER: 1.0}
        visiting.add(func)
        # Weight each caller by the self time it caused (falling back to
        # call counts when the profiler's clock saw no time at all).
        weights = {c: edge[2] for c, edge in callers.items()}
        if not sum(weights.values()):
            weights = {c: edge[1] for c, edge in callers.items()}
        total = sum(weights.values()) or 1.0
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, part in share_of(caller, visiting).items():
                out[layer] = out.get(layer, 0.0) + part * weight / total
        visiting.discard(func)
        shares[func] = out
        return out

    self_s = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    calls = {layer: 0 for layer in LAYERS + (OTHER,)}
    steps = 0
    for func, (_cc, nc, tt, _ct, _callers) in table.items():
        for layer, part in share_of(func, set()).items():
            self_s[layer] += tt * part
        if home[func] is not None:
            calls[home[func]] += nc
        if func[0].endswith(STEP_FUNC[0]) and func[2] == STEP_FUNC[1]:
            steps += nc
    return self_s, calls, steps

"""Per-layer figures from a traced run.

The layers are the modules of ``spinchannel``.  Counters that need an
argument or a result (grid size, matrix size, bytes) come from hooks keyed
by span name.  A hook whose function no longer exists never runs, and its
counters read 0; a hook that raises on a function that exists is a failed
check of the traced run (see ``Tracer.hook_errors``), never a silent 0.
"""

from __future__ import annotations

import os

LAYERS = ("model", "dynamics", "metrics", "experiments", "cli")


def _add(counters: dict, key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0) + amount


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _amplitude_series(counters, args, kwargs, result):
    grid = len(_arg(args, kwargs, 3, "times"))
    n = len(_arg(args, kwargs, 0, "decomp").eigenvalues)
    _add(counters, "dynamics.grid_points", grid)
    block = 16 * grid * n  # complex128 phase block, G x n
    counters["dynamics.phase_block_bytes_computed"] = max(counters.get("dynamics.phase_block_bytes_computed", 0), block)


def _eigendecompose(counters, args, kwargs, result):
    _add(counters, "dynamics.eigh_n3_computed", len(result.eigenvalues) ** 3)


def _time_scan(counters, args, kwargs, result):
    _add(counters, "experiments.scans", 1)
    _add(counters, "experiments.windows_extended", int(bool(result.extended)))


def _load_coupling_matrix(counters, args, kwargs, result):
    _add(counters, "model.load_coupling_matrix.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _run(counters, args, kwargs, result):
    _add(counters, "cli.bytes_written", sum(os.path.getsize(path) for path in result))


HOOKS = {
    "dynamics.amplitude_series": _amplitude_series,
    "dynamics.eigendecompose": _eigendecompose,
    "experiments.time_scan": _time_scan,
    "model.load_coupling_matrix": _load_coupling_matrix,
    "cli.run": _run,
}


def figures(table: dict, counters: dict, passes: int) -> dict[str, float]:
    """Every per-layer figure, per pass: ``<layer>.<function>.{calls,self_s}``,
    ``<layer>.{calls,self_s}`` and the counters and ratios."""
    out: dict[str, float] = {}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        if layer not in LAYERS:
            continue
        out[f"{name}.calls"] = row["calls"] / passes
        out[f"{name}.self_s"] = row["self_s"] / passes
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0.0) + row["calls"] / passes
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + row["self_s"] / passes
    for key, value in counters.items():
        out[key] = value if key == "dynamics.phase_block_bytes_computed" else value / passes
    scans = out.get("experiments.scans", 0.0)
    refines = out.get("experiments.refine_peak.calls", 0.0)
    out["experiments.refine_useful_ratio"] = 2.0 * scans / refines if refines else 0.0
    out["experiments.window_extended_ratio"] = out.get("experiments.windows_extended", 0.0) / scans if scans else 0.0
    return out

"""Names the benchmark's code needs that BENCHMARK.json does not carry.

The workloads and the gated metrics, with their units, are read from
``BENCHMARK.json`` at the repository root by ``run.py``; an end-to-end
metric whose name starts with ``sim_`` is a simulated one, deterministic
per seed, and every other is measured on the host.
"""

from __future__ import annotations

#: Simulated metrics that exist for only some workloads. They are printed
#: and written to the result file but are not part of the final JSON line,
#: which must carry the same metric names for every workload.
SIM_EXTRA_UNITS = {
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
    "sim_latency_weight": "tuples",
    "sim_input_lag": "events",
    "sim_stall_ms": "ms",
    "sim_rescales": "count",
    "sim_restores": "count",
    "failed_share": "ratio",
}

#: Layers that own spans in the traced run. Every callback, message
#: handler and wrapped entry point is attributed to exactly one of them,
#: so their self times add up to the traced window's wall time minus the
#: residual reported as ``trace.residual_share``.
LAYERS = ("simulation", "actors", "stream_manager", "instance",
          "topology_master", "metrics_manager", "heron", "grouping",
          "stats", "checkpoint", "statemgr", "autoscale", "packing",
          "scheduler", "user", "other")

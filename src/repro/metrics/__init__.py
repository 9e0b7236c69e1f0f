"""Metrics: the quantities the paper's evaluation reports.

* :mod:`repro.metrics.aggregates` — :class:`WorkloadMetrics` (makespan,
  average response/wait time, average/median/p95 slowdown, energy), the
  one reduction every producer builds it with (``metrics_from_columns``),
  the per-job formulas it reduces, and the :func:`compute_metrics`
  reference oracle over retained jobs;
* :mod:`repro.metrics.streaming` — :class:`StreamingMetrics`, the
  simulation's job-completion fold and the only producer of a run's
  metrics and energy, plus the :class:`ChunkedArray` buffer it stores
  per-job columns in;
* :mod:`repro.metrics.heatmap` — the (requested nodes × runtime) category
  binning behind Figures 4–6;
* :mod:`repro.metrics.timeseries` — per-day average slowdown and per-day
  malleable-job counts (Figure 7);
* :mod:`repro.metrics.energy` — the linear node power model, and the
  post-hoc energy estimate with per-application utilisation used by the
  real-run emulation (Figure 9).
"""

from repro.metrics.aggregates import WorkloadMetrics, compute_metrics
from repro.metrics.energy import LinearPowerModel, workload_energy
from repro.metrics.heatmap import CategoryGrid, category_heatmap, heatmap_ratio
from repro.metrics.streaming import ChunkedArray, StreamingMetrics
from repro.metrics.timeseries import daily_malleable_counts, daily_slowdown

__all__ = [
    "CategoryGrid",
    "ChunkedArray",
    "LinearPowerModel",
    "StreamingMetrics",
    "WorkloadMetrics",
    "category_heatmap",
    "compute_metrics",
    "daily_malleable_counts",
    "daily_slowdown",
    "heatmap_ratio",
    "workload_energy",
]

"""Experiment drivers regenerating every figure and table of the paper."""

from repro.analysis.ablations import (
    RiAblationResult,
    contention_ablation,
    elastic_ablation,
    overlap_ablation,
    ri_loss_ablation,
)
from repro.analysis.download_sweep import (
    PRODUCT_TRIO,
    SIZE_SWEEP_BYTES,
    DownloadPoint,
    download_sweep,
)
from repro.analysis.latency import LatencyBreakdown, latency_breakdown
from repro.analysis.paper import (
    FIG3_WORKER_GAIN_MB_S,
    FIG7_LATENCIES,
    HEADLINE,
    TABLE1_STRONG_NODES,
    TABLE1_STRONG_WORKERS,
    TABLE1_WEAK_NODES,
    TABLE1_WEAK_WORKERS,
)
from repro.analysis.report import render_comparison, render_table, shape_error
from repro.analysis.sensitivity import SensitivityPoint, sigma_sensitivity
from repro.analysis.scaling import (
    NODE_SWEEP,
    WORKER_SWEEP,
    ScalingCurve,
    ScalingPoint,
    headline_run,
    run_preprocess_trial,
    strong_scaling_nodes,
    strong_scaling_workers,
    weak_scaling_nodes,
    weak_scaling_workers,
)
from repro.analysis.timeline import TimelineResult, automation_timeline

__all__ = [
    "download_sweep",
    "DownloadPoint",
    "SIZE_SWEEP_BYTES",
    "PRODUCT_TRIO",
    "strong_scaling_workers",
    "strong_scaling_nodes",
    "weak_scaling_workers",
    "weak_scaling_nodes",
    "headline_run",
    "run_preprocess_trial",
    "ScalingCurve",
    "ScalingPoint",
    "WORKER_SWEEP",
    "NODE_SWEEP",
    "latency_breakdown",
    "LatencyBreakdown",
    "automation_timeline",
    "TimelineResult",
    "render_table",
    "render_comparison",
    "shape_error",
    "contention_ablation",
    "elastic_ablation",
    "overlap_ablation",
    "ri_loss_ablation",
    "RiAblationResult",
    "sigma_sensitivity",
    "SensitivityPoint",
    "TABLE1_STRONG_WORKERS",
    "TABLE1_STRONG_NODES",
    "TABLE1_WEAK_WORKERS",
    "TABLE1_WEAK_NODES",
    "HEADLINE",
    "FIG7_LATENCIES",
    "FIG3_WORKER_GAIN_MB_S",
]

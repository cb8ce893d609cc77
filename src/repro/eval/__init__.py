"""Evaluation harness: recall, QPS sweeps and paper-shaped reports."""

from repro.eval.recall import batch_recall, recall_at_k
from repro.eval.serving import (
    SERVING_POLICIES,
    format_serving_table,
    serving_policy_config,
    sweep_serving,
)
from repro.eval.sweep import (
    SweepPoint,
    qps_at_recall,
    sweep_batched_song,
    sweep_gpu_song,
    sweep_cpu_song,
    sweep_hnsw,
    sweep_ivfpq,
)
from repro.eval.report import format_curve, format_table

__all__ = [
    "SERVING_POLICIES",
    "recall_at_k",
    "batch_recall",
    "SweepPoint",
    "format_serving_table",
    "serving_policy_config",
    "sweep_batched_song",
    "sweep_gpu_song",
    "sweep_cpu_song",
    "sweep_hnsw",
    "sweep_ivfpq",
    "sweep_serving",
    "qps_at_recall",
    "format_curve",
    "format_table",
]

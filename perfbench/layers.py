"""Where the traced run puts its spans: public functions of each layer.

``install`` wraps them on a :class:`~tracer.Tracer`; ``metrics`` turns
the tracer's record plus the figures a workload read from the program
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from typing import Any

from tracer import Tracer, percentile_ms

from importlib import import_module

from repro.core.detector import StreamingAnomalyDetector
from repro.core.registry import MODEL_CLASSES, MODEL_NAMES
from repro.learning.kswin import KSWIN
from repro.select.race import SelectionRace
from repro.serve.scheduler import MicroBatchScheduler
from repro.serve.server import DetectionService, ServeClient
from repro.serve.state import SessionStore
from repro.serve.wal import SessionWal
from repro.streaming.fleet import FleetEngine

# Modules by dotted name: a package may export a function under the
# same name as its submodule (``repro.metrics.vus``).
corpora = import_module("repro.datasets.corpora")
evaluation = import_module("repro.experiments.evaluation")
nab = import_module("repro.metrics.nab")
ranged = import_module("repro.metrics.ranged")
vus = import_module("repro.metrics.vus")
swap = import_module("repro.select.swap")
checkpoint = import_module("repro.streaming.checkpoint")
server = import_module("repro.serve.server")


#: the detector's own telemetry spans and their per-layer metric names.
STAGE_SPANS = {
    "represent": "core.stage.represent_s",
    "predict": "core.stage.predict_s",
    "nonconformity": "core.stage.nonconformity_s",
    "score": "core.stage.score_s",
    "task1-update": "core.stage.task1_update_s",
    "task2-check": "core.stage.task2_check_s",
    "fine-tune": "core.stage.finetune_s",
}


def _size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    w, f = tracer.wrap_method, tracer.wrap_function

    # serve: protocol, dispatch, admission and drain
    f(server, "encode", "serve.protocol.encode",
      after=lambda t, a, k, r: t.count("serve.protocol.bytes", len(r)))
    w(ServeClient, "request", "serve.protocol.request")

    def handle_span(args, kwargs):
        request = args[1] if len(args) > 1 else kwargs.get("request")
        op = request.get("op") if isinstance(request, dict) else None
        return f"serve.server.{op}"
    w(DetectionService, "handle", handle_span)
    w(MicroBatchScheduler, "submit", "serve.scheduler.submit")
    w(MicroBatchScheduler, "pump", "serve.scheduler.pump")

    # serve: write-ahead log
    wal_sizes: dict[Any, int] = {}

    def wal_growth(tr, args, kwargs, result):
        wal = args[0]
        size = _size(wal.path)
        grown = size - wal_sizes.get(wal.path, 0)
        if grown > 0:
            tr.count("serve.wal.bytes", grown)
        wal_sizes[wal.path] = size
    w(SessionWal, "append", "serve.wal.append", after=wal_growth)
    w(SessionWal, "barrier", "serve.wal.barrier", after=wal_growth)
    w(DetectionService, "recover_sessions", "serve.wal.recover")

    # serve: session state
    w(SessionStore, "evict", "serve.state.evict",
      after=lambda t, a, k, r: t.count("serve.state.spill_bytes", _size(r)))
    w(SessionStore, "rehydrate", "serve.state.rehydrate", keep=True)

    # streaming: fused fleet and checkpoints
    w(FleetEngine, "step_chunk", "streaming.fleet.step_chunk")
    f(checkpoint, "save_detector", "streaming.checkpoint.save",
      after=lambda t, a, k, r: t.count("streaming.checkpoint.save_bytes", _size(r)))
    f(checkpoint, "load_detector", "streaming.checkpoint.load")

    # select: shadow lanes and hot-swap
    w(SelectionRace, "observe", "select.shadow")
    f(swap, "hot_swap", "select.hot_swap")

    # core detector
    w(StreamingAnomalyDetector, "step", "core.detector.step")
    w(StreamingAnomalyDetector, "step_chunk", "core.detector.step_chunk")

    # models
    for model in MODEL_NAMES:
        cls = MODEL_CLASSES[model]
        for method in ("fit", "finetune", "predict_batch"):
            w(cls, method, f"models.{model}.{method}")

    # learning: KSWIN
    w(KSWIN, "should_finetune", "learning.kswin.check",
      after=lambda t, a, k, r: t.count("learning.kswin.fires", int(bool(r))))
    w(KSWIN, "observe", "learning.kswin.observe")

    # metrics
    f(evaluation, "evaluate_result", "metrics.evaluate")
    f(vus, "vus", "metrics.vus")
    f(ranged, "range_pr_auc", "metrics.range_pr_auc")
    f(nab, "nab_score", "metrics.nab")

    # datasets
    f(corpora, "make_corpus", "datasets.generate")
    f(corpora, "make_drift_stream", "datasets.generate")


#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: list[tuple[str, str]] = [
    ("serve.protocol.wire_s", "s"),
    ("serve.protocol.bytes", "B"),
    ("serve.server.ingest_s", "s"),
    ("serve.server.score_s", "s"),
    ("serve.server.stats_s", "s"),
    ("serve.scheduler.submit_s", "s"),
    ("serve.scheduler.pump_s", "s"),
    ("serve.scheduler.batch_pts", "count"),
    ("serve.scheduler.queue_wait_p50_ms", "ms"),
    ("serve.scheduler.queue_wait_p99_ms", "ms"),
    ("serve.wal.append_s", "s"),
    ("serve.wal.appends", "count"),
    ("serve.wal.bytes", "B"),
    ("serve.wal.barrier_s", "s"),
    ("serve.wal.barriers", "count"),
    ("serve.wal.replayed_pts", "count"),
    ("serve.wal.recover_s", "s"),
    ("serve.recovery_s", "s"),
    ("serve.state.evictions", "count"),
    ("serve.state.evict_s", "s"),
    ("serve.state.rehydrations", "count"),
    ("serve.state.rehydrate_s", "s"),
    ("serve.state.rehydrate_p99_ms", "ms"),
    ("serve.state.spill_bytes", "B"),
    ("streaming.fleet.step_chunk_s", "s"),
    ("streaming.fleet.fused_share", "ratio"),
    ("streaming.fleet.finetunes_fused", "count"),
    ("streaming.checkpoint.save_s", "s"),
    ("streaming.checkpoint.saves", "count"),
    ("streaming.checkpoint.save_bytes", "B"),
    ("streaming.checkpoint.load_s", "s"),
    ("streaming.checkpoint.loads", "count"),
    ("select.shadow_s", "s"),
    ("select.points_shadow", "count"),
    ("select.promotions", "count"),
    ("select.hot_swap_s", "s"),
    ("core.detector.step_s", "s"),
    ("core.detector.steps", "count"),
    ("core.detector.step_chunk_s", "s"),
    ("core.detector.step_chunk_calls", "count"),
    ("core.stage.represent_s", "s"),
    ("core.stage.predict_s", "s"),
    ("core.stage.nonconformity_s", "s"),
    ("core.stage.score_s", "s"),
    ("core.stage.task1_update_s", "s"),
    ("core.stage.task2_check_s", "s"),
    ("core.stage.finetune_s", "s"),
    ("core.finetunes", "count"),
    ("core.drift_fires", "count"),
    ("core.chunk_rollbacks", "count"),
    *[
        (f"models.{model}.{what}", unit)
        for model in MODEL_NAMES
        for what, unit in (
            ("fit_s", "s"),
            ("fits", "count"),
            ("finetune_s", "s"),
            ("finetunes", "count"),
            ("predict_batch_s", "s"),
        )
    ],
    ("learning.kswin.check_s", "s"),
    ("learning.kswin.observe_s", "s"),
    ("learning.kswin.checks", "count"),
    ("learning.kswin.fires", "count"),
    ("metrics.evaluate_s", "s"),
    ("metrics.vus_s", "s"),
    ("metrics.range_pr_auc_s", "s"),
    ("metrics.nab_s", "s"),
    ("datasets.generate_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.residual", "ratio"),
]


def metrics(tracer: Tracer, read: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the tracer plus figures the workload read
    from the program (``read`` wins where both define a name)."""
    t, n = tracer.total, tracer.n
    handled = [name for name in tracer.seconds if name.startswith("serve.server.")]
    out: dict[str, float] = {
        "serve.protocol.wire_s": t("serve.protocol.request") - t(*handled),
        "serve.server.ingest_s": t("serve.server.ingest"),
        "serve.server.score_s": t("serve.server.score"),
        "serve.server.stats_s": t("serve.server.stats"),
        "serve.protocol.bytes": tracer.counters.get("serve.protocol.bytes", 0.0),
        "serve.scheduler.submit_s": t("serve.scheduler.submit"),
        "serve.scheduler.pump_s": t("serve.scheduler.pump"),
        "serve.wal.append_s": t("serve.wal.append"),
        "serve.wal.appends": n("serve.wal.append"),
        "serve.wal.bytes": tracer.counters.get("serve.wal.bytes", 0.0),
        "serve.wal.barrier_s": t("serve.wal.barrier"),
        "serve.wal.barriers": n("serve.wal.barrier"),
        "serve.wal.recover_s": t("serve.wal.recover"),
        "serve.state.evictions": n("serve.state.evict"),
        "serve.state.evict_s": t("serve.state.evict"),
        "serve.state.rehydrations": n("serve.state.rehydrate"),
        "serve.state.rehydrate_s": t("serve.state.rehydrate"),
        "serve.state.rehydrate_p99_ms": percentile_ms(
            tracer.samples.get("serve.state.rehydrate", []), 99
        ),
        "serve.state.spill_bytes": tracer.counters.get("serve.state.spill_bytes", 0.0),
        "streaming.fleet.step_chunk_s": t("streaming.fleet.step_chunk"),
        "streaming.checkpoint.save_s": t("streaming.checkpoint.save"),
        "streaming.checkpoint.saves": n("streaming.checkpoint.save"),
        "streaming.checkpoint.save_bytes": tracer.counters.get(
            "streaming.checkpoint.save_bytes", 0.0
        ),
        "streaming.checkpoint.load_s": t("streaming.checkpoint.load"),
        "streaming.checkpoint.loads": n("streaming.checkpoint.load"),
        "select.shadow_s": t("select.shadow"),
        "select.hot_swap_s": t("select.hot_swap"),
        "core.detector.step_s": t("core.detector.step"),
        "core.detector.steps": n("core.detector.step"),
        "core.detector.step_chunk_s": t("core.detector.step_chunk"),
        "core.detector.step_chunk_calls": n("core.detector.step_chunk"),
        "learning.kswin.check_s": t("learning.kswin.check"),
        "learning.kswin.observe_s": t("learning.kswin.observe"),
        "learning.kswin.checks": n("learning.kswin.check"),
        "learning.kswin.fires": tracer.counters.get("learning.kswin.fires", 0.0),
        "metrics.evaluate_s": t("metrics.evaluate"),
        "metrics.vus_s": t("metrics.vus"),
        "metrics.range_pr_auc_s": t("metrics.range_pr_auc"),
        "metrics.nab_s": t("metrics.nab"),
        "datasets.generate_s": t("datasets.generate"),
    }
    for model in MODEL_NAMES:
        out[f"models.{model}.fit_s"] = t(f"models.{model}.fit")
        out[f"models.{model}.fits"] = n(f"models.{model}.fit")
        out[f"models.{model}.finetune_s"] = t(f"models.{model}.finetune")
        out[f"models.{model}.finetunes"] = n(f"models.{model}.finetune")
        out[f"models.{model}.predict_batch_s"] = t(f"models.{model}.predict_batch")
    out.update(read)
    return {name: float(out.get(name, 0.0)) for name, _ in PER_LAYER}

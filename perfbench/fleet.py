"""serve-fleet: one fusable spec served to many streams, then a crash.

``STREAMS`` sessions of ``ae+sw+musigma`` are driven closed-loop through
the in-process wire client: every round each stream sends one slice,
the service drains with ``pump`` (``max_delay_ms=0``, no drain thread),
and each stream collects its scores with a non-flushing ``score``.  The
WAL is on with the default fsync policy; per-session telemetry is off,
which keeps every session on the fused ``FleetEngine`` path.  A pass
ends by sending one more slice per stream, abandoning the service and
recovering a new one over the same WAL and spill directories.
"""

from __future__ import annotations

import gc
import shutil
import time
from typing import Any

import numpy as np

from common import (
    Digest,
    PassResult,
    check_sequence,
    collect,
    compare_bitwise,
    ok,
    send,
)
from layers import install
from tracer import percentile_ms
from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.datasets.corpora import make_drift_stream
from repro.serve import DetectionService, ServeClient, ServeConfig
from repro.streaming.runner import run_stream

SPEC = "ae+sw+musigma"
STREAMS = 16
CHANNELS = 4
SLICE = 16
ROUNDS = 160
CONFIG = dict(window=8, train_capacity=32, initial_train_size=48, fit_epochs=3)
#: points each stream sends before the timed phase: enough to fill the
#: window and run the initial fit, so warm-up stays out of the timing.
#: Stream ``i`` sends ``WARMUP + i * STAGGER`` so that the streams' WAL
#: barriers (one per ``wal_barrier_interval`` = 256 scored points) fall
#: in different rounds, as for sessions that started at different times.
WARMUP = 64
STAGGER = 256 // STREAMS


def offset(index: int) -> int:
    """Stream ``index``'s sequence number at the first timed round."""
    return WARMUP + index * STAGGER


def n_points(index: int) -> int:
    """Points stream ``index`` sends in a pass: warm-up, rounds, tail."""
    return offset(index) + ROUNDS * SLICE + SLICE


def prepare(seed: int) -> dict[str, Any]:
    series = [
        make_drift_stream(
            n_steps=n_points(index),
            n_channels=CHANNELS,
            drift_at=offset(index) + (ROUNDS * SLICE) // 2,
            seed=seed * 1000 + index,
        ).values
        for index in range(STREAMS)
    ]
    return {"seed": seed, "series": series}


def offline_scores(values: np.ndarray) -> np.ndarray:
    """The reference: an offline chunked run of the same spec."""
    detector = build_detector(
        AlgorithmSpec(*SPEC.split("+")),
        n_channels=CHANNELS,
        config=DetectorConfig(**CONFIG),
    )
    series = TimeSeries(values=values, labels=np.zeros(len(values), dtype=int))
    return run_stream(detector, series, batch_size=64).scores


def _service(workdir) -> DetectionService:
    return DetectionService(
        ServeConfig(
            default_spec=SPEC,
            per_session_telemetry=False,
            max_delay_ms=0.0,
            spill_dir=str(workdir / "spill"),
            wal_dir=str(workdir / "wal"),
            detector=DetectorConfig(**CONFIG),
        ),
        autostart=False,
    )


def run_pass(ctx: dict[str, Any], workdir, tracer) -> PassResult:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    series = ctx["series"]
    names = [f"s{index:02d}" for index in range(STREAMS)]
    collected: dict[str, list] = {name: [] for name in names}
    sent_at: dict[str, dict[int, float]] = {name: {} for name in names}
    latencies: list[float] = []
    attempted = 0
    clock = time.perf_counter

    if tracer is not None:
        install(tracer)
    try:
        t_setup = clock()
        service = _service(workdir)
        client = ServeClient(service)
        for name in names:
            ok(client.create(name, n_channels=CHANNELS), "create")
        for index, (name, values) in enumerate(zip(names, series)):
            ok(client.ingest(name, values[: offset(index)], expect=0), "warm-up ingest")
        while service.pump():
            pass
        for name in names:
            collected[name].extend(ok(client.score(name, flush=False), "score")["results"])
        gc.collect()
        setup_s = clock() - t_setup

        top0 = tracer.top_seconds if tracer is not None else 0.0
        t0 = clock()
        for r in range(ROUNDS):
            for index, (name, values) in enumerate(zip(names, series)):
                start = offset(index) + r * SLICE
                send(client, name, values[start : start + SLICE], start, sent_at)
            while service.pump():
                pass
            collect(client, names, sent_at, collected, latencies)
            attempted += 2 * STREAMS
        timed_s = clock() - t0
        top = (tracer.top_seconds - top0) if tracer is not None else 0.0
        stats = ok(client.request("stats", latency_windows=True), "stats")

        # Crash: one more slice per stream is logged and acknowledged but
        # never scored, then the service is abandoned without shutdown.
        for index, (name, values) in enumerate(zip(names, series)):
            tail = n_points(index) - SLICE
            ok(client.ingest(name, values[tail:], expect=tail), "ingest")
        attempted += STREAMS
        del client, service
        t_recover = clock()
        service = _service(workdir)
        client = ServeClient(service)
        for name in names:
            reply = ok(client.score(name, flush=False), "score")
            collected[name].extend(reply["results"])
            if reply["pending_points"]:
                raise RuntimeError(f"{name}: points left unscored after recovery")
        recovery_s = clock() - t_recover
        attempted += STREAMS
        after = service.stats_payload()["fleet"]["counters"]
        service.shutdown()
        del client, service
    finally:
        if tracer is not None:
            tracer.uninstall()
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()

    counters = stats["fleet"]["counters"]
    digest = Digest()
    errors: list[str] = []
    served = {}
    for index, name in enumerate(names):
        scores, problems = check_sequence(name, collected[name], n_points(index))
        errors.extend(problems)
        served[name] = scores
        digest.add(scores)
    keys = (
        "points_ingested", "points_scored", "batches_flushed", "fused_drains",
        "points_fused", "finetunes_fused", "points_fused_training",
        "wal_appends", "wal_barriers", "sessions_evicted",
    )
    counts = {key: int(counters.get(key, 0)) for key in keys}
    counts["wal_replayed"] = int(after.get("wal_replayed", 0))
    counts["wal_recovered"] = int(after.get("wal_recovered", 0))
    counts["digest"] = digest.hexdigest()
    if counts["wal_recovered"] != STREAMS:
        errors.append(f"{counts['wal_recovered']} streams recovered, expected {STREAMS}")
    waits = np.concatenate(
        [np.asarray(block.get("latency_window", []), dtype=float)
         for block in stats["sessions"].values()]
    )
    layers = {
        "serve.recovery_s": recovery_s,
        "serve.wal.replayed_pts": counts["wal_replayed"],
        "serve.scheduler.batch_pts": counts["points_scored"]
        / max(counts["batches_flushed"], 1),
        "serve.scheduler.queue_wait_p50_ms": percentile_ms(list(waits), 50),
        "serve.scheduler.queue_wait_p99_ms": percentile_ms(list(waits), 99),
        "streaming.fleet.fused_share": counts["points_fused"]
        / max(counts["points_scored"], 1),
        "streaming.fleet.finetunes_fused": counts["finetunes_fused"],
        "core.finetunes": counts["finetunes_fused"],
    }
    return PassResult(
        setup_s=setup_s,
        timed_s=timed_s,
        points=ROUNDS * SLICE * STREAMS,
        latencies_s=latencies,
        attempted=attempted,
        failed=0,
        counts=counts,
        errors=errors,
        layers=layers,
        top_seconds=top,
        outputs={"served": served},
    )


def check(ctx: dict[str, Any], result: PassResult) -> list[str]:
    """Every stream bitwise equal to an offline run of the same spec."""
    if "offline" not in ctx:
        ctx["offline"] = [offline_scores(values) for values in ctx["series"]]
    errors = []
    for index, offline in enumerate(ctx["offline"]):
        name = f"s{index:02d}"
        errors.extend(compare_bitwise(name, result.outputs["served"][name], offline))
    return errors


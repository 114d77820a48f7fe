"""serve-race: KSWIN champions raced by challengers, beside an LRU churn.

``RACERS`` sessions serve ``ae+sw+kswin`` with one challenger lane each
over drifting streams, so promotions (and, with demotion on, swaps back)
occur.  Beside them ``PLAIN`` sessions of other KSWIN models exceed
``max_sessions``, so every round evicts and rehydrates sessions through
their spill checkpoints.  A monitoring client polls ``stats`` once per
round.  Within a round the streams' slices arrive one after another and
each is drained on arrival; scores are collected at the end of the
round.  The service otherwise keeps its defaults, including per-session
telemetry on, as the ``serve`` CLI runs it; draining is by ``pump`` with
``max_delay_ms=0`` and no drain thread.
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
from layers import STAGE_SPANS, install
from tracer import percentile_ms
from repro.core.config import DetectorConfig
from repro.core.registry import AlgorithmSpec, build_detector
from repro.core.types import TimeSeries
from repro.datasets.corpora import make_drift_stream
from repro.serve import DetectionService, ServeClient, ServeConfig
from repro.streaming.runner import run_stream

CHAMPION = "ae+sw+kswin"
#: one challenger per racing stream: a drift-blind regular re-fit and a
#: different model family with a mean/variance trigger.
CHALLENGERS = ["ae+sw+regular", "usad+sw+musigma"]
PLAIN = [
    "online_arima+sw+kswin",
    "usad+sw+kswin",
    "nbeats+sw+kswin",
    "online_arima+ures+kswin",
    "usad+ares+kswin",
    "nbeats+ures+kswin",
]
MAX_SESSIONS = 4
CHANNELS = 3
SLICE = 16
ROUNDS = 60
CONFIG = dict(
    window=6, train_capacity=24, fit_epochs=3, initial_train_size=40,
    kswin_check_every=1,
)
SELECT = dict(warmup=40, margin=0.02, dwell=16, min_dwell=64, fire_weight=0.0)
WARMUP = 64
N_POINTS = WARMUP + ROUNDS * SLICE

def _streams() -> list[tuple[str, str, dict | None]]:
    out = [
        (f"race{index}", CHAMPION, dict(SELECT, challengers=[challenger]))
        for index, challenger in enumerate(CHALLENGERS)
    ]
    out += [(f"plain{index}", spec, None) for index, spec in enumerate(PLAIN)]
    return out


def prepare(seed: int) -> dict[str, Any]:
    series = [
        make_drift_stream(
            n_steps=N_POINTS,
            n_channels=CHANNELS,
            drift_at=WARMUP + (ROUNDS * SLICE) // 2,
            seed=seed * 1000 + index,
        ).values
        for index in range(len(_streams()))
    ]
    return {"seed": seed, "series": series}


def offline_scores(spec: str, values: np.ndarray) -> np.ndarray:
    detector = build_detector(
        AlgorithmSpec(*spec.split("+")),
        n_channels=CHANNELS,
        config=DetectorConfig(**CONFIG),
    )
    series = TimeSeries(values=values, labels=np.zeros(len(values), dtype=int))
    return run_stream(detector, series, batch_size=64).scores


def run_pass(ctx: dict[str, Any], workdir, tracer) -> PassResult:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    series = ctx["series"]
    streams = _streams()
    names = [name for name, _, _ in streams]
    collected: dict[str, list] = {name: [] for name in names}
    sent_at: dict[str, dict[int, float]] = {name: {} for name in names}
    latencies: list[float] = []
    attempted = 0
    clock = time.perf_counter

    if tracer is not None:
        install(tracer)
    try:
        t_setup = clock()
        service = DetectionService(
            ServeConfig(
                max_sessions=MAX_SESSIONS,
                max_delay_ms=0.0,
                spill_dir=str(workdir / "spill"),
                detector=DetectorConfig(**CONFIG),
            ),
            autostart=False,
        )
        client = ServeClient(service)
        monitor = ServeClient(service)
        for name, spec, select in streams:
            ok(client.create(name, spec=spec, n_channels=CHANNELS, select=select), "create")
        for name, values in zip(names, series):
            ok(client.ingest(name, values[:WARMUP], expect=0), "warm-up ingest")
            while service.pump():
                pass
        for name in names:
            collected[name].extend(ok(client.score(name, flush=False), "score")["results"])
        gc.collect()
        setup_s = clock() - t_setup

        top0 = tracer.top_seconds if tracer is not None else 0.0
        t0 = clock()
        for r in range(ROUNDS):
            start = WARMUP + r * SLICE
            for name, values in zip(names, series):
                send(client, name, values[start : start + SLICE], start, sent_at)
                # Slices arrive one stream after another and are drained
                # as they arrive, so the streams that wait are idle and
                # the store can evict them to make room.
                while service.pump():
                    pass
            collect(client, names, sent_at, collected, latencies)
            ok(monitor.stats(), "stats")
            attempted += 2 * len(names) + 1
        timed_s = clock() - t0
        top = (tracer.top_seconds - top0) if tracer is not None else 0.0
        stats = ok(client.request("stats", latency_windows=True), "stats")
        events = {
            name: ok(client.describe(name), "describe")["selection"]["events"]
            for name, _, select in streams
            if select is not None
        }
        service.shutdown()
        del client, monitor, service
    finally:
        if tracer is not None:
            tracer.uninstall()
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()

    fleet = stats["fleet"]["counters"]
    rollup = stats["rollup"]
    digest = Digest()
    errors: list[str] = []
    served = {}
    for name in names:
        scores, problems = check_sequence(name, collected[name], N_POINTS)
        errors.extend(problems)
        served[name] = scores
        digest.add(scores)
    counts = {
        key: int(fleet.get(key, 0))
        for key in (
            "points_scored", "batches_flushed", "sessions_evicted",
            "sessions_rehydrated", "promotions", "points_shadow",
            "fused_drains", "points_fused",
        )
    }
    counts["finetunes"] = int(rollup["counters"].get("finetunes", 0))
    counts["drift_fires"] = int(rollup["counters"].get("drift_fires", 0))
    counts["swaps"] = [
        (name, event["t"], event["to"]) for name in sorted(events) for event in events[name]
    ]
    counts["digest"] = digest.hexdigest()
    if counts["sessions_evicted"] == 0:
        errors.append("no session was evicted: the LRU path did not run")
    waits = np.concatenate(
        [np.asarray(block.get("latency_window", []), dtype=float)
         for block in stats["sessions"].values()]
    )
    spans = rollup.get("spans", {})
    layers = {
        stage: float(spans.get(span, {}).get("seconds", 0.0))
        for span, stage in STAGE_SPANS.items()
    }
    layers.update(
        {
            "core.finetunes": counts["finetunes"],
            "core.drift_fires": counts["drift_fires"],
            "core.chunk_rollbacks": int(rollup["counters"].get("chunk_rollbacks", 0)),
            "select.points_shadow": counts["points_shadow"],
            "select.promotions": counts["promotions"],
            "serve.scheduler.batch_pts": counts["points_scored"]
            / max(counts["batches_flushed"], 1),
            "serve.scheduler.queue_wait_p50_ms": percentile_ms(list(waits), 50),
            "serve.scheduler.queue_wait_p99_ms": percentile_ms(list(waits), 99),
        }
    )
    return PassResult(
        setup_s=setup_s,
        timed_s=timed_s,
        points=ROUNDS * SLICE * len(names),
        latencies_s=latencies,
        attempted=attempted,
        failed=0,
        counts=counts,
        errors=errors,
        layers=layers,
        notes=[f"promotions: {counts['swaps']}"],
        top_seconds=top,
        outputs={"served": served, "events": events},
    )


def check(ctx: dict[str, Any], result: PassResult) -> list[str]:
    """Plain streams equal their offline run; a racing stream equals, up
    to each promotion, the offline run of the spec then serving."""
    offline = ctx.setdefault("offline", {})
    errors = []
    for (name, spec, select), values in zip(_streams(), ctx["series"]):
        served = result.outputs["served"][name]
        if select is None:
            if spec not in offline.get(name, {}):
                offline.setdefault(name, {})[spec] = offline_scores(spec, values)
            errors.extend(compare_bitwise(name, served, offline[name][spec]))
            continue
        start, serving = 0, spec
        for event in result.outputs["events"][name] + [{"t": N_POINTS - 1, "to": None}]:
            stop = int(event["t"]) + 1
            if serving not in offline.get(name, {}):
                offline.setdefault(name, {})[serving] = offline_scores(serving, values)
            reference = offline[name][serving]
            errors.extend(
                compare_bitwise(
                    f"{name}[{serving}]", served[:stop], reference[:stop], start
                )
            )
            start, serving = stop, event["to"]
    return errors


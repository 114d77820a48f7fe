"""table3-grid: the paper's Table III experiment, all 26 algorithms.

One pass runs ``run_table3`` sequentially (``n_jobs=1``) over a seeded
slice of the synthetic Daphnet-like corpus with the legacy per-step
``step()`` loop, then evaluates every cell into Table III rows.  That
call is the timed phase.  Before it, outside the timed phase, one
agreement operation per algorithm compares the paper path
(``run_stream(batch_size=None)``) with the chunk engine serving uses
(``run_stream(batch_size=1)``) on a fixed series that does not depend on
the seed.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Any

import numpy as np

from common import Digest, PassResult
from layers import STAGE_SPANS, install
from repro.core.detector import StreamingAnomalyDetector
from repro.core.registry import build_algorithm_grid, build_detector
from repro.datasets.corpora import make_corpus
from repro.experiments import table3
from repro.experiments.table3 import Table3Config, run_table3
from repro.obs import Telemetry
from repro.streaming.runner import run_stream

CORPUS = "daphnet"
N_STEPS = 300
CLEAN_PREFIX = 150
SCORERS = ("al",)
#: Table III's detector config with a smaller initial fit (96 windows,
#: 4 epochs instead of 260 windows, 20 epochs) so that one grid pass
#: fits a run on one core; window, capacity, scorer windows and the
#: KSWIN check interval are Table III's.
DETECTOR = dataclasses.replace(
    Table3Config().detector, initial_train_size=96, fit_epochs=4
)
#: the agreement series: fixed, whatever the seed, and a small detector
#: config (the fault is in how a step is computed, not in the scale).
AGREEMENT_STEPS = 100
AGREEMENT_SEED = 0
AGREEMENT_DETECTOR = dataclasses.replace(
    DETECTOR,
    window=8,
    train_capacity=32,
    initial_train_size=32,
    scorer_k=16,
    scorer_k_short=4,
    scorer=SCORERS[0],
)
#: the chunk engine's block size; its scores are bitwise the same at
#: every block size, so the largest useful one keeps the check cheap.
ENGINE_CHUNK = 64
QUANTILE = Table3Config().threshold_quantile

def prepare(seed: int) -> dict[str, Any]:
    agreement = make_corpus(
        CORPUS,
        n_series=1,
        n_steps=AGREEMENT_STEPS,
        clean_prefix=AGREEMENT_STEPS // 2,
        seed=AGREEMENT_SEED,
    )[0]
    config = Table3Config(
        n_series=1,
        n_steps=N_STEPS,
        clean_prefix=CLEAN_PREFIX,
        seed=seed,
        scorers=SCORERS,
        detector=DETECTOR,
    )
    return {
        "seed": seed,
        "config": config,
        "agreement": agreement,
        "specs": build_algorithm_grid(),
    }


def agreement_ops(ctx: dict[str, Any]) -> tuple[int, list[str]]:
    """Paper path vs chunk engine, one operation per algorithm.

    Returns the number that disagree and a line per algorithm.
    """
    series = ctx["agreement"]
    config = AGREEMENT_DETECTOR
    failed, lines = 0, []
    for spec in ctx["specs"]:
        paper = run_stream(
            build_detector(spec, n_channels=series.n_channels, config=config),
            series,
            batch_size=None,
        )
        engine = run_stream(
            build_detector(spec, n_channels=series.n_channels, config=config),
            series,
            batch_size=ENGINE_CHUNK,
        )
        same = np.array_equal(
            paper.scores.view(np.int64), engine.scores.view(np.int64)
        ) and np.array_equal(
            paper.nonconformities.view(np.int64),
            engine.nonconformities.view(np.int64),
        )
        if not same:
            failed += 1
        gap = float(np.max(np.abs(paper.scores - engine.scores)))
        lines.append(f"{spec.label}: {'agree' if same else 'DIFFER'} max|d|={gap:.3g}")
    return failed, lines


def range_pr_direct(
    scores: np.ndarray, labels: np.ndarray, threshold: float
) -> tuple[float, float]:
    """Range precision/recall by a direct count over the labelled windows.

    A true window is detected when any step inside it is flagged; a
    flagged run is a false positive when no step of it is labelled.
    """
    flagged = np.asarray(scores) >= threshold
    labels = np.asarray(labels).astype(bool)

    def runs(mask: np.ndarray) -> list[tuple[int, int]]:
        edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
        return list(zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)))

    true_runs = runs(labels)
    flag_runs = runs(flagged)
    tp = sum(1 for a, b in true_runs if flagged[a:b].any())
    fp = sum(1 for a, b in flag_runs if not labels[a:b].any())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / len(true_runs) if true_runs else 0.0
    return precision, recall


def check_rows(rows, captured) -> list[str]:
    """Every cell completed, finite scores, columns in range, P/R recount."""
    errors = []
    if len(rows) != 26:
        errors.append(f"{len(rows)} Table III rows, expected 26")
    if len(captured) != 26 * len(SCORERS):
        errors.append(f"{len(captured)} cells evaluated, expected {26 * len(SCORERS)}")
    for row in rows:
        if row.n_runs != len(SCORERS):
            errors.append(f"{row.spec.label}: {row.n_runs} cells completed")
    for result, metric in captured:
        name = result.algorithm
        scores, labels = result.scored_region()
        if scores.size == 0:
            errors.append(f"{name}: empty scored region")
            continue
        if not np.all(np.isfinite(scores)):
            errors.append(f"{name}: non-finite scores")
        for column in ("precision", "recall", "auc", "vus"):
            value = getattr(metric, column)
            if not 0.0 <= value <= 1.0:
                errors.append(f"{name}: {column}={value} outside [0, 1]")
        n_windows = max(int(np.sum(np.diff(np.concatenate(([0], labels))) == 1)), 1)
        floor = -1.0 - len(scores) / n_windows**2
        if not floor <= metric.nab <= 1.0:
            errors.append(f"{name}: NAB {metric.nab} outside [{floor}, 1]")
        if labels.any():
            threshold = float(np.quantile(scores, QUANTILE))
            precision, recall = range_pr_direct(scores, labels, threshold)
            if (precision, recall) != (metric.precision, metric.recall):
                errors.append(
                    f"{name}: range P/R {metric.precision}/{metric.recall} "
                    f"!= direct count {precision}/{recall}"
                )
    return errors


def run_pass(ctx: dict[str, Any], workdir, tracer) -> PassResult:
    disagree, lines = agreement_ops(ctx)
    captured: list = []
    step_times: list[float] = []
    telemetry = None
    if tracer is not None:
        telemetry = Telemetry()
        install(tracer)

    evaluate = table3.evaluate_result
    step = StreamingAnomalyDetector.step
    clock = time.perf_counter

    def capture(result, *args, **kwargs):
        metric = evaluate(result, *args, **kwargs)
        captured.append((result, metric))
        return metric

    def timed_step(self, s):
        t0 = clock()
        out = step(self, s)
        step_times.append(clock() - t0)
        return out

    t_setup = time.perf_counter()
    gc.collect()
    setup_s = time.perf_counter() - t_setup
    table3.evaluate_result = capture
    StreamingAnomalyDetector.step = timed_step
    top0 = tracer.top_seconds if tracer is not None else 0.0
    try:
        t0 = time.perf_counter()
        rows = run_table3(
            CORPUS, config=ctx["config"], n_jobs=1, telemetry=telemetry
        )
        timed_s = time.perf_counter() - t0
    finally:
        table3.evaluate_result = evaluate
        StreamingAnomalyDetector.step = step
        if tracer is not None:
            tracer.uninstall()
    top = (tracer.top_seconds - top0) if tracer is not None else 0.0

    digest = Digest()
    steps = scored = finetunes = fires = 0
    for result, metric in captured:
        digest.add(result.scores)
        digest.add(result.nonconformities)
        digest.add(list(metric.as_dict().values()))
        steps += result.n_steps
        scored += result.n_steps - result.first_scored
        finetunes += result.n_finetunes
        fires += len(result.drift_steps)
    for row in rows:
        digest.add([row.n_finetunes, *row.metrics.as_dict().values()])
    counts = {
        "rows": len(rows),
        "cells": len(captured),
        "steps": steps,
        "points_scored": scored,
        "finetunes": finetunes,
        "drift_fires": fires,
        "agreement_failed": disagree,
        "digest": digest.hexdigest(),
    }
    layers: dict[str, float] = {}
    if telemetry is not None:
        for span, name in STAGE_SPANS.items():
            entry = telemetry.spans.get(span)
            layers[name] = float(entry[1]) if entry else 0.0
        layers["core.finetunes"] = float(telemetry.counters.get("finetunes", 0))
        layers["core.drift_fires"] = float(telemetry.counters.get("drift_fires", 0))
        layers["core.chunk_rollbacks"] = float(
            telemetry.counters.get("chunk_rollbacks", 0)
        )
    return PassResult(
        setup_s=setup_s,
        timed_s=timed_s,
        points=steps,
        latencies_s=step_times,
        attempted=len(rows) + len(ctx["specs"]),
        failed=disagree,
        counts=counts,
        errors=check_rows(rows, captured),
        layers=layers,
        notes=lines,
        top_seconds=top,
    )

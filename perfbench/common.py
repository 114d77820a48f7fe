"""Shared pieces of the benchmark's workloads: pass results, digests,
stats reads and output checks that every workload uses."""

from __future__ import annotations

import hashlib
import resource
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class PassResult:
    """One pass of a workload: set-up, timed phase, counts and outputs.

    ``counts`` holds the program's own counts and a digest of every
    output; the traced pass must reproduce them exactly.  ``layers``
    holds per-layer figures the workload reads from the program itself
    (stats rollups, telemetry spans); the tracer adds the timed ones.
    """

    setup_s: float
    timed_s: float
    points: int
    latencies_s: list[float]
    attempted: int
    failed: int
    counts: dict[str, Any]
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: what the workload's offline check compares (served scores ...).
    outputs: dict[str, Any] = field(default_factory=dict)
    #: tracer top-level seconds inside the timed phase (traced pass only)
    top_seconds: float = 0.0


class Digest:
    """Order-sensitive digest over float arrays (bit patterns, not values)."""

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)

    def add(self, values: Any) -> None:
        self._hash.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux ``ru_maxrss``
    is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ok(reply: dict[str, Any], what: str) -> dict[str, Any]:
    """Raise on an error reply: every request in a workload must succeed."""
    if not reply.get("ok"):
        raise RuntimeError(f"{what} failed: {reply.get('error')}")
    return reply


def send(client, name: str, values, start: int, sent_at: dict) -> None:
    """Ingest one slice and stamp each of its sequence numbers with the
    time the request was made."""
    now = time.perf_counter()
    reply = ok(client.ingest(name, values, expect=start), "ingest")
    stamps = sent_at[name]
    for seq in range(reply["seq_from"], reply["seq_to"] + 1):
        stamps[seq] = now


def collect(client, names, sent_at: dict, collected: dict, latencies: list) -> None:
    """Each stream collects its scores (no flush); a point's latency runs
    from its ingest request to the reply that carries its score."""
    for name in names:
        results = ok(client.score(name, flush=False), "score")["results"]
        now = time.perf_counter()
        stamps = sent_at[name]
        for entry in results:
            latencies.append(now - stamps.pop(entry["seq"]))
        collected[name].extend(results)


def check_sequence(
    stream: str, results: list[dict[str, Any]], n_points: int
) -> tuple[np.ndarray, list[str]]:
    """Dedupe one stream's collected results by sequence number.

    Every sequence number must arrive at least once, in increasing order
    within each delivery, and a number delivered twice (a re-emission
    after recovery) must carry bitwise the same score.  Returns the
    scores ordered by sequence number and any errors found.
    """
    errors: list[str] = []
    by_seq: dict[int, float] = {}
    last = -1
    for entry in results:
        seq = int(entry["seq"])
        score = float(entry["score"])
        if seq in by_seq:
            if np.float64(by_seq[seq]).tobytes() != np.float64(score).tobytes():
                errors.append(f"{stream}: seq {seq} re-emitted with another score")
        elif seq != last + 1:
            errors.append(f"{stream}: seq {seq} arrived after {last}")
        if seq not in by_seq:
            last = seq
        by_seq[seq] = score
    if sorted(by_seq) != list(range(n_points)):
        errors.append(
            f"{stream}: {len(by_seq)} distinct sequence numbers, expected {n_points}"
        )
    scores = np.array([by_seq.get(seq, np.nan) for seq in range(n_points)])
    return scores, errors


def compare_bitwise(
    stream: str, served: np.ndarray, offline: np.ndarray, start: int = 0
) -> list[str]:
    """Served scores must equal the offline reference bit for bit."""
    if served.shape != offline.shape:
        return [f"{stream}: {served.shape} served vs {offline.shape} offline"]
    diff = np.flatnonzero(
        served[start:].view(np.int64) != offline[start:].view(np.int64)
    )
    if diff.size:
        at = start + int(diff[0])
        return [
            f"{stream}: {diff.size} scores differ from the offline run, "
            f"first at seq {at} ({served[at]!r} vs {offline[at]!r})"
        ]
    return []

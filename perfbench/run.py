"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload table3-grid --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each invocation is one fresh process for
one workload (``--workload all`` runs every workload, each in its own
child process).  ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` runs an untraced, a traced and another untraced pass of the same
inputs, checks that all took the same path (identical program counts
and output digests) and prints the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# One thread for BLAS/OpenMP, set before numpy loads: every workload is
# single-threaded, and a pool spinning on the second core adds noise.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"table3-grid": "grid", "serve-fleet": "fleet", "serve-race": "race"}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own child process; the last line summarises."""
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            cwd=os.getcwd(), capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    total = {
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in summary.items()
            for metric, value in r["metrics"].items()
        },
    }
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    import importlib

    from common import peak_rss_mb
    from tracer import Tracer

    workload = importlib.import_module(WORKLOADS[args.workload])
    import layers

    import_s = time.perf_counter() - T_START

    workdir = Path.cwd() / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    if args.trace:
        return _traced(args, workload, layers, Tracer, workdir)

    imports = [import_s] + [_fresh_import_s(WORKLOADS[args.workload]) for _ in range(2)]
    passes, setups, errors = [], [], []
    first_ctx = None
    timed = 0.0
    while True:
        # Each pass draws its own inputs from the run's seed, so a run
        # averages over several input sets instead of resting on one.
        t_prepare = time.perf_counter()
        ctx = workload.prepare(pass_seed(args.seed, len(passes)))
        prepare_s = time.perf_counter() - t_prepare
        result = workload.run_pass(ctx, workdir, None)
        first_ctx = first_ctx or ctx
        passes.append(result)
        setups.append(prepare_s + result.setup_s)
        errors += result.errors
        timed += result.timed_s
        if timed >= args.seconds:
            break
    if hasattr(workload, "check"):
        errors += workload.check(first_ctx, passes[0])
    for note in passes[0].notes:
        print(note)

    latencies = sorted(s for result in passes for s in result.latencies_s)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "throughput_pts_per_s": (sum(r.points for r in passes) / timed, "1/s"),
        "latency_p50_ms": (_rank(latencies, 50) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    print(
        f"{args.workload}: {len(passes)} passes, {sum(r.points for r in passes)} "
        f"points in {timed:.3f} s timed, {len(latencies)} latency samples "
        f"(p90 {_rank(latencies, 90) * 1000.0:.3f} ms, "
        f"p99 {_rank(latencies, 99) * 1000.0:.3f} ms); "
        f"set-up: imports {[round(x, 3) for x in imports]} s, "
        f"per pass {[round(x, 3) for x in setups]} s"
    )
    return _emit(errors, passes, metrics)


def _traced(args, workload, layers, Tracer, workdir) -> int:
    """Untraced, traced, untraced: three passes of the same inputs.

    The traced pass sits between two untraced ones so that warm-up left
    in the first pass does not count as (negative) tracing overhead.
    """
    tracer = Tracer()
    tracer_setup = Tracer()
    layers.install(tracer_setup)
    try:
        ctx = workload.prepare(pass_seed(args.seed, 0))
    finally:
        tracer_setup.uninstall()
    untraced = workload.run_pass(ctx, workdir, None)
    traced = workload.run_pass(ctx, workdir, tracer)
    again = workload.run_pass(ctx, workdir, None)
    errors = untraced.errors + traced.errors + again.errors
    if hasattr(workload, "check"):
        errors += workload.check(ctx, untraced) + workload.check(ctx, traced)
    errors += _same_counts(untraced, traced) + _same_counts(untraced, again)
    read = dict(traced.layers)
    read["datasets.generate_s"] = tracer_setup.total("datasets.generate") + tracer.total(
        "datasets.generate"
    )
    read["trace.overhead"] = traced.timed_s / ((untraced.timed_s + again.timed_s) / 2)
    read["trace.residual"] = max(1.0 - traced.top_seconds / traced.timed_s, 0.0)
    per_layer = layers.metrics(tracer, read)
    units = dict(layers.PER_LAYER)
    print(f"{args.workload}: counts {json.dumps(untraced.counts, default=str)}")
    return _emit(
        errors,
        [untraced, traced, again],
        {name: (value, units[name]) for name, value in per_layer.items()},
    )


def pass_seed(seed: int, index: int) -> int:
    """Input seed of pass ``index`` of a run with ``--seed seed``."""
    return seed * 1000 + index


def _fresh_import_s(module: str) -> float:
    """Import time of the workload in a fresh interpreter.

    Set-up time includes the imports, which this process pays once; two
    more fresh imports give a median that one slow disk read cannot move.
    """
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
        f"import {module}, layers; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _same_counts(untraced, traced) -> list[str]:
    """The traced pass must repeat the untraced pass's counts exactly."""
    if traced.counts == untraced.counts:
        return []
    return [f"traced counts {traced.counts} differ from untraced {untraced.counts}"]


def _rank(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[max(-(-len(ordered) * q // 100) - 1, 0)]


def _emit(errors, passes, metrics) -> int:
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(r.attempted for r in passes),
                "failed": sum(r.failed for r in passes),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

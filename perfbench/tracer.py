"""Per-layer timing from outside the program.

The traced run wraps public functions and methods of ``repro`` and
records, for each wrapped name, the number of calls and the inclusive
wall time spent in them.  Nothing inside the program changes: the
wrappers are installed for a traced pass and removed afterwards, and
the untraced pass of the same run executes the original code.

A span is *top-level* when no other wrapped call encloses it.  The share
of a timed phase that no top-level span covers is the trace residual:
time spent in the benchmark's own client loop and in program code that
no wrapped layer accounts for.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Call counts and inclusive times for wrapped functions."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        #: per-call durations for names registered with ``keep=True``.
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: free-form counters fed by ``after`` hooks (bytes, fires ...).
        self.counters: dict[str, float] = defaultdict(float)
        self.top_seconds = 0.0
        self._depth = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _wrapper(
        self,
        original: Callable,
        name: str,
        keep: bool,
        after: Callable | None,
    ) -> Callable:
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            self._depth += 1
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self._depth -= 1
                self.calls[label] += 1
                self.seconds[label] += elapsed
                if keep:
                    self.samples[label].append(elapsed)
                if self._depth == 0:
                    self.top_seconds += elapsed
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str | Callable,
        keep: bool = False,
        after: Callable | None = None,
    ) -> None:
        """Wrap ``cls.attr`` (inherited or own) under the span ``name``
        (a string, or a callable naming the span from the call's
        ``(args, kwargs)``)."""
        had_own = attr in cls.__dict__
        original = cls.__dict__[attr] if had_own else None
        bound = getattr(cls, attr)
        setattr(cls, attr, self._wrapper(bound, name, keep, after))
        self._patches.append((cls, attr, original))

    def wrap_function(
        self,
        module: Any,
        attr: str,
        name: str,
        keep: bool = False,
        after: Callable | None = None,
    ) -> None:
        """Wrap a module-level function everywhere it was imported.

        ``from x import f`` copies the reference into the importing
        module, so every loaded ``repro`` module whose attribute is the
        same object is patched too.
        """
        original = getattr(module, attr)
        traced = self._wrapper(original, name, keep, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def total(self, *names: str) -> float:
        return float(sum(self.seconds.get(name, 0.0) for name in names))

    def n(self, *names: str) -> int:
        return int(sum(self.calls.get(name, 0) for name in names))


def percentile_ms(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of second-valued samples, in ms (0 if none)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(int(-(-q * len(ordered) // 100)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)] * 1000.0

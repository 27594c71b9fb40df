"""Process-wide metrics registry: counters, gauges, log-bucket histograms.

Cheap always-callable instrumentation for the count-shaped facts of a
run: formulation-cache hits, STA incremental vs full re-times, solver
solves / statuses / iterations / final residuals, fallback-chain steps,
watchdog kills, worker retries, checkpoint hits, dosePl rounds and
swaps, certification outcomes and margins.  Every mutator is a no-op
(one early-returning check) while telemetry is off, so instrumented
code -- and its callers -- need no ``telemetry.enabled()`` guard.

Accumulated values are flushed as a **single ``metrics`` event per
process** when the process exits -- via ``atexit`` in ordinary
processes and a ``multiprocessing.util.Finalize`` hook in pool workers
(which exit through ``os._exit`` and skip ``atexit``).  A forked child
starts from an empty registry (``os.register_at_fork``), so parent
counts are never double-reported.  ``python -m repro.obs report``
merges the per-process events back into run totals.

Histograms use base-2 logarithmic buckets: an observation ``v`` lands
in bucket ``ceil(log2(v))`` (bucket ``b`` holds ``2**(b-1) < v <=
2**b``; zero, negative values and ``-inf`` land in the ``"-inf"``
bucket, ``+inf`` in ``"inf"`` and NaN in ``"nan"``), which keeps
solver-iteration and residual distributions compact at any scale.
``count`` counts every observation; ``finite``, ``sum``, ``min`` and
``max`` cover only the finite ones (``min``/``max`` are ``None`` until
one arrives), so a diverged solve's NaN residual shows up in its bucket
without poisoning the summary: the mean is ``sum / finite``.
"""

from __future__ import annotations

import atexit
import math
import os
import threading

from repro import telemetry


class _Registry:
    """Mutable per-process metric state behind one lock."""

    __slots__ = ("lock", "counters", "gauges", "histograms", "__weakref__")

    def __init__(self):
        self.lock = threading.Lock()
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    def clear(self):
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)


_reg = _Registry()


def inc(name: str, n: int = 1):
    """Add ``n`` to counter ``name``; no-op while telemetry is off."""
    if not telemetry.enabled():
        return
    with _reg.lock:
        _reg.counters[name] = _reg.counters.get(name, 0) + n


def gauge(name: str, value: float):
    """Set gauge ``name`` to its most recent value."""
    if not telemetry.enabled():
        return
    with _reg.lock:
        _reg.gauges[name] = float(value)


def bucket_of(value: float) -> str:
    """Log2 bucket label for ``value`` (see module docstring)."""
    if math.isnan(value):
        return "nan"
    if value <= 0:
        return "-inf"
    if math.isinf(value):
        return "inf"
    return str(max(math.ceil(math.log2(value)), -64))


def observe(name: str, value: float):
    """Record ``value`` into histogram ``name``."""
    if not telemetry.enabled():
        return
    value = float(value)
    label = bucket_of(value)
    with _reg.lock:
        hist = _reg.histograms.get(name)
        if hist is None:
            hist = _reg.histograms[name] = {
                "count": 0,
                "finite": 0,
                "sum": 0.0,
                "min": None,
                "max": None,
                "buckets": {},
            }
        hist["count"] += 1
        if math.isfinite(value):
            hist["finite"] += 1
            hist["sum"] += value
            if hist["min"] is None or value < hist["min"]:
                hist["min"] = value
            if hist["max"] is None or value > hist["max"]:
                hist["max"] = value
        hist["buckets"][label] = hist["buckets"].get(label, 0) + 1


def snapshot() -> dict:
    """Copy of the current registry (tests, ad-hoc inspection)."""
    with _reg.lock:
        return {
            "counters": dict(_reg.counters),
            "gauges": dict(_reg.gauges),
            "histograms": {
                name: {**h, "buckets": dict(h["buckets"])}
                for name, h in _reg.histograms.items()
            },
        }


def flush(reason: str = "exit"):
    """Emit one ``metrics`` event with everything accumulated, then reset.

    Safe to call repeatedly: an empty registry flushes nothing, so the
    at-exit hooks after an explicit flush are no-ops.
    """
    if not telemetry.enabled():
        return
    with _reg.lock:
        if _reg.empty:
            return
        payload = {
            "counters": dict(_reg.counters),
            "gauges": dict(_reg.gauges),
            "histograms": {
                name: {**h, "buckets": dict(h["buckets"])}
                for name, h in _reg.histograms.items()
            },
        }
        _reg.clear()
    telemetry.emit("metrics", reason=reason, **payload)


def reset():
    """Drop everything accumulated without emitting (test isolation)."""
    with _reg.lock:
        _reg.clear()


atexit.register(flush)

# Pool workers exit via os._exit (multiprocessing's _bootstrap), which
# skips atexit; multiprocessing.util runs registered *finalizers* on
# that path instead.  A Finalize created in the parent does NOT survive
# into fork-started workers -- _bootstrap clears the inherited finalizer
# registry first -- so the worker-side registration rides
# register_after_fork, which _bootstrap runs *after* that clear.
# Spawn-started workers re-import this module inside run(), so their
# import-time Finalize below is created after the clear and survives.
try:  # pragma: no cover - import-time wiring
    from multiprocessing import util as _mp_util

    def _arm_worker_flush(_reg_ref):
        _mp_util.Finalize(None, flush, exitpriority=100)

    _mp_util.Finalize(None, flush, exitpriority=100)
    _mp_util.register_after_fork(_reg, _arm_worker_flush)
except Exception:  # pragma: no cover
    pass

if hasattr(os, "register_at_fork"):
    # a forked worker must not re-report the parent's accumulation
    os.register_at_fork(after_in_child=reset)

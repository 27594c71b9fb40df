"""Manifest analysis: span trees and metric roll-ups.

``python -m repro.obs report <manifest.jsonl>`` reassembles the flat
JSONL run manifest (see :mod:`repro.telemetry`) into the things a human
asks of a run:

* a **wall-time tree** per trace, rebuilt from the ``span`` events'
  ``span_id``/``parent_id`` links (workers' spans parent into the
  harness span via the inherited ``REPRO_TRACE_CTX``, so one tree spans
  all processes of the run);
* **per-stage aggregates** (count, total, share of the root) and the
  top spans by *self* time (own duration minus child durations);
* **run totals** merged from every per-process ``metrics`` flush --
  among them the solver roll-up (per-backend solves, status mix, warm
  vs cold iterations, final residuals) and the certification margins
  -- with derived rates (formulation cache hit rate, STA incremental
  re-time fraction).

Everything here is read-only over a manifest file; nothing imports the
solvers or the STA, so the report tool works on manifests from other
machines.
"""

from __future__ import annotations

import json


def load_manifest(path) -> list:
    """Decode a JSONL manifest; undecodable lines are skipped, counted.

    Returns ``(records, n_bad_lines)`` -- a truncated last line (a run
    killed mid-write) must not make the whole manifest unreadable.
    """
    records = []
    bad = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                bad += 1
    return records, bad


# ----------------------------------------------------------------------
# span tree
# ----------------------------------------------------------------------
class SpanNode:
    """One reassembled span with resolved children."""

    __slots__ = ("record", "children")

    def __init__(self, record: dict):
        self.record = record
        self.children = []

    @property
    def name(self) -> str:
        return self.record.get("name", "?")

    @property
    def seconds(self) -> float:
        return float(self.record.get("seconds", 0.0))

    @property
    def start(self) -> float:
        # ts is the span's end wall time; approximate start for ordering
        return float(self.record.get("ts", 0.0)) - self.seconds

    @property
    def self_seconds(self) -> float:
        """Own duration minus time attributed to child spans."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def walk(self, depth: int = 0):
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


def build_trees(records) -> dict:
    """``{trace_id: [root SpanNode, ...]}`` from a manifest's span events.

    A span whose ``parent_id`` is missing from the manifest (the parent
    process died before emitting, or the file was truncated) becomes a
    root of its trace rather than vanishing.  Children are ordered by
    start time.
    """
    nodes = {}
    for rec in records:
        if rec.get("event") == "span" and rec.get("span_id"):
            nodes[rec["span_id"]] = SpanNode(rec)
    traces = {}
    for node in nodes.values():
        parent = nodes.get(node.record.get("parent_id"))
        if parent is not None:
            parent.children.append(node)
        else:
            traces.setdefault(node.record.get("trace_id"), []).append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.start)
    for roots in traces.values():
        roots.sort(key=lambda n: n.start)
    return traces


def _span_attrs(record: dict) -> str:
    from repro.telemetry import BASE_FIELDS

    skip = BASE_FIELDS | {"name", "trace_id", "span_id", "parent_id",
                          "seconds"}
    parts = []
    for key, value in record.items():
        if key in skip or value is None:
            continue
        if isinstance(value, float):
            value = f"{value:g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def format_tree(traces, max_depth: int = None) -> list:
    """Indented per-trace wall-time tree lines."""
    lines = []
    for trace_id, roots in sorted(traces.items(), key=lambda kv: str(kv[0])):
        total = sum(r.seconds for r in roots)
        lines.append(f"trace {trace_id}  ({total:.3f} s)")
        for root in roots:
            root_s = root.seconds or 1e-12
            for depth, node in root.walk():
                if max_depth is not None and depth > max_depth:
                    continue
                pct = 100.0 * node.seconds / root_s
                attrs = _span_attrs(node.record)
                lines.append(
                    f"  {'  ' * depth}{node.name:<{max(1, 38 - 2 * depth)}}"
                    f"{node.seconds:>9.3f} s  {pct:5.1f}%"
                    + (f"  [{attrs}]" if attrs else "")
                )
    return lines


def aggregate_spans(traces) -> dict:
    """Per-name totals: ``{name: {count, total, self_total}}``."""
    agg = {}
    for roots in traces.values():
        for root in roots:
            for _, node in root.walk():
                entry = agg.setdefault(
                    node.name, {"count": 0, "total": 0.0, "self_total": 0.0}
                )
                entry["count"] += 1
                entry["total"] += node.seconds
                entry["self_total"] += node.self_seconds
    return agg


# ----------------------------------------------------------------------
# metrics roll-up
# ----------------------------------------------------------------------
def merge_metrics(records) -> dict:
    """Run totals across every per-process ``metrics`` flush event."""
    counters = {}
    gauges = {}
    histograms = {}
    for rec in records:
        if rec.get("event") != "metrics":
            continue
        for name, n in (rec.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + n
        gauges.update(rec.get("gauges") or {})
        for name, hist in (rec.get("histograms") or {}).items():
            merged = histograms.setdefault(name, {
                "count": 0, "finite": 0, "sum": 0.0, "min": None,
                "max": None, "buckets": {},
            })
            for key in ("count", "finite", "sum"):
                merged[key] += hist.get(key, 0)
            # min/max cover finite observations only: None = none yet
            for key, pick in (("min", min), ("max", max)):
                values = [v for v in (merged[key], hist.get(key))
                          if v is not None]
                merged[key] = pick(values) if values else None
            for label, n in (hist.get("buckets") or {}).items():
                merged["buckets"][label] = merged["buckets"].get(label, 0) + n
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def _rate(hits, misses):
    total = hits + misses
    return hits / total if total else None


def derived_rates(counters: dict) -> dict:
    """Headline ratios computed from the merged counters."""
    rates = {}
    hit = counters.get("formulation.cache_hit", 0)
    miss = counters.get("formulation.cache_miss", 0)
    if hit or miss:
        rates["formulation_cache_hit_rate"] = _rate(hit, miss)
    inc = counters.get("sta.incremental_retime", 0)
    full = counters.get("sta.full_retime", 0)
    if inc or full:
        rates["sta_incremental_fraction"] = _rate(inc, full)
    return rates


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def summarize(path) -> dict:
    """Machine-readable report over one manifest (the ``--json`` output)."""
    records, bad_lines = load_manifest(path)
    traces = build_trees(records)
    roots = [root for roots in traces.values() for root in roots]
    metrics = merge_metrics(records)
    events = {}
    for rec in records:
        kind = rec.get("event", "?")
        events[kind] = events.get(kind, 0) + 1
    return {
        "path": str(path),
        "n_events": len(records),
        "bad_lines": bad_lines,
        "events": events,
        "n_traces": len(traces),
        "root_seconds": sum(r.seconds for r in roots),
        "spans": aggregate_spans(traces),
        "metrics": metrics,
        "rates": derived_rates(metrics["counters"]),
    }


def format_report(path, max_depth: int = None, top: int = 10) -> str:
    """Human-readable report text (the default ``report`` output)."""
    records, bad_lines = load_manifest(path)
    traces = build_trees(records)
    lines = [f"manifest {path}: {len(records)} events"
             + (f" ({bad_lines} undecodable lines skipped)" if bad_lines
                else "")]

    if traces:
        lines.append("")
        lines.append("== span tree (wall time) ==")
        lines.extend(format_tree(traces, max_depth=max_depth))

        agg = aggregate_spans(traces)
        lines.append("")
        lines.append(f"== top spans by self time (of {len(agg)} names) ==")
        ranked = sorted(
            agg.items(), key=lambda kv: kv[1]["self_total"], reverse=True
        )
        for name, entry in ranked[:top]:
            lines.append(
                f"  {name:<38}{entry['self_total']:>9.3f} s self"
                f"  {entry['total']:>9.3f} s total  x{entry['count']}"
            )
    else:
        lines.append("no span events (run without spans, or telemetry off)")

    metrics = merge_metrics(records)
    if any(metrics.values()):
        lines.append("")
        lines.append("== run totals (merged metrics) ==")
        for name in sorted(metrics["counters"]):
            lines.append(f"  {name:<38}{metrics['counters'][name]:>9}")
        for name in sorted(metrics["gauges"]):
            lines.append(f"  {name:<38}{metrics['gauges'][name]:>9g}")
        for name in sorted(metrics["histograms"]):
            hist = metrics["histograms"][name]
            # finite-only mean (see repro.obs.metrics)
            mean = hist["sum"] / hist["finite"] if hist["finite"] else None
            summary = "  ".join(
                f"{key} {_fmt(value)}" for key, value in (
                    ("mean", mean), ("min", hist["min"]), ("max", hist["max"])
                )
            )
            lines.append(f"  {name:<38}{hist['count']:>9} obs  {summary}")
        rates = derived_rates(metrics["counters"])
        for name in sorted(rates):
            lines.append(f"  {name:<38}{rates[name]:>9.1%}")
    return "\n".join(lines)

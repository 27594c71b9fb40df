"""Tests for the metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro import telemetry
from repro.obs import metrics


@pytest.fixture
def manifest(tmp_path, monkeypatch):
    path = tmp_path / "run.jsonl"
    monkeypatch.setenv(telemetry.ENV_FLAG, "1")
    monkeypatch.setenv(telemetry.ENV_PATH, str(path))
    telemetry.reset()
    metrics.reset()
    yield path
    metrics.reset()
    telemetry.reset()


def _events(path):
    return [json.loads(l) for l in path.read_text().splitlines()]


class TestRegistry:
    def test_noop_when_telemetry_off(self, tmp_path, monkeypatch):
        monkeypatch.delenv(telemetry.ENV_FLAG, raising=False)
        telemetry.reset()
        metrics.reset()
        try:
            metrics.inc("c")
            metrics.gauge("g", 1.0)
            metrics.observe("h", 5.0)
            snap = metrics.snapshot()
            assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
        finally:
            telemetry.reset()

    def test_counters_accumulate(self, manifest):
        metrics.inc("solves")
        metrics.inc("solves", 2)
        assert metrics.snapshot()["counters"] == {"solves": 3}

    def test_gauge_keeps_latest(self, manifest):
        metrics.gauge("rho", 0.1)
        metrics.gauge("rho", 7.5)
        assert metrics.snapshot()["gauges"] == {"rho": 7.5}

    def test_histogram_summary_and_buckets(self, manifest):
        for v in (1, 2, 3, 100):
            metrics.observe("iters", v)
        (hist,) = metrics.snapshot()["histograms"].values()
        assert hist["count"] == 4
        assert hist["sum"] == 106.0
        assert hist["min"] == 1.0 and hist["max"] == 100.0
        # 1 -> bucket 0 (2^-1 < 1 <= 2^0), 2 -> 1, 3 -> 2, 100 -> 7
        assert hist["buckets"] == {"0": 1, "1": 1, "2": 1, "7": 1}

    def test_non_finite_observations_kept_out_of_summary(self, manifest):
        """A NaN observation (a diverged solve's residual) lands in the
        ``nan`` bucket; min/max/sum and the mean cover finite values."""
        for v in (float("nan"), 1, 4):
            metrics.observe("h", v)
        hist = metrics.snapshot()["histograms"]["h"]
        assert hist["count"] == 3
        assert hist["finite"] == 2
        assert hist["sum"] == 5.0
        assert hist["min"] == 1.0 and hist["max"] == 4.0
        assert hist["buckets"] == {"nan": 1, "0": 1, "2": 1}

    def test_only_non_finite_leaves_min_max_unset(self, manifest):
        metrics.observe("h", float("inf"))
        hist = metrics.snapshot()["histograms"]["h"]
        assert hist["count"] == 1 and hist["finite"] == 0
        assert hist["min"] is None and hist["max"] is None
        assert hist["buckets"] == {"inf": 1}

    def test_bucket_edges(self):
        assert metrics.bucket_of(0) == "-inf"
        assert metrics.bucket_of(-3.0) == "-inf"
        assert metrics.bucket_of(float("-inf")) == "-inf"
        assert metrics.bucket_of(float("inf")) == "inf"
        assert metrics.bucket_of(float("nan")) == "nan"
        assert metrics.bucket_of(1.0) == "0"
        assert metrics.bucket_of(2.0) == "1"
        assert metrics.bucket_of(2.001) == "2"
        assert metrics.bucket_of(0.25) == "-2"

    def test_flush_emits_single_event_and_clears(self, manifest):
        metrics.inc("a")
        metrics.observe("h", 4.0)
        metrics.flush("unit")
        metrics.flush("unit")  # empty registry: second flush is silent
        (event,) = _events(manifest)
        assert event["event"] == "metrics"
        assert event["reason"] == "unit"
        assert event["counters"] == {"a": 1}
        assert event["histograms"]["h"]["count"] == 1
        assert metrics.snapshot()["counters"] == {}

    def test_flush_event_validates_against_schema(self, manifest):
        metrics.inc("a")
        metrics.flush()
        telemetry.reset()
        _, errors = telemetry.validate_manifest(manifest)
        assert errors == []

    def test_empty_registry_flushes_nothing(self, manifest):
        metrics.flush()
        assert not manifest.exists()


class TestMerge:
    def _flush(self, *values):
        metrics.reset()
        for v in values:
            metrics.observe("h", v)
        return {"event": "metrics", **metrics.snapshot()}

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_nan_only_flush_merges_cleanly(self, manifest, nan_first):
        """Merging a flush that holds only a NaN keeps the other
        flush's finite summary; the report's mean uses the finite
        count."""
        from repro.obs.report import merge_metrics

        nan_only = self._flush(float("nan"))
        finite = self._flush(1, 4)
        flushes = [nan_only, finite] if nan_first else [finite, nan_only]
        hist = merge_metrics(flushes)["histograms"]["h"]
        assert hist["count"] == 3 and hist["finite"] == 2
        assert hist["sum"] == 5.0
        assert hist["min"] == 1.0 and hist["max"] == 4.0
        assert hist["buckets"] == {"nan": 1, "0": 1, "2": 1}

    def test_report_mean_divides_by_finite_count(self, manifest):
        for v in (float("nan"), 1, 4):
            metrics.observe("h", v)
        metrics.flush("unit")
        telemetry.reset()
        from repro.obs.report import format_report

        (line,) = [l for l in format_report(manifest).splitlines()
                   if l.strip().startswith("h ")]
        assert "3 obs" in line
        assert "mean 2.5" in line and "min 1" in line and "max 4" in line


def _worker_inc(i):
    metrics.inc("worker.calls")
    return i


class TestProcessExit:
    def test_pool_workers_flush_on_exit(self, manifest):
        """Counters accumulated inside pool workers reach the manifest:
        each worker emits one metrics event when multiprocessing tears
        it down (atexit does not run there), and a fork child starts
        from an empty registry (no double-reported parent counts)."""
        from concurrent.futures import ProcessPoolExecutor

        metrics.inc("parent.only")  # must NOT appear in worker flushes
        with ProcessPoolExecutor(max_workers=2) as ex:
            assert list(ex.map(_worker_inc, range(5))) == [0, 1, 2, 3, 4]
        telemetry.reset()
        flushes = [e for e in _events(manifest) if e["event"] == "metrics"]
        assert flushes  # one per worker that processed anything
        total = sum(
            f["counters"].get("worker.calls", 0) for f in flushes
        )
        assert total == 5
        assert all("parent.only" not in f["counters"] for f in flushes)

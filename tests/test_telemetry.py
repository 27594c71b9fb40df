"""Tests for the structured run telemetry module (repro.telemetry)."""

import json

import pytest

from repro import obs, telemetry
from repro.obs import metrics


@pytest.fixture
def manifest(tmp_path, monkeypatch):
    """Telemetry enabled, writing to a per-test manifest; reset after."""
    path = tmp_path / "run.jsonl"
    monkeypatch.setenv(telemetry.ENV_FLAG, "1")
    monkeypatch.setenv(telemetry.ENV_PATH, str(path))
    monkeypatch.delenv(obs.ENV_CTX, raising=False)
    telemetry.reset()
    metrics.reset()
    yield path
    metrics.reset()
    telemetry.reset()


def _events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _span(**fields):
    """Required ``span`` fields plus ``fields`` (for direct emits)."""
    return {"name": "unit", "trace_id": "t", "span_id": "s",
            "seconds": 0.0, **fields}


class TestSink:
    def test_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(telemetry.ENV_FLAG, raising=False)
        monkeypatch.setenv(telemetry.ENV_PATH, str(tmp_path / "off.jsonl"))
        telemetry.reset()
        try:
            assert not telemetry.enabled()
            telemetry.emit("span", **_span())
            with obs.span("y"):
                pass
            assert not (tmp_path / "off.jsonl").exists()
        finally:
            telemetry.reset()

    def test_emit_writes_base_fields(self, manifest):
        telemetry.emit("span", **_span(name="base"))
        (event,) = _events(manifest)
        assert event["event"] == "span"
        assert event["name"] == "base"
        assert event["v"] == telemetry.SCHEMA_VERSION
        assert isinstance(event["ts"], float)
        assert isinstance(event["pid"], int)

    def test_configure_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(telemetry.ENV_FLAG, raising=False)
        other = tmp_path / "other.jsonl"
        telemetry.reset()
        try:
            telemetry.configure(enabled=True, path=str(other))
            telemetry.emit("span", **_span(name="configured"))
            assert len(_events(other)) == 1
            # configure mirrors to env so worker processes inherit it
            import os

            assert os.environ[telemetry.ENV_FLAG] == "1"
            assert os.environ[telemetry.ENV_PATH] == str(other)
        finally:
            monkeypatch.delenv(telemetry.ENV_FLAG, raising=False)
            monkeypatch.delenv(telemetry.ENV_PATH, raising=False)
            telemetry.reset()

    def test_non_json_payload_stringified(self, manifest):
        telemetry.emit("span", **_span(blocking=["timing"],
                                       probes={"timing": "solved"},
                                       extra=object()))
        (event,) = _events(manifest)  # must not raise on dump
        assert event["blocking"] == ["timing"]

    def test_pathological_payload_degrades_to_repr(self, manifest):
        """A field the JSON encoder rejects outright (circular structure,
        non-string dict keys) degrades to repr() instead of raising and
        killing the run; the healthy fields survive verbatim."""
        circular = []
        circular.append(circular)
        telemetry.emit("span", **_span(name="ok", loop=circular,
                                       weird={(1, 2): "tuple-keyed"}))
        (event,) = _events(manifest)
        assert event["name"] == "ok"  # healthy field intact
        assert isinstance(event["loop"], str)  # degraded, not dropped
        assert "tuple-keyed" in str(event["weird"])

    def test_emit_records_monotonic_base_field(self, manifest):
        telemetry.emit("span", **_span(name="mono"))
        (event,) = _events(manifest)
        assert isinstance(event["mono"], float)

    def test_span_duration_immune_to_wall_clock_step(self, manifest,
                                                     monkeypatch):
        """An NTP step (wall clock jumping backwards mid-span) must not
        produce a negative duration: span() times with perf_counter."""
        import time as time_mod

        real_time = time_mod.time
        # wall clock jumps 1 hour backwards on every later call
        monkeypatch.setattr(
            telemetry.time, "time", lambda: real_time() - 3600.0
        )
        with obs.span("ntp_step"):
            pass
        (event,) = _events(manifest)
        assert event["seconds"] >= 0.0


class TestValidation:
    def test_valid_manifest_passes(self, manifest):
        with obs.span("v"):
            metrics.inc("v.count")
        metrics.flush("test")
        n, errors = telemetry.validate_manifest(manifest)
        assert n == 2
        assert errors == []

    def test_unknown_event_flagged(self, manifest):
        telemetry.emit("not_a_real_event", foo=1)
        # retired schema-v2 kinds are unknown now too
        telemetry.emit("solve", backend="ipm", status="solved",
                       iterations=1, r_prim=0.0, r_dual=0.0, seconds=0.0)
        _, errors = telemetry.validate_manifest(manifest)
        assert sum("unknown event" in e for e in errors) == 2

    def test_missing_fields_flagged(self, manifest):
        telemetry.emit("span", name="x")  # lacks trace_id/span_id/seconds
        _, errors = telemetry.validate_manifest(manifest)
        assert any("missing fields" in e for e in errors)

    def test_invalid_json_flagged(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1}\nnot json at all\n')
        n, errors = telemetry.validate_manifest(bad)
        assert n == 2
        assert any("invalid JSON" in e for e in errors)

    def test_cli_validator_exit_codes(self, manifest, capsys):
        with obs.span("cli"):
            pass
        telemetry.reset()  # flush/close before reading
        assert telemetry.main([str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "1 events, 0 schema errors" in out

    def test_cli_validator_rejects_empty(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert telemetry.main([str(empty)]) == 1

    def test_only_obs_modules_emit(self):
        """One vocabulary: the schema has exactly the two record kinds,
        and only their writers (obs/spans.py, obs/metrics.py) call
        ``telemetry.emit``."""
        import pathlib

        assert set(telemetry.EVENT_SCHEMA) == {"span", "metrics"}
        assert telemetry.SCHEMA_VERSION == 3
        src = pathlib.Path(__file__).parent.parent / "src" / "repro"
        emitters = sorted(
            path.relative_to(src).as_posix()
            for path in src.rglob("*.py")
            if "telemetry.emit(" in path.read_text()
        )
        assert emitters == ["obs/metrics.py", "obs/spans.py"]


class TestEndToEnd:
    def test_dmopt_run_produces_valid_manifest(self, manifest):
        """One traced flow -- QCP DMopt, certification, a 2-point QP
        dose-range sweep and dosePl -- yields a manifest of spans and
        metrics flushes only, with the results on the spans and the
        counts in the metrics."""
        from repro.core import (
            DesignContext,
            certify_result,
            dmopt_dose_range_sweep,
            optimize_dose_map,
        )
        from repro.core.dosepl import DoseplConfig, run_dosepl
        from repro.netlist import make_design
        from repro.obs.report import merge_metrics

        ctx = DesignContext(make_design("AES-65", scale=0.3))
        res = optimize_dose_map(ctx, 30.0, mode="qcp")
        assert res.ok
        assert certify_result(ctx, res).ok
        points = dmopt_dose_range_sweep(ctx, 30.0, [5.0, 4.0], mode="qp")
        assert all(p.ok for p in points)
        assert certify_result(ctx, points[0]).ok
        run_dosepl(ctx, res.dose_map_poly, config=DoseplConfig(rounds=2))
        metrics.flush("test_end")
        telemetry.reset()  # flush before validating

        n, errors = telemetry.validate_manifest(manifest)
        assert errors == []
        records = _events(manifest)
        assert len(records) == n
        assert {e["event"] for e in records} == {"span", "metrics"}

        spans = [e for e in records if e["event"] == "span"]
        dmopt_spans = [e for e in spans if e["name"] == "dmopt"]
        assert len(dmopt_spans) == 3  # the QCP call + two sweep points
        qcp_span = dmopt_spans[0]
        assert qcp_span["mode"] == "qcp"
        assert qcp_span["status"] == res.status
        assert qcp_span["mct"] == res.mct
        assert qcp_span["leakage"] == res.leakage
        for span in dmopt_spans:
            assert {"status", "mct", "leakage"} <= set(span)
        sweep_points = [e for e in spans if e["name"] == "sweep.point"]
        assert [e["status"] for e in sweep_points] == ["solved", "solved"]

        merged = merge_metrics(records)
        counters = merged["counters"]
        assert counters["solver.ipm.solves"] >= 3
        assert counters["certify.ok"] == 2
        assert counters["dosepl.rounds"] == 2
        assert "certify.margin.timing" in merged["histograms"]
        assert "certify.margin.leakage" in merged["histograms"]

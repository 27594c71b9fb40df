"""Tests for independent result certification (repro.core.certify)."""

import pytest

from repro import telemetry
from repro.core import (
    CertificationError,
    DesignContext,
    certify_result,
    enforce_certificate,
    optimize_dose_map,
)
from repro.core.certify import (
    FAMILY_LEAKAGE,
    FAMILY_SIGNOFF,
    TOL_SNAP,
)
from repro.netlist import make_design
from repro.solver.diagnose import FAMILY_DOSE_RANGE, FAMILY_TIMING


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65", scale=0.3))


class TestConvergedSolvesCertify:
    def test_qp(self, ctx):
        res = optimize_dose_map(ctx, 30.0, mode="qp")
        report = certify_result(ctx, res)
        assert report.ok, report.summary()
        assert res.certificate is report
        families = {c.family for c in report.checks}
        assert FAMILY_TIMING in families  # QP re-checks the clock bound
        assert FAMILY_SIGNOFF in families

    def test_qcp(self, ctx):
        res = optimize_dose_map(ctx, 30.0, mode="qcp")
        report = certify_result(ctx, res)
        assert report.ok, report.summary()
        families = {c.family for c in report.checks}
        assert FAMILY_LEAKAGE in families  # QCP re-checks the budget
        assert "certified" in report.summary()

    def test_recomputed_goldens_match_claim(self, ctx):
        res = optimize_dose_map(ctx, 30.0, mode="qcp")
        report = certify_result(ctx, res)
        assert report.recomputed_mct == pytest.approx(res.mct, rel=1e-12)
        assert report.recomputed_leakage == pytest.approx(
            res.leakage, rel=1e-12
        )


class TestPerturbedResultRejected:
    def test_out_of_range_dose_names_family(self, ctx):
        res = optimize_dose_map(ctx, 30.0, mode="qcp")
        res.dose_map_poly.values[0, 0] = res.formulation.dose_range + 4.0
        report = certify_result(ctx, res)
        assert not report.ok
        assert FAMILY_DOSE_RANGE in report.violated_families
        # the claimed goldens no longer reproduce either
        assert FAMILY_SIGNOFF in report.violated_families
        assert "dose_range" in report.summary()

    def test_enforce_raises_with_label(self, ctx):
        res = optimize_dose_map(ctx, 30.0, mode="qcp")
        res.dose_map_poly.values[0, 0] = 99.0
        report = certify_result(ctx, res)
        with pytest.raises(CertificationError, match="AES-65.*dose_range"):
            enforce_certificate(report, label="AES-65")

    def test_snap_slack_is_tolerated(self, ctx):
        # one snap step beyond the continuous bound is spec'd behaviour
        res = optimize_dose_map(ctx, 30.0, mode="qcp")
        dr = res.formulation.dose_range
        res.dose_map_poly.values[:] = 0.0
        res.dose_map_poly.values[0, 0] = dr + TOL_SNAP
        report = certify_result(ctx, res)
        range_check = next(
            c for c in report.checks if c.family == FAMILY_DOSE_RANGE
        )
        assert range_check.ok


class TestLeakageOvershootSemantics:
    """The guard compensates for quadratic-model error without bounding
    it (JPEG-65 at full scale overshoots by ~1.6 %), so the leakage
    family accepts a *declared* overshoot and fails only a silent one.
    """

    def test_declared_overshoot_certifies(self, ctx):
        # guard=0 makes golden leakage land over the budget by exactly
        # the model error; the result declares that in res.leakage
        res = optimize_dose_map(ctx, 30.0, mode="qcp", leakage_guard=0.0)
        assert res.ok
        report = certify_result(ctx, res)
        leak_check = next(
            c for c in report.checks if c.family == FAMILY_LEAKAGE
        )
        assert leak_check.ok, leak_check
        assert report.ok, report.summary()

    def test_silent_overshoot_rejected(self, ctx):
        import dataclasses

        res = optimize_dose_map(ctx, 30.0, mode="qcp")
        # claim leakage well under budget while the dose map's true
        # leakage sits near it: recomputation exceeds both the (shrunk)
        # budget and the claim -> silent overshoot
        lying = dataclasses.replace(
            res, leakage=0.9 * res.baseline_leakage
        )
        report = certify_result(
            ctx,
            lying,
            dose_range=res.formulation.dose_range,
            smoothness=res.formulation.smoothness,
            leakage_budget=-0.05 * res.baseline_leakage,
        )
        assert not report.ok
        assert FAMILY_LEAKAGE in report.violated_families
        assert FAMILY_SIGNOFF in report.violated_families


class TestFormulationFreeResults:
    def test_params_required(self, ctx):
        from repro.resilience.checkpoint import (
            dmopt_result_from_payload,
            dmopt_result_payload,
        )

        res = optimize_dose_map(ctx, 30.0, mode="qcp")
        resumed = dmopt_result_from_payload(dmopt_result_payload(res))
        with pytest.raises(ValueError, match="dose_range and smoothness"):
            certify_result(ctx, resumed)
        report = certify_result(ctx, resumed, dose_range=5.0, smoothness=2.0)
        assert report.ok, report.summary()


class TestHarnessEnforcement:
    def test_certified_cells_smoke(self):
        """Table IV/VI-style smoke cells all pass --certify."""
        from repro.experiments.harness import DMoptCell, run_dmopt_cells

        cells = [
            DMoptCell("AES-65", 30.0, mode="qp", scale=0.3),
            DMoptCell("AES-65", 30.0, mode="qcp", scale=0.3),
        ]
        rows = run_dmopt_cells(cells, jobs=1, certify=True)
        assert all(r["certified"] for r in rows)
        assert all("certified" in r["certificate"] for r in rows)

    def test_failed_certification_raises(self):
        from repro.experiments.harness import (
            CellCertificationError,
            DMoptCell,
            _enforce_certification,
        )

        cells = [DMoptCell("AES-65", 30.0, mode="qp", scale=0.3)]
        rows = [{"status": "solved", "certified": False,
                 "certificate": "certification FAILED (qp): dose_range"}]
        with pytest.raises(CellCertificationError, match="dose_range"):
            _enforce_certification(cells, rows)

    def test_timeout_rows_exempt(self):
        from repro.experiments.harness import (
            DMoptCell,
            STATUS_TIMEOUT,
            _enforce_certification,
        )

        cells = [DMoptCell("AES-65", 30.0, mode="qp", scale=0.3)]
        rows = [{"status": STATUS_TIMEOUT, "certified": False}]
        _enforce_certification(cells, rows)  # must not raise


class TestTelemetry:
    def test_certify_event_emitted(self, ctx, tmp_path, monkeypatch):
        """A certification counts into ``certify.ok`` and observes one
        ``worst / tol`` margin per checked family."""
        from repro.obs import metrics

        manifest = tmp_path / "certify.jsonl"
        monkeypatch.setenv(telemetry.ENV_FLAG, "1")
        monkeypatch.setenv(telemetry.ENV_PATH, str(manifest))
        telemetry.reset()
        metrics.reset()
        try:
            res = optimize_dose_map(ctx, 30.0, mode="qcp")
            report = certify_result(ctx, res)
            snap = metrics.snapshot()
        finally:
            metrics.reset()
            telemetry.reset()
        assert report.ok and report.mode == "qcp"
        assert snap["counters"]["certify.ok"] == 1
        assert "certify.failed" not in snap["counters"]
        margins = {
            name[len("certify.margin."):]: hist
            for name, hist in snap["histograms"].items()
            if name.startswith("certify.margin.")
        }
        assert set(margins) == {c.family for c in report.checks}
        for check in report.checks:
            hist = margins[check.family]
            assert hist["count"] == 1
            assert hist["max"] == pytest.approx(check.worst / check.tol)
            assert hist["max"] <= 1.0  # within tolerance

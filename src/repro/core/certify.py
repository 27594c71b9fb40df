"""Independent certification of DMopt results.

The optimizer's own convergence report is not evidence: it certifies a
*model* (linear delay fits, quadratic leakage) at a *continuous* iterate,
while the deliverable is a snapped dose map whose merit figures come from
golden signoff.  :func:`certify_result` re-verifies a claimed
:class:`~repro.core.dmopt.DMoptResult` against the paper's original
constraint semantics using nothing from the solver:

* **dose_range** -- every snapped grid dose within the correction range
  (paper eq. (3)/(8)), to snap tolerance;
* **smoothness** -- every 8-neighbor (and, when enabled, seam) dose step
  within the smoothness limit (eq. (4)/(9)), to snap tolerance;
* **timing** (QP mode) -- setup timing re-checked by a full STA
  re-analysis at the snapped per-gate doses against the clock bound
  (eq. (6));
* **leakage** (QCP mode) -- exact exponential-model leakage re-checked
  against the budget (eq. (7)), or against the result's *declared*
  leakage when that is higher: the quadratic model's error can exceed
  the compensating ``leakage_guard`` on real designs, and the flow
  reports that overshoot honestly, so only a *silent* overshoot is a
  violation;
* **signoff** -- the recomputed golden MCT/leakage must reproduce the
  numbers the result claims (guards against stale or corrupted results,
  e.g. a checkpoint record from a drifted design).

Tolerances
----------
Snapping moves each grid dose to the characterized 0.5 %-variant grid, so
a snapped map may exceed the *continuous* range/smoothness bounds by up
to one :data:`~repro.library.library.DOSE_STEP`; that slack is the
spec'd behaviour, not a violation.  The timing tolerance equals the
default ``timing_guard`` (0.5 % relative) that DMopt budgets for linear
fit error -- strict against the clock bound, because ceil snapping and
the guard retry keep golden MCT under it by construction.  The leakage
tolerance equals the default ``leakage_guard`` (1 % of baseline)
budgeted for the quadratic model's underestimation of the exponential
(paper footnote 4), measured beyond ``max(budget, declared leakage)``
since the guard compensates for the model error without bounding it.
Signoff consistency is a pure recomputation and gets only
numerical-noise slack.

With telemetry on, every certification counts into ``certify.ok`` or
``certify.failed`` and observes each family's margin ``worst / tol``
into the ``certify.margin.<family>`` histogram, whose max shows how
close a run came to failing that family (1.0 is the tolerance edge).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dmopt import MODE_QP
from repro.library.library import DOSE_STEP
from repro.obs import metrics
from repro.solver.diagnose import (
    FAMILY_DOSE_RANGE,
    FAMILY_SMOOTHNESS,
    FAMILY_TIMING,
)

FAMILY_LEAKAGE = "leakage"
FAMILY_SIGNOFF = "signoff"

#: Absolute slack (dose %) for range/smoothness: one snap step.
TOL_SNAP = DOSE_STEP
#: Relative slack on the QP clock bound (matches default timing_guard).
TOL_TIMING_REL = 0.005
#: Leakage-budget slack as a fraction of baseline leakage (matches
#: default leakage_guard).
TOL_LEAKAGE_REL = 0.01
#: Relative slack for reproducing the claimed golden numbers.
TOL_SIGNOFF_REL = 1e-9


@dataclass
class FamilyCheck:
    """One constraint family's re-verification outcome."""

    family: str
    worst: float  #: worst violation beyond tolerance-free bound (>=0)
    tol: float
    ok: bool
    detail: str = ""

    def __repr__(self):
        mark = "ok" if self.ok else "VIOLATED"
        return (
            f"FamilyCheck({self.family}: {mark}, worst {self.worst:.4g} "
            f"vs tol {self.tol:.4g})"
        )


@dataclass
class CertificateReport:
    """Outcome of independently re-verifying one DMoptResult."""

    ok: bool
    mode: str
    checks: list = field(default_factory=list)
    #: Golden numbers recomputed during certification (full STA + exact
    #: leakage at the snapped doses).
    recomputed_mct: float = float("nan")
    recomputed_leakage: float = float("nan")

    def violations(self) -> list:
        return [c for c in self.checks if not c.ok]

    @property
    def violated_families(self) -> list:
        return [c.family for c in self.violations()]

    def summary(self) -> str:
        if self.ok:
            return (
                f"certified ({self.mode}): all families within tolerance "
                f"(mct {self.recomputed_mct:.4f}, "
                f"leakage {self.recomputed_leakage:.2f})"
            )
        parts = [
            f"{c.family} (worst {c.worst:.4g} > tol {c.tol:.4g}"
            + (f"; {c.detail}" if c.detail else "")
            + ")"
            for c in self.violations()
        ]
        return f"certification FAILED ({self.mode}): " + "; ".join(parts)

    def __repr__(self):
        return f"CertificateReport({self.summary()})"


class CertificationError(AssertionError):
    """A result claimed optimal failed independent re-verification.

    Derives from ``AssertionError``: a failed certificate means an
    internal contract was broken, not that user input was bad.
    """

    def __init__(self, report: CertificateReport, label: str = None):
        self.report = report
        prefix = f"{label}: " if label else ""
        super().__init__(prefix + report.summary())


def _check_dose_range(maps, dose_range: float) -> FamilyCheck:
    worst = 0.0
    where = ""
    for layer_name, dm in maps:
        v = np.asarray(dm.values, dtype=float)
        excess = float(np.max(np.abs(v))) - dose_range
        if excess > worst:
            worst = excess
            i, j = np.unravel_index(int(np.argmax(np.abs(v))), v.shape)
            where = f"{layer_name} grid ({i},{j}) dose {v[i, j]:+.2f}%"
    return FamilyCheck(
        family=FAMILY_DOSE_RANGE,
        worst=max(worst, 0.0),
        tol=TOL_SNAP,
        ok=worst <= TOL_SNAP,
        detail=where,
    )


def _check_smoothness(maps, smoothness: float, seam_pairs) -> FamilyCheck:
    worst = 0.0
    where = ""
    for layer_name, dm in maps:
        part = dm.partition
        v = np.asarray(dm.values, dtype=float)
        pairs = list(part.neighbor_pairs()) + list(seam_pairs)
        for (i1, j1), (i2, j2) in pairs:
            step = abs(v[i1, j1] - v[i2, j2])
            excess = step - smoothness
            if excess > worst:
                worst = excess
                where = (
                    f"{layer_name} ({i1},{j1})-({i2},{j2}) "
                    f"step {step:.2f}%"
                )
    return FamilyCheck(
        family=FAMILY_SMOOTHNESS,
        worst=max(worst, 0.0),
        tol=TOL_SNAP,
        ok=worst <= TOL_SNAP,
        detail=where,
    )


def certify_result(
    ctx,
    res,
    dose_range: float = None,
    smoothness: float = None,
    timing_bound: float = None,
    leakage_budget: float = 0.0,
    seam_smoothness: bool = None,
    attach: bool = True,
) -> CertificateReport:
    """Re-verify a DMoptResult against the original constraint semantics.

    Parameters
    ----------
    ctx:
        The :class:`~repro.core.model.DesignContext` the result came
        from (supplies the golden STA and exact leakage model).
    res:
        The :class:`~repro.core.dmopt.DMoptResult` to certify.
    dose_range, smoothness, seam_smoothness:
        Constraint parameters; default to the result's formulation
        (required explicitly for formulation-free results, e.g. rebuilt
        from a checkpoint).
    timing_bound:
        QP clock bound tau; defaults to the design's baseline MCT -- the
        driver default ("improve leakage without degrading timing").
    leakage_budget:
        QCP allowed leakage *increase* (uW) over baseline; default 0.
    attach:
        Store the report on ``res.certificate``.

    Returns
    -------
    CertificateReport
        ``report.ok`` is the verdict; violations name their constraint
        family.  The caller decides whether to raise (see
        :func:`enforce_certificate`).
    """
    form = res.formulation
    if dose_range is None:
        dose_range = form.dose_range if form is not None else None
    if smoothness is None:
        smoothness = form.smoothness if form is not None else None
    if seam_smoothness is None:
        seam_smoothness = form.seam_smoothness if form is not None else False
    if dose_range is None or smoothness is None:
        raise ValueError(
            "certify_result needs dose_range and smoothness: the result "
            "carries no formulation (resumed from checkpoint?), so pass "
            "them explicitly"
        )

    maps = [("poly", res.dose_map_poly)]
    if res.dose_map_active is not None:
        maps.append(("active", res.dose_map_active))
    seam_pairs = []
    if seam_smoothness:
        from repro.core.formulate import _seam_pairs

        seam_pairs = _seam_pairs(res.dose_map_poly.partition)

    checks = [
        _check_dose_range(maps, float(dose_range)),
        _check_smoothness(maps, float(smoothness), seam_pairs),
    ]

    # independent golden re-analysis: full STA + exact leakage at the
    # snapped doses (snapping is idempotent on an already-snapped map)
    golden, leak = ctx.golden_eval(res.dose_map_poly, res.dose_map_active)
    mct = float(golden.mct)
    leak = float(leak)

    scale_t = max(abs(res.mct), 1e-12)
    scale_l = max(abs(res.leakage), 1e-12)
    signoff_err = max(
        abs(mct - res.mct) / scale_t, abs(leak - res.leakage) / scale_l
    )
    checks.append(
        FamilyCheck(
            family=FAMILY_SIGNOFF,
            worst=signoff_err,
            tol=TOL_SIGNOFF_REL,
            ok=signoff_err <= TOL_SIGNOFF_REL,
            detail=(
                f"claimed mct {res.mct:.6f}/leak {res.leakage:.4f}, "
                f"recomputed {mct:.6f}/{leak:.4f}"
            ),
        )
    )

    if res.mode == MODE_QP:
        tau = (
            float(timing_bound)
            if timing_bound is not None
            else float(res.baseline_mct)
        )
        excess = (mct - tau) / max(tau, 1e-12)
        checks.append(
            FamilyCheck(
                family=FAMILY_TIMING,
                worst=max(excess, 0.0),
                tol=TOL_TIMING_REL,
                ok=excess <= TOL_TIMING_REL,
                detail=f"golden mct {mct:.4f} vs bound {tau:.4f}",
            )
        )
    else:
        budget_abs = float(res.baseline_leakage) + float(leakage_budget)
        # The guard subtracted from the QCP's internal budget is
        # calibrated compensation for the quadratic model's
        # underestimation, not a bound on it: on designs where the model
        # error exceeds the guard, golden leakage legitimately lands
        # over the budget and the result *declares* that in
        # ``res.leakage`` (and the table's leakage columns).  The
        # leakage family therefore catches only *silent* overshoots --
        # recomputed leakage beyond both the budget and the claim; the
        # claim's own integrity is the signoff family's job.
        bound = max(budget_abs, float(res.leakage))
        excess = (leak - bound) / max(abs(res.baseline_leakage), 1e-12)
        detail = f"golden leakage {leak:.2f} vs budget {budget_abs:.2f}"
        if float(res.leakage) > budget_abs:
            detail += f" (declared overshoot {res.leakage:.2f})"
        checks.append(
            FamilyCheck(
                family=FAMILY_LEAKAGE,
                worst=max(excess, 0.0),
                tol=TOL_LEAKAGE_REL,
                ok=excess <= TOL_LEAKAGE_REL,
                detail=detail,
            )
        )

    report = CertificateReport(
        ok=all(c.ok for c in checks),
        mode=res.mode,
        checks=checks,
        recomputed_mct=mct,
        recomputed_leakage=leak,
    )
    metrics.inc("certify.ok" if report.ok else "certify.failed")
    for check in checks:
        # worst / tol: 1.0 is the edge of the family's tolerance
        metrics.observe(f"certify.margin.{check.family}",
                        check.worst / check.tol)
    if attach:
        res.certificate = report
    return report


def enforce_certificate(report: CertificateReport, label: str = None):
    """Raise :class:`CertificationError` when a certificate failed."""
    if not report.ok:
        raise CertificationError(report, label=label)

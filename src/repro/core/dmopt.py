"""DMopt: design-aware dose map optimization (the paper's core method).

Two driver modes, matching Section III:

* ``mode="qp"`` -- *minimize delta-leakage subject to a clock bound*
  (Section III-A-1 / III-B-1): quadratic objective, all-linear
  constraints, solved by :func:`repro.solver.qp.solve_qp`.
* ``mode="qcp"`` -- *minimize clock period subject to a leakage budget*
  (Section III-A-2 / III-B-2): linear objective plus the quadratic
  delta-leakage constraint, solved by :func:`repro.solver.qcp.solve_qcp`.

Both return golden-signoff numbers: the continuous dose solution is
snapped to the characterized 0.5 %-step variant grid and re-evaluated
with the full STA and the exact leakage model.  Signoff goes through
``ctx.golden_eval``, i.e. the compiled STA engine
(see :mod:`repro.sta.compiled`).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from repro import obs, telemetry
from repro.constants import DEFAULT_DOSE_RANGE, DEFAULT_SMOOTHNESS
from repro.core.formulate import Formulation, build_formulation
from repro.core.snap import SNAP_CEIL, SNAP_NEAREST, snap_dose_map
from repro.solver import (
    METHOD_IPM,
    InfeasibilityReport,
    SolveResult,
    diagnose_infeasibility,
    solve_qcp,
    solve_qp_robust,
)

MODE_QP = "qp"
MODE_QCP = "qcp"


def _warm_state(solve: SolveResult) -> dict:
    """Solver warm-start dict from a previous result (None passthrough)."""
    if solve is None:
        return None
    state = {"x": solve.x}
    for key in ("z", "y"):
        val = solve.info.get(key)
        if val is not None:
            state[key] = val
    return state


@dataclass
class DMoptResult:
    """Outcome of one dose-map optimization.

    Golden numbers (``mct``, ``leakage``) come from signoff re-analysis
    with snapped doses; ``predicted_*`` are the optimizer's own model
    values at the continuous solution (useful to study approximation
    error, e.g. the paper's Table V JPEG-65 anomaly).
    """

    mode: str
    dose_map_poly: object
    dose_map_active: object
    mct: float
    leakage: float
    baseline_mct: float
    baseline_leakage: float
    predicted_T: float
    predicted_delta_leakage: float
    solve: SolveResult
    formulation: Formulation
    runtime: float
    infeasibility: InfeasibilityReport = None
    #: Filled by :func:`repro.core.certify.certify_result` when the
    #: result has been independently re-verified.
    certificate: object = None

    @property
    def ok(self) -> bool:
        """Whether the solve converged and the dose maps are usable."""
        return self.solve.ok

    @property
    def status(self) -> str:
        return self.solve.status

    @property
    def mct_improvement_pct(self) -> float:
        return (self.baseline_mct - self.mct) / self.baseline_mct * 100.0

    @property
    def leakage_improvement_pct(self) -> float:
        return (
            (self.baseline_leakage - self.leakage) / self.baseline_leakage * 100.0
        )

    def __repr__(self):
        if not self.ok:
            detail = (
                self.infeasibility.summary()
                if self.infeasibility is not None
                else self.solve.info.get("note", "")
            )
            return f"DMoptResult({self.mode}, {self.status}: {detail})"
        return (
            f"DMoptResult({self.mode}, MCT {self.baseline_mct:.3f}->"
            f"{self.mct:.3f} ns ({self.mct_improvement_pct:+.2f}%), leakage "
            f"{self.baseline_leakage:.1f}->{self.leakage:.1f} uW "
            f"({self.leakage_improvement_pct:+.2f}%))"
        )


def _spanned(fn):
    """Run a DMopt call under a ``dmopt`` tracing span (no-op when off).

    The span carries the design / grid / mode attributes and, on the
    way out, the result's ``status`` and golden ``mct`` / ``leakage``
    -- so a run manifest shows one ``dmopt`` node per optimization with
    ``dmopt.solve`` / ``dmopt.signoff`` / ``dmopt.diagnose`` children.
    """

    @functools.wraps(fn)
    def wrapper(ctx, grid_size, *args, **kwargs):
        if not telemetry.enabled():
            return fn(ctx, grid_size, *args, **kwargs)
        mode = kwargs.get("mode", args[0] if args else MODE_QCP)
        with obs.span(
            "dmopt",
            design=getattr(getattr(ctx, "bundle", None), "name", None),
            grid=float(grid_size),
            mode=mode,
        ) as sp:
            res = fn(ctx, grid_size, *args, **kwargs)
            if sp is not None:
                sp.update(status=res.status, mct=res.mct,
                          leakage=res.leakage)
            return res

    return wrapper


@_spanned
def optimize_dose_map(
    ctx,
    grid_size: float,
    mode: str = MODE_QCP,
    both_layers: bool = False,
    dose_range: float = DEFAULT_DOSE_RANGE,
    smoothness: float = DEFAULT_SMOOTHNESS,
    seam_smoothness: bool = False,
    timing_bound: float = None,
    timing_guard: float = 0.005,
    leakage_budget: float = 0.0,
    leakage_guard: float = 0.01,
    method: str = METHOD_IPM,
    snap_mode: str = None,
    qp_kwargs: dict = None,
    warm_start: SolveResult = None,
    time_limit: float = None,
) -> DMoptResult:
    """Run DMopt on a design context.

    Parameters
    ----------
    ctx:
        A :class:`~repro.core.model.DesignContext`.
    grid_size:
        Grid edge ``G`` in um.
    mode:
        ``"qp"`` (min leakage s.t. timing) or ``"qcp"`` (min T s.t.
        leakage).
    both_layers:
        Optimize poly and active doses simultaneously (gate length and
        width modulation).
    timing_bound:
        tau for QP mode; defaults to the design's baseline MCT tightened
        by ``timing_guard`` ("improve leakage without degrading timing",
        the Table IV/VI setting).
    timing_guard:
        Relative guard band subtracted from the default tau so that the
        linear delay-fit error and dose snapping cannot push golden MCT
        past the baseline.  Ignored when ``timing_bound`` is given.  On
        coarse grids a forced speed-up can cost more leakage than the
        dose map recovers; when golden signoff detects that, the QP is
        re-solved once without the guard (signoff-driven iteration, in
        the spirit of the paper's Fig. 7 loop).
    leakage_budget:
        xi for QCP mode: allowed *increase* in total leakage (uW);
        defaults to 0 ("improve timing without leakage increase", the
        Table IV/V setting).
    leakage_guard:
        Fraction of baseline leakage subtracted from the internal QCP
        budget to absorb the quadratic leakage model's underestimation
        of the true exponential (paper footnote 4) plus snap error, so
        golden leakage lands at or under the requested budget.
    method:
        Inner solver backend: ``"ipm"`` (default; fast interior point)
        or ``"admm"`` (the OSQP-style first-order method).
    snap_mode:
        How continuous doses are rounded to characterized variants.
        Defaults per mode: ``"ceil"`` for QP (snapping can only speed
        gates up, so the clock bound survives signoff) and ``"nearest"``
        for QCP (minimum leakage-model error around the budget).
    warm_start:
        Optional :class:`~repro.solver.SolveResult` of a structurally
        identical solve (an adjacent sweep point): its primal/dual state
        seeds the inner solver and, for QCP, its multiplier seeds the
        bisection bracket.
    time_limit:
        Optional wall-clock budget in seconds for *all* solver work in
        this call (fallback chain, QCP root search, guard retry).  On
        expiry the best iterate so far is signed off (or the failure
        path taken); the call never spins indefinitely.
    """
    if mode not in (MODE_QP, MODE_QCP):
        raise ValueError(f"mode must be 'qp' or 'qcp', got {mode!r}")
    if snap_mode is None:
        snap_mode = SNAP_CEIL if mode == MODE_QP else SNAP_NEAREST
    t_start = time.perf_counter()
    if hasattr(ctx, "formulation_for"):
        form = ctx.formulation_for(
            grid_size,
            both_layers=both_layers,
            dose_range=dose_range,
            smoothness=smoothness,
            seam_smoothness=seam_smoothness,
        )
    else:
        form = build_formulation(
            ctx,
            grid_size,
            both_layers=both_layers,
            dose_range=dose_range,
            smoothness=smoothness,
            seam_smoothness=seam_smoothness,
        )
    qp_kwargs = dict(qp_kwargs or {})
    # pattern workspaces survive in the formulation's shared dict, so
    # retargeted sweep siblings keep reusing them; QP and QCP rows have
    # different finiteness masks, hence separate slots
    solver_ws = form.shared.setdefault(("ipm_ws", mode), {})
    solve_deadline = (
        t_start + float(time_limit) if time_limit is not None else None
    )

    def _budget_left():
        """Remaining solver budget in seconds (None = unlimited)."""
        if solve_deadline is None:
            return None
        return max(solve_deadline - time.perf_counter(), 1e-3)

    def _solve_and_sign_off(tau, warm):
        with obs.span("dmopt.solve", mode=mode):
            if mode == MODE_QP:
                u = form.u.copy()
                u[form.row_clock] = tau
                solve = solve_qp_robust(
                    form.P_leak,
                    form.q_leak,
                    form.A,
                    form.l,
                    u,
                    method=method,
                    qp_kwargs=qp_kwargs,
                    warm=_warm_state(warm),
                    workspace=solver_ws,
                    time_limit=_budget_left(),
                )
            else:
                c = np.zeros(form.n_vars)
                c[form.idx_T] = 1.0
                budget = (
                    float(leakage_budget) - leakage_guard * ctx.baseline_leakage
                )
                solve = solve_qcp(
                    c,
                    form.A,
                    form.l,
                    form.u,
                    form.P_leak,
                    form.q_leak,
                    s=budget,
                    method=method,
                    qp_kwargs=qp_kwargs,
                    warm=_warm_state(warm),
                    lam_hint=warm.info.get("lam") if warm is not None else None,
                    workspace=solver_ws,
                    time_limit=_budget_left(),
                )
        if solve.failed:
            # never sign off on a failed iterate: no snap, no golden eval
            return solve, None, None, float("nan"), None, float("nan")
        with obs.span("dmopt.signoff"):
            poly, active, t_pred = form.split(solve.x)
            poly = snap_dose_map(poly, ctx.library, mode=snap_mode)
            if active is not None:
                active = snap_dose_map(active, ctx.library, mode=snap_mode)
            golden, leak = ctx.golden_eval(poly, active)
        return solve, poly, active, t_pred, golden, leak

    if mode == MODE_QP and timing_bound is None:
        tau = ctx.baseline.mct * (1.0 - timing_guard)
    elif mode == MODE_QP:
        tau = float(timing_bound)
    else:
        tau = None
    solve, poly, active, t_pred, golden, leak = _solve_and_sign_off(
        tau, warm_start
    )

    if (
        solve.ok
        and mode == MODE_QP
        and timing_bound is None
        and timing_guard > 0
        and leak > ctx.baseline_leakage
    ):
        # golden signoff found the guard-forced speed-up costs more
        # leakage than this grid granularity recovers: re-solve without
        # the guard (tau = baseline MCT), warm-started from the guarded
        # solution (only the clock bound moved)
        retry = _solve_and_sign_off(ctx.baseline.mct, solve)
        if retry[0].ok and retry[5] < leak:
            solve, poly, active, t_pred, golden, leak = retry

    if solve.failed:
        # degrade gracefully: attribute the failure to a constraint
        # family, hand back the untouched baseline (zero delta doses)
        with obs.span("dmopt.diagnose") as sp:
            report = diagnose_infeasibility(
                form, tau=tau, qp_kwargs=qp_kwargs
            )
            if sp is not None:
                sp.update(
                    blocking=report.blocking,
                    tau_min=report.tau_min,
                    tau_slack_needed=report.tau_slack_needed,
                    probes=report.probes,
                )
        poly, active, _ = form.split(np.zeros(form.n_vars))
        return DMoptResult(
            mode=mode,
            dose_map_poly=poly,
            dose_map_active=active,
            mct=ctx.baseline.mct,
            leakage=ctx.baseline_leakage,
            baseline_mct=ctx.baseline.mct,
            baseline_leakage=ctx.baseline_leakage,
            predicted_T=float("nan"),
            predicted_delta_leakage=float("nan"),
            solve=solve,
            formulation=form,
            runtime=time.perf_counter() - t_start,
            infeasibility=report,
        )

    return DMoptResult(
        mode=mode,
        dose_map_poly=poly,
        dose_map_active=active,
        mct=golden.mct,
        leakage=leak,
        baseline_mct=ctx.baseline.mct,
        baseline_leakage=ctx.baseline_leakage,
        predicted_T=t_pred,
        predicted_delta_leakage=form.predicted_delta_leakage(solve.x),
        solve=solve,
        formulation=form,
        runtime=time.perf_counter() - t_start,
    )

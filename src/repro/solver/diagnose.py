"""Infeasibility diagnosis for DMopt programs (relax-and-resolve probing).

When a DMopt solve comes back ``infeasible`` the interesting question
is *which constraint family kills it*: the dose range ``L <= d <= U``
(paper eq. 3/8), the smoothness bound ``delta`` (eq. 4/9), or the
clock bound ``tau`` (eq. 6/11).  :func:`diagnose_infeasibility` probes
this by re-solving feasibility problems with one family relaxed at a
time; a family whose relaxation restores feasibility is implicated.

For the timing family the diagnosis is quantitative: the tightest
achievable clock bound ``tau_min`` is found by minimizing ``T`` subject
to every *other* constraint, so the report carries the minimal slack
``tau_min - tau`` a caller must concede -- the paper's tau/delta
trade-off surfaced as data instead of a dead solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.solver.robust import METHOD_IPM, solve_qp_robust

#: Constraint family labels used in reports and probes.
FAMILY_DOSE_RANGE = "dose_range"
FAMILY_SMOOTHNESS = "smoothness"
FAMILY_TIMING = "timing"


@dataclass
class InfeasibilityReport:
    """Outcome of relax-and-resolve probing on an infeasible DMopt solve.

    Attributes
    ----------
    blocking:
        Constraint families whose relaxation (alone) restores
        feasibility, in probe order.  Empty when no single family
        explains the conflict (structurally infeasible program).
    tau_requested:
        The clock bound that was asked for (``None`` in QCP mode).
    tau_min:
        Tightest achievable clock bound under the dose-range and
        smoothness limits (``None`` when even the clock-free program is
        infeasible).
    tau_slack_needed:
        ``max(0, tau_min - tau_requested)`` -- the minimal concession
        that would make the program feasible, when both are known.
    probes:
        Per-family probe outcome: family -> solver status string.
    seconds:
        Wall-clock cost of the diagnosis.
    """

    blocking: list = field(default_factory=list)
    tau_requested: float = None
    tau_min: float = None
    tau_slack_needed: float = None
    probes: dict = field(default_factory=dict)
    seconds: float = 0.0

    def summary(self) -> str:
        if not self.blocking:
            return "infeasible: no single constraint family explains it"
        parts = [f"infeasible: blocking families {self.blocking}"]
        if self.tau_min is not None and self.tau_requested is not None:
            parts.append(
                f"tau={self.tau_requested:.4f} requested but "
                f"tau_min={self.tau_min:.4f} achievable "
                f"(needs +{self.tau_slack_needed:.4f} ns slack)"
            )
        elif self.tau_min is not None:
            parts.append(f"tau_min={self.tau_min:.4f} achievable")
        return "; ".join(parts)


def _relaxed_bounds(form, family, tau):
    """(l, u) with one constraint family's rows opened to +-inf."""
    l = form.l.copy()
    u = form.u.copy()
    u[form.row_clock] = np.inf if tau is None else float(tau)
    nr, ns = form.n_range_rows, form.n_smooth_rows
    if family == FAMILY_DOSE_RANGE:
        l[:nr] = -np.inf
        u[:nr] = np.inf
    elif family == FAMILY_SMOOTHNESS:
        l[nr : nr + ns] = -np.inf
        u[nr : nr + ns] = np.inf
    elif family == FAMILY_TIMING:
        u[form.row_clock] = np.inf
    return l, u


def _feasibility_probe(form, l, u, qp_kwargs=None):
    """Solve a pure feasibility problem over the given bounds.

    A tiny ridge keeps the IPM's normal matrix positive definite; the
    objective value is irrelevant, only the status matters.
    """
    n = form.n_vars
    ridge = sp.eye(n, format="csc") * 1e-8
    return solve_qp_robust(
        ridge,
        np.zeros(n),
        form.A,
        l,
        u,
        method=METHOD_IPM,
        qp_kwargs=qp_kwargs,
    )


def min_achievable_tau(form, qp_kwargs: dict = None):
    """Tightest clock bound achievable under the non-timing constraints.

    Minimizes ``T`` subject to every constraint except the clock row.
    Returns ``(tau_min, SolveResult)``; ``tau_min`` is ``None`` when
    even that program fails to solve.
    """
    n = form.n_vars
    c = np.zeros(n)
    c[form.idx_T] = 1.0
    l = form.l.copy()
    u = form.u.copy()
    u[form.row_clock] = np.inf
    ridge = sp.eye(n, format="csc") * 1e-10
    res = solve_qp_robust(ridge, c, form.A, l, u, method=METHOD_IPM,
                          qp_kwargs=qp_kwargs)
    if res.ok:
        return float(res.x[form.idx_T]), res
    return None, res


def diagnose_infeasibility(
    form,
    tau: float = None,
    qp_kwargs: dict = None,
) -> InfeasibilityReport:
    """Attribute an infeasible DMopt program to a constraint family.

    Parameters
    ----------
    form:
        The :class:`~repro.core.formulate.Formulation` that produced the
        infeasible solve.
    tau:
        The clock bound in force during that solve (``None`` when the
        clock row was open, e.g. QCP mode).
    qp_kwargs:
        Forwarded to the probe solves.

    Returns
    -------
    InfeasibilityReport
    """
    t0 = time.perf_counter()
    report = InfeasibilityReport(tau_requested=tau)

    families = [FAMILY_TIMING, FAMILY_DOSE_RANGE, FAMILY_SMOOTHNESS]
    if tau is None:
        # without a clock bound the timing family cannot be the culprit
        families = [FAMILY_DOSE_RANGE, FAMILY_SMOOTHNESS]
    for family in families:
        l, u = _relaxed_bounds(form, family, tau)
        probe = _feasibility_probe(form, l, u, qp_kwargs=qp_kwargs)
        report.probes[family] = probe.status
        if probe.ok:
            report.blocking.append(family)

    if tau is not None and FAMILY_TIMING in report.blocking:
        tau_min, _ = min_achievable_tau(form, qp_kwargs=qp_kwargs)
        report.tau_min = tau_min
        if tau_min is not None:
            report.tau_slack_needed = max(0.0, tau_min - float(tau))

    report.seconds = time.perf_counter() - t0
    return report

"""Quadratically constrained program solver: one primal-dual IPM run.

The paper's QCP ("minimize T subject to ... DeltaLeakage <= xi") has a
linear objective, linear constraints, and exactly **one convex quadratic
constraint**.  :func:`solve_qcp` solves it the way the paper does with a
barrier method: one Mehrotra interior-point run in which the budget
``(1/2)x'Qx + g'x <= s`` is one more inequality, with its own slack
``t`` and multiplier ``y`` (see :func:`repro.solver.ipm.solve_qp_ipm`).
The run goes through :func:`repro.solver.robust.solve_qp_robust`, whose
chain for a QCP is

1. the one-shot IPM, warm from ``{x, z, lam}`` when seeded;
2. a cold retry with the IPM regularized at ``RETRY_REG``;
3. :func:`bisect_qcp`, the Lagrangian root search over QP solves, as
   the last step (it also attributes an infeasible verdict to the
   linear system or to an unattainable budget).

A budget that is slack at the optimum reports ``lam == 0.0``: the final
pair counts as slack when ``t/scale_q > y*scale_q/scale_obj``, with
``scale_q = max(1, |s|)`` and ``scale_obj = max(1, |c|_inf)``.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.obs import metrics
from repro.solver.robust import METHOD_IPM, solve_qp_robust
from repro.solver.result import STATUS_MAX_ITER, SolveResult


def _quad_value(Q, g, x) -> float:
    return float(0.5 * x @ (Q @ x) + g @ x)


def solve_qcp(
    c,
    A,
    l,
    u,
    Q,
    g,
    s,
    lam_tol: float = 1e-3,
    feas_tol: float = 1e-4,
    max_root_steps: int = 30,
    qp_kwargs: dict = None,
    warm: dict = None,
    workspace: dict = None,
    time_limit: float = None,
) -> SolveResult:
    """Solve ``min c'x  s.t.  l <= Ax <= u,  (1/2)x'Qx + g'x <= s``.

    Parameters
    ----------
    c:
        Linear objective (n,).
    A, l, u:
        Linear constraints.
    Q, g, s:
        The convex quadratic constraint (Q PSD).
    lam_tol, feas_tol, max_root_steps:
        Tolerances of the bisection fallback (see :func:`bisect_qcp`).
    qp_kwargs:
        Extra keyword arguments for the IPM (``max_iter``, ``tol``).
    warm:
        Optional previous solution state ``{"x", "z", "lam"}`` (a
        previous result's ``x`` and ``info["z"]`` / ``info["lam"]``)
        seeding the one-shot IPM.
    workspace:
        Mutable dict carrying the IPM's pattern workspace across calls
        (see :func:`solve_qp_ipm`).
    time_limit:
        Wall-clock budget in seconds shared by the whole fallback chain.

    Returns
    -------
    SolveResult
        ``info`` carries the multiplier ``lam`` (exactly 0 for a slack
        budget, flagged by ``budget_slack``), the constraint value
        ``quad``, the IPM duals ``z``, the number of IPM solves
        ``inner_solves`` (1 on the happy path) and the chain's
        ``attempts``.
    """
    t_start = time.perf_counter()
    c = np.asarray(c, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    Q = sp.csc_matrix(Q)
    s = float(s)
    n = c.size

    def bisection(time_limit):
        return bisect_qcp(
            c, A, l, u, Q, g, s,
            lam_tol=lam_tol,
            feas_tol=feas_tol,
            max_root_steps=max_root_steps,
            qp_kwargs=qp_kwargs,
            workspace=workspace,
            time_limit=time_limit,
        )

    res = solve_qp_robust(
        sp.csc_matrix((n, n)),
        c,
        A,
        l,
        u,
        qp_kwargs=qp_kwargs,
        warm=warm,
        workspace=workspace,
        time_limit=time_limit,
        quad=(Q, g, s),
        fallback=bisection,
    )
    info = dict(res.info)
    info["inner_solves"] = info.get("inner_solves", 0) + sum(
        a["backend"] == METHOD_IPM for a in info["attempts"]
    )
    if "slack" in info:  # the one-shot IPM's own pair (t, y)
        scale_q = max(1.0, abs(s))
        scale_obj = max(1.0, float(np.linalg.norm(c, np.inf)))
        slack = info["slack"] / scale_q > info["lam"] * scale_q / scale_obj
        info["budget_slack"] = bool(slack)
        if slack:
            info["lam"] = 0.0
    metrics.inc("solver.qcp.solves")
    metrics.inc(f"solver.qcp.status.{res.status}")
    metrics.observe("solver.qcp.inner_solves", info["inner_solves"])
    return SolveResult(
        status=res.status,
        x=res.x,
        obj=float(c @ res.x),
        iterations=res.iterations,
        r_prim=res.r_prim,
        r_dual=res.r_dual,
        solve_time=time.perf_counter() - t_start,
        info=info,
        warm_started=res.warm_started,
    )


def bisect_qcp(
    c,
    A,
    l,
    u,
    Q,
    g,
    s,
    lam_tol: float = 1e-3,
    feas_tol: float = 1e-4,
    max_root_steps: int = 30,
    qp_kwargs: dict = None,
    workspace: dict = None,
    time_limit: float = None,
) -> SolveResult:
    """The QCP by exact Lagrangian root-finding over cold QP solves.

    Strong duality turns the QCP into a one-dimensional search: dualize
    the quadratic constraint with multiplier lam >= 0, solve the QP

        min  c'x + lam * ((1/2) x'Q x + g'x - s)   s.t.  l <= A x <= u,

    and drive h(lam) = (1/2)x'Qx + g'x - s to zero.  h(lam) is
    non-increasing in lam.  The search brackets the root geometrically
    (lam grows tenfold from 1e-4) and then bisects the bracket -- in
    log space once its lower end is positive -- until it is ``lam_tol``
    tight or h(lam) is within ``feas_tol`` (relative to
    ``max(1, |s|)``).  An exhausted ``time_limit`` stops the search on
    the best bracketed iterate.  ``info`` carries ``lam``, ``quad`` and
    the number of QP solves ``inner_solves``.
    """
    t_start = time.perf_counter()
    qp_kwargs = dict(qp_kwargs or {})
    c = np.asarray(c, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    Q = sp.csc_matrix(Q)
    scale = max(1.0, abs(float(s)))
    total_iters = 0
    deadline = (
        t_start + float(time_limit) if time_limit is not None else None
    )

    def out_of_time() -> bool:
        return deadline is not None and time.perf_counter() >= deadline

    def inner(lam: float):
        nonlocal total_iters
        res = solve_qp_robust(
            lam * Q,
            c + lam * g,
            A,
            l,
            u,
            qp_kwargs=qp_kwargs,
            workspace=workspace,
            time_limit=(
                max(deadline - time.perf_counter(), 1e-3)
                if deadline is not None
                else None
            ),
        )
        total_iters += res.iterations
        return res

    def h_of(res) -> float:
        return _quad_value(Q, g, res.x) - s

    def _package(res, lam, steps, status=None, note=None):
        info = {
            "lam": lam,
            "quad": _quad_value(Q, g, res.x),
            "inner_solves": steps,
        }
        if res.info.get("z") is not None:
            info["z"] = res.info["z"]
        if note:
            info["note"] = note
        return SolveResult(
            status=status or res.status,
            x=res.x,
            obj=float(c @ res.x),
            iterations=total_iters,
            r_prim=res.r_prim,
            r_dual=res.r_dual,
            solve_time=time.perf_counter() - t_start,
            info=info,
        )

    # lam = 0: if already feasible we are done (constraint slack).
    res_lo = inner(0.0)
    steps = 1
    if res_lo.failed:
        # the linear constraints alone are infeasible (or the chain
        # exhausted every backend): surface the diagnosis, don't bisect
        return _package(
            res_lo,
            0.0,
            steps,
            note="linear constraint system failed at lam=0: "
            + res_lo.info.get("note", res_lo.status),
        )
    h0 = h_of(res_lo)
    if h0 <= feas_tol * scale:
        return _package(res_lo, 0.0, steps)
    h_scale = max(abs(h0), scale)

    # bracket geometrically from a small multiplier: the optimal lam is
    # the marginal objective cost per unit of quadratic budget, which for
    # the dose-map programs is typically far below 1
    lam_lo, lam_hi = 0.0, 1e-4
    res_hi = inner(lam_hi)
    h_hi = h_of(res_hi)
    steps += 1
    while h_hi > feas_tol * h_scale:
        if out_of_time():
            return _package(
                res_hi,
                lam_hi,
                steps,
                status=STATUS_MAX_ITER,
                note="time limit reached during bracket expansion",
            )
        lam_lo = lam_hi
        lam_hi *= 10.0
        res_hi = inner(lam_hi)
        steps += 1
        if res_hi.failed:
            return _package(
                res_hi, lam_hi, steps,
                note="inner solve failed during bracket expansion",
            )
        h_hi = h_of(res_hi)
        if lam_hi > 1e12:
            return _package(
                res_hi,
                lam_hi,
                steps,
                status=STATUS_MAX_ITER,
                note="quadratic budget appears unattainable",
            )

    # bisection (log-space once the bracket is positive) on h(lam),
    # which is non-increasing in lam
    best, best_lam = res_hi, lam_hi
    while (
        steps < max_root_steps
        and (lam_hi - lam_lo) > lam_tol * max(lam_hi, 1e-9)
        and abs(h_hi) > 0.1 * feas_tol * h_scale
    ):
        if out_of_time():
            return _package(
                best,
                best_lam,
                steps,
                note="time limit reached during root search; best "
                "bracketed iterate returned",
            )
        if lam_lo > 0:
            lam_mid = float(np.sqrt(lam_lo * lam_hi))
        else:
            lam_mid = 0.5 * (lam_lo + lam_hi)
        res_mid = inner(lam_mid)
        steps += 1
        if res_mid.failed:
            break  # keep the best bracketed iterate found so far
        h_mid = h_of(res_mid)
        if h_mid <= feas_tol * h_scale:
            lam_hi, h_hi, res_hi = lam_mid, h_mid, res_mid
            best, best_lam = res_mid, lam_mid
        else:
            lam_lo = lam_mid

    return _package(best, best_lam, steps)

"""Quadratically constrained program solver via exact Lagrangian root-finding.

The paper's QCP ("minimize T subject to ... DeltaLeakage <= xi") has a
linear objective, linear constraints, and exactly **one convex quadratic
constraint**.  For this structure, strong duality lets us solve it as a
one-dimensional search: dualize the quadratic constraint with multiplier
lam >= 0, solve the resulting QP

    min  c'x + lam * ((1/2) x'Q x + g'x - s)   s.t.  l <= A x <= u,

and drive the constraint value h(lam) = (1/2)x'Qx + g'x - s to zero.
h(lam) is non-increasing in lam; after geometric bracketing we use the
Illinois variant of regula falsi (with bisection safeguards), which
typically needs only a handful of inner QP solves.

Two inner backends are available: the ADMM solver (warm-startable) and
the interior-point solver (faster on the ill-conditioned dose-map
programs; the default for DMopt).
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.obs import metrics
from repro.solver.robust import METHOD_ADMM, METHOD_IPM, solve_qp_robust
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
    method: str = METHOD_ADMM,
    qp_kwargs: dict = None,
    warm: dict = None,
    lam_hint: float = None,
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
    lam_tol:
        Relative tolerance on the multiplier bracket.
    feas_tol:
        Acceptable relative violation of the quadratic constraint,
        measured against ``max(1, |s|)``.
    method:
        Inner QP backend: ``"admm"`` or ``"ipm"``.
    warm:
        Optional previous solution state (``{"x": ...}``, plus ``"z"``
        for IPM or ``"y"`` for ADMM) seeding the *first* inner solve;
        later inner solves always chain from their predecessor.
    lam_hint:
        Optional previous optimal multiplier (``info["lam"]``): the
        bracket starts there instead of at 1e-4, so a neighbor problem's
        root is re-found in a couple of inner solves.
    workspace:
        Mutable dict carrying the IPM's pattern workspace across inner
        solves and across calls (see :func:`solve_qp_ipm`).
    time_limit:
        Wall-clock budget in seconds shared by the whole root search:
        every inner solve gets the remaining time, and an exhausted
        budget stops the search on the best bracketed iterate (status
        ``max_iter``).

    Returns
    -------
    SolveResult
        ``info`` carries the final multiplier ``lam``, the constraint
        value ``quad``, and the number of inner solves.
    """
    t_start = time.perf_counter()
    qp_kwargs = dict(qp_kwargs or {})
    if method not in (METHOD_ADMM, METHOD_IPM):
        raise ValueError(f"method must be 'admm' or 'ipm', got {method!r}")
    c = np.asarray(c, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    Q = sp.csc_matrix(Q)
    scale = max(1.0, abs(float(s)))

    total_iters = 0
    state = dict(warm) if warm else {}
    warm_started = bool(state)
    # root-search convergence trace (ring buffer; entries are
    # (inner_solve, lam, h) with h the quadratic-constraint violation),
    # attached to info["brackets"]
    brackets = deque(maxlen=obs.TRACE_MAXLEN)
    deadline = (
        t_start + float(time_limit) if time_limit is not None else None
    )

    def out_of_time() -> bool:
        return deadline is not None and time.perf_counter() >= deadline

    def inner(lam: float):
        nonlocal total_iters, state
        res = solve_qp_robust(
            lam * Q,
            c + lam * g,
            A,
            l,
            u,
            method=method,
            qp_kwargs=qp_kwargs,
            warm=state or None,
            workspace=workspace,
            time_limit=(
                max(deadline - time.perf_counter(), 1e-3)
                if deadline is not None
                else None
            ),
        )
        # chain state from whichever backend produced the result (the
        # fallback chain may have switched: z is the IPM dual, y ADMM's)
        state = {
            k: v
            for k, v in (
                ("x", res.x),
                ("z", res.info.get("z")),
                ("y", res.info.get("y")),
            )
            if v is not None
        }
        if res.failed:
            state = {}  # a failed iterate is a poisonous seed
        total_iters += res.iterations
        return res

    def h_of(res, lam: float) -> float:
        h = _quad_value(Q, g, res.x) - s
        brackets.append((len(brackets) + 1, float(lam), h))
        return h

    def _package(res, lam, steps, status=None, note=None):
        info = {
            "lam": lam,
            "quad": _quad_value(Q, g, res.x),
            "inner_solves": steps,
            "brackets": list(brackets),
        }
        if note:
            info["note"] = note
        if "attempts" in res.info:
            info["attempts"] = res.info["attempts"]
        final_status = status or res.status
        metrics.inc("solver.qcp.solves")
        metrics.inc(f"solver.qcp.status.{final_status}")
        metrics.observe("solver.qcp.inner_solves", steps)
        return SolveResult(
            status=final_status,
            x=res.x,
            obj=float(c @ res.x),
            iterations=total_iters,
            r_prim=res.r_prim,
            r_dual=res.r_dual,
            solve_time=time.perf_counter() - t_start,
            info=info,
            warm_started=warm_started,
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
    h0 = h_of(res_lo, 0.0)
    if h0 <= feas_tol * scale:
        return _package(res_lo, 0.0, steps)
    h_scale = max(abs(h0), scale)

    # bracket geometrically from a small multiplier: the optimal lam is
    # the marginal objective cost per unit of quadratic budget, which for
    # the dose-map programs is typically far below 1.  A neighbor
    # problem's multiplier (lam_hint) lands the bracket near the root
    # immediately.
    lam_lo = 0.0
    lam_hi = (
        float(lam_hint)
        if lam_hint is not None and np.isfinite(lam_hint) and lam_hint > 0
        else 1e-4
    )
    res_hi = inner(lam_hi)
    h_hi = h_of(res_hi, lam_hi)
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
        h_hi = h_of(res_hi, lam_hi)
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
        h_mid = h_of(res_mid, lam_mid)
        if h_mid <= feas_tol * h_scale:
            lam_hi, h_hi, res_hi = lam_mid, h_mid, res_mid
            best, best_lam = res_mid, lam_mid
        else:
            lam_lo = lam_mid

    return _package(best, best_lam, steps)

"""Solver fallback/retry chain: IPM -> regularized IPM -> ADMM.

The dose-map programs are usually well behaved, but a sweep can hit an
ill-conditioned normal matrix (singular SuperLU factorization), a
diverging Mehrotra step, or a warm-start seed that blows up the first
scaling matrix.  :func:`solve_qp_robust` wraps the two QP backends in a
status-driven chain so callers (:func:`repro.core.dmopt.optimize_dose_map`,
the QCP bisection, dosePl) never see an uncaught exception for a
recoverable numeric failure:

1. primary backend (IPM by default) with the caller's warm state;
2. on ``diverged`` / ``ill_conditioned`` / ``max_iter``: a **cold,
   diagonally regularized** retry of the IPM (``reg`` raised from 1e-9
   to 1e-6 -- enough to factor rank-deficient normal systems without
   visibly perturbing the optimum);
3. on continued failure: the ADMM backend (first-order, factorization
   of a quasi-definite KKT system -- immune to the normal-matrix
   conditioning that stops the IPM), cold-started.

``infeasible`` is not retried across backends -- no solver can fix an
infeasible problem -- but a warm-started infeasible verdict is
re-checked cold once, since a bad seed can masquerade as dual blow-up.
The full attempt trail is recorded in ``info["attempts"]``; every step
past the primary one also counts into the ``solver.fallback.attempts``
and ``solver.fallback.step.<step>`` metrics.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs import metrics
from repro.resilience import chaos
from repro.solver.ipm import solve_qp_ipm
from repro.solver.qp import solve_qp
from repro.solver.result import (
    STATUS_DIVERGED,
    STATUS_INFEASIBLE,
    SolveResult,
)

METHOD_ADMM = "admm"
METHOD_IPM = "ipm"

#: Normal-matrix regularization used by the chain's IPM retry step.
RETRY_REG = 1e-6


def _residual_score(res: SolveResult) -> float:
    score = max(res.r_prim, res.r_dual)
    return score if np.isfinite(score) else np.inf


def _ipm(P, q, A, l, u, warm=None, workspace=None, qp_kwargs=None,
         **overrides):
    kwargs = dict(qp_kwargs or {})
    kwargs.update(overrides)
    return solve_qp_ipm(P, q, A, l, u, warm=warm, workspace=workspace,
                        **kwargs)


def _admm(P, q, A, l, u, warm, qp_kwargs, time_limit=None):
    # Only forward kwargs ADMM understands; IPM-tuned ``max_iter``/
    # ``tol`` values would cripple a first-order method.
    kwargs = {
        k: v
        for k, v in qp_kwargs.items()
        if k in ("eps_abs", "eps_rel", "rho0", "check_every",
                 "adapt_every", "scaling_iters")
    }
    warm = warm or {}
    return solve_qp(P, q, A, l, u, x0=warm.get("x"), y0=warm.get("y"),
                    time_limit=time_limit, **kwargs)


def solve_qp_robust(
    P,
    q,
    A,
    l,
    u,
    method: str = METHOD_IPM,
    qp_kwargs: dict = None,
    warm: dict = None,
    workspace: dict = None,
    time_limit: float = None,
) -> SolveResult:
    """QP solve with the fallback/retry chain (see module docstring).

    Parameters
    ----------
    method:
        Primary backend, ``"ipm"`` (default) or ``"admm"``.  The chain
        always ends on the *other* backend, so a recoverable numeric
        failure in one formulation of the KKT system is retried in the
        other.
    qp_kwargs:
        Extra keyword arguments for the primary backend (only the
        ADMM-compatible subset is forwarded on an ADMM fallback).
    warm:
        Previous solution state ``{"x": ..., "z": ..., "y": ...}``;
        superset of both backends' warm formats.  Retry steps always
        run cold -- a bad seed is one of the failure modes the chain
        exists to shed.
    workspace:
        IPM pattern workspace dict, shared across chain steps and calls.
    time_limit:
        Wall-clock budget in seconds shared by the *whole* chain: each
        step gets the remaining time, a timed-out backend yields to the
        next step, and when the budget is exhausted the best attempt so
        far is returned (status ``max_iter``) instead of starting
        another backend.

    Returns
    -------
    SolveResult
        The first converged attempt, else the infeasibility verdict,
        else the attempt with the smallest KKT residual.
        ``info["attempts"]`` lists every step taken as
        ``{step, backend, status, iterations}`` dicts.
    """
    if method not in (METHOD_ADMM, METHOD_IPM):
        raise ValueError(f"method must be 'admm' or 'ipm', got {method!r}")
    qp_kwargs = dict(qp_kwargs or {})
    attempts = []
    results = []
    deadline = (
        time.perf_counter() + float(time_limit)
        if time_limit is not None
        else None
    )

    def remaining():
        """Seconds left in the chain's budget (None = unlimited)."""
        if deadline is None:
            return None
        return deadline - time.perf_counter()

    def run(step: str, backend: str, **call_kwargs):
        if chaos.solver_nan():
            # injected numeric failure: a fabricated diverged verdict,
            # exercising the same path as a real NaN blow-up
            res = SolveResult(
                status=STATUS_DIVERGED,
                x=np.zeros(np.asarray(q).size),
                obj=float("nan"),
                iterations=0,
                r_prim=float("inf"),
                r_dual=float("inf"),
                solve_time=0.0,
                info={"note": "chaos: injected solver NaN"},
            )
        else:
            extra = {}
            rem = remaining()
            if rem is not None:
                extra["time_limit"] = max(rem, 1e-3)
            if backend == METHOD_IPM:
                res = _ipm(P, q, A, l, u, qp_kwargs=qp_kwargs,
                           **extra, **call_kwargs)
            else:
                res = _admm(P, q, A, l, u, call_kwargs.get("warm"),
                            qp_kwargs, **extra)
        attempts.append(
            {
                "step": step,
                "backend": backend,
                "status": res.status,
                "iterations": res.iterations,
            }
        )
        if step != primary:
            # retries/backend switches only: the happy path is one
            # primary attempt and no fallback activity
            metrics.inc("solver.fallback.attempts")
            metrics.inc(f"solver.fallback.step.{step}")
        results.append(res)
        return res

    def finish(res: SolveResult) -> SolveResult:
        res.info["attempts"] = attempts
        return res

    def best_effort(note: str) -> SolveResult:
        for candidate in results:
            if candidate.status == STATUS_INFEASIBLE:
                return finish(candidate)
        best = min(results, key=_residual_score)
        if best.info.get("note"):
            note += f" (best attempt: {best.info['note']})"
        best.info["note"] = note
        return finish(best)

    def out_of_time() -> bool:
        rem = remaining()
        return rem is not None and rem <= 0

    primary, secondary = (
        (METHOD_IPM, METHOD_ADMM) if method == METHOD_IPM
        else (METHOD_ADMM, METHOD_IPM)
    )
    res = run(primary, primary, warm=warm, workspace=workspace)
    if res.ok:
        return finish(res)

    if res.status == STATUS_INFEASIBLE:
        if not res.warm_started:
            return finish(res)
        if out_of_time():
            return best_effort("solver time budget exhausted")
        # a pathological seed can blow up the duals and fake an
        # infeasibility verdict: confirm cold before reporting
        res = run(f"{primary}-cold", primary, workspace=workspace)
        if res.ok or res.status == STATUS_INFEASIBLE:
            return finish(res)

    if out_of_time():
        return best_effort("solver time budget exhausted")

    if primary == METHOD_IPM:
        # diverged / ill-conditioned / max_iter: regularize and go cold
        res = run("ipm-regularized", METHOD_IPM, reg=RETRY_REG)
        if res.ok or res.status == STATUS_INFEASIBLE:
            return finish(res)
        if out_of_time():
            return best_effort("solver time budget exhausted")

    res = run(secondary, secondary)
    if res.ok:
        return finish(res)

    return best_effort("fallback chain exhausted without convergence")

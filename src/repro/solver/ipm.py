"""Primal-dual interior-point QP solver (Mehrotra predictor-corrector).

Solves the same problem as :func:`repro.solver.qp.solve_qp`:

    minimize    (1/2) x' P x + q' x
    subject to  l <= A x <= u

by converting the two-sided constraints to inequality form ``G x <= h``
and running a standard Mehrotra predictor-corrector method on the
perturbed KKT conditions.  Each iteration factorizes the normal matrix

    N(w) = P + reg + G' diag(w) G

with SuperLU.  Iteration counts are nearly independent of conditioning,
which makes this backend much faster than ADMM on the dose-map programs
(whose arrival-time variables are cost-free and create flat directions
that stall first-order methods).

Repeated solves of structurally identical problems (the dose-map
driver's sweep points, QCP bisection steps, and guard retries) share an
:class:`IPMWorkspace`: the stacked ``G``, the symbolic sparsity of
``N`` and a precomputed scatter operator turn the per-iteration normal
assembly from two sparse-sparse products into a single SpMV.  Pass a
mutable dict as ``workspace`` to carry it across calls; a ``warm``
state (previous ``x``/``z``) typically cuts iteration counts roughly in
half on adjacent sweep points.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs
from repro.solver.guards import prevalidate
from repro.solver.result import (
    STATUS_DIVERGED,
    STATUS_ILL_CONDITIONED,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITER,
    STATUS_SOLVED,
    SolveResult,
    record_solve,
)


def _to_inequalities(A, l, u):
    """Stack finite-bound rows of l <= Ax <= u into G x <= h."""
    A = sp.csr_matrix(A)
    rows_u = np.isfinite(u)
    rows_l = np.isfinite(l)
    blocks, rhs = [], []
    if rows_u.any():
        blocks.append(A[rows_u])
        rhs.append(u[rows_u])
    if rows_l.any():
        blocks.append(-A[rows_l])
        rhs.append(-l[rows_l])
    if not blocks:
        raise ValueError("problem has no finite constraints")
    G = sp.vstack(blocks, format="csc")
    h = np.concatenate(rhs)
    return G, h


class IPMWorkspace:
    """Pattern-dependent precomputation shared across IPM solves.

    Valid for every problem with the same ``A`` (values and pattern),
    the same bound-finiteness masks, and the same ``P`` sparsity pattern
    -- exactly the re-solves of a retargeted dose-map formulation, where
    only bound *values* and the quadratic's scale change.  Holds:

    * the stacked one-sided ``G`` (and its transpose), so bound changes
      only re-gather ``h``;
    * the symbolic sparsity (``indptr``/``indices``) of the normal
      matrix ``N = P + reg*I + G' diag(w) G``;
    * a scatter operator ``E`` of shape (nnz(N), m) with
      ``N.data = E @ w + P.data + reg`` -- each constraint row ``k``
      contributes ``w_k * G[k,a] * G[k,b]`` to the (a, b) entry, and
      ``E`` hard-codes those destinations, replacing two sparse-sparse
      products per iteration with one SpMV.

    SuperLU exposes no symbolic-refactorization API, so the symbolic
    work we *can* hoist out of the iteration loop is this pattern
    analysis; the numeric factorization still runs per iteration.
    """

    #: Skip the scatter operator when the pairwise expansion would dwarf
    #: nnz(N) (dense-ish constraint rows make E itself the bottleneck).
    MAX_EXPANSION_RATIO = 40.0

    def __init__(self, P, A, l, u):
        self.mask_u = np.isfinite(u)
        self.mask_l = np.isfinite(l)
        if not (self.mask_u.any() or self.mask_l.any()):
            raise ValueError("problem has no finite constraints")
        A_csr = sp.csr_matrix(A)
        blocks = []
        if self.mask_u.any():
            blocks.append(A_csr[self.mask_u])
        if self.mask_l.any():
            blocks.append(-A_csr[self.mask_l])
        G = sp.vstack(blocks, format="csr")
        G.sort_indices()
        self.G = G
        self.Gcsc = G.tocsc()
        self.Gt = self.Gcsc.T.tocsc()
        self.n = A.shape[1]
        self.m = G.shape[0]
        self._A = A
        self._A_sig = (A.shape, A.nnz)
        self._P_indptr = P.indptr.copy()
        self._P_indices = P.indices.copy()

        # symbolic pattern of N = P + I + G'G (structural union)
        absG = self.Gcsc.copy()
        absG.data = np.abs(absG.data)
        C = (absG.T @ absG).tocsc()
        ones = lambda M: sp.csc_matrix(  # noqa: E731 - pattern indicator
            (np.ones_like(M.data), M.indices, M.indptr), shape=M.shape
        )
        U = (ones(P) + ones(C) + sp.eye(self.n, format="csc")).tocsc()
        U.sort_indices()
        self.N_indptr = U.indptr
        self.N_indices = U.indices
        self.nnzN = U.nnz
        # (col, row) -> data-array position lookup, in CSC data order
        col_of = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(U.indptr)
        )
        self._N_keys = col_of * self.n + U.indices
        self.pos_P = self._positions(
            P.indices,
            np.repeat(np.arange(self.n, dtype=np.int64), np.diff(P.indptr)),
        )
        diag = np.arange(self.n, dtype=np.int64)
        self.pos_diag = self._positions(diag, diag)

        counts = np.diff(G.indptr).astype(np.int64)
        n_pairs = int((counts**2).sum())
        if n_pairs <= self.MAX_EXPANSION_RATIO * max(self.nnzN, 1):
            self.E = self._build_expansion(G, counts)
        else:
            self.E = None

    def _positions(self, rows, cols):
        """Data-array positions of (row, col) entries of the N pattern."""
        keys = np.asarray(cols, dtype=np.int64) * self.n + rows
        return np.searchsorted(self._N_keys, keys)

    def _build_expansion(self, G, counts):
        """E such that (G' diag(w) G).data (on the N pattern) == E @ w."""
        pos_parts, k_parts, val_parts = [], [], []
        for t in np.unique(counts):
            if t == 0:
                continue
            rows_t = np.nonzero(counts == t)[0]
            gidx = (
                G.indptr[rows_t][:, None] + np.arange(t, dtype=np.int64)
            ).ravel()
            cols_t = G.indices[gidx].reshape(rows_t.size, t)
            vals_t = G.data[gidx].reshape(rows_t.size, t)
            a = np.repeat(cols_t, t, axis=1)  # entry row index
            b = np.tile(cols_t, (1, t))  # entry col index
            va = np.repeat(vals_t, t, axis=1)
            vb = np.tile(vals_t, (1, t))
            pos_parts.append(self._positions(a.ravel(), b.ravel()))
            k_parts.append(np.repeat(rows_t, t * t))
            val_parts.append((va * vb).ravel())
        if not pos_parts:
            return sp.csr_matrix((self.nnzN, self.m))
        return sp.csr_matrix(
            (
                np.concatenate(val_parts),
                (np.concatenate(pos_parts), np.concatenate(k_parts)),
            ),
            shape=(self.nnzN, self.m),
        )

    def matches(self, P, A, l, u) -> bool:
        """Can this workspace serve (P, A, l, u)?"""
        if A.shape != self._A_sig[0] or A.nnz != self._A_sig[1]:
            return False
        if not (
            np.array_equal(np.isfinite(u), self.mask_u)
            and np.array_equal(np.isfinite(l), self.mask_l)
        ):
            return False
        if A is not self._A:
            old = self._A
            if not (
                np.array_equal(A.indptr, old.indptr)
                and np.array_equal(A.indices, old.indices)
                and np.array_equal(A.data, old.data)
            ):
                return False
        if P.shape[0] != self.n:
            return False
        return np.array_equal(P.indptr, self._P_indptr) and np.array_equal(
            P.indices, self._P_indices
        )

    def gather_h(self, l, u):
        return np.concatenate(
            [v for v in (u[self.mask_u], -l[self.mask_l]) if v.size]
        )

    def normal(self, P, w_inv, reg):
        """Assemble N = P + reg*I + G' diag(w_inv) G on the cached pattern."""
        if self.E is None:
            N = (
                P
                + reg * sp.eye(self.n)
                + self.Gt @ sp.diags(w_inv) @ self.Gcsc
            ).tocsc()
            return N
        data = self.E @ w_inv
        data[self.pos_P] += P.data
        data[self.pos_diag] += reg
        return sp.csc_matrix(
            (data, self.N_indices, self.N_indptr), shape=(self.n, self.n)
        )


def solve_qp_ipm(
    P,
    q,
    A,
    l,
    u,
    max_iter: int = 60,
    tol: float = 1e-7,
    x0=None,
    warm: dict = None,
    workspace: dict = None,
    reg: float = 1e-9,
    time_limit: float = None,
) -> SolveResult:
    """Interior-point solve of ``min (1/2)x'Px + q'x s.t. l <= Ax <= u``.

    Parameters mirror :func:`repro.solver.qp.solve_qp`.  ``x0`` is
    accepted for API compatibility (equivalent to ``warm={"x": x0}``).

    Parameters
    ----------
    warm:
        Optional previous solution state: ``{"x": ..., "z": ...}`` (the
        inequality duals ``z`` come from a previous result's
        ``info["z"]``).  The primal is shifted to the interior
        (``s``/``z`` floored away from the boundary), so a neighbor
        problem's solution is a safe, strictly feasible seed.
    workspace:
        Optional mutable dict; the :class:`IPMWorkspace` built for this
        problem's sparsity is stored under ``"ws"`` and reused by later
        calls whose pattern matches (retargeted formulations).
    reg:
        Diagonal regularization added to the normal matrix.  The
        default keeps it positive definite when ``P`` has a null space;
        the fallback chain retries ill-conditioned solves with a much
        larger value (see :func:`repro.solver.robust.solve_qp_robust`).
    time_limit:
        Optional wall-clock budget in seconds.  When exceeded the loop
        stops on the current iterate with status ``max_iter`` (noted as
        a time-out in ``info``), so the fallback chain can move on
        instead of spinning.

    Returns
    -------
    SolveResult
        ``info`` carries ``z`` (inequality duals) for warm-start
        chaining and ``mu`` (final complementarity).  Degenerate inputs
        (``l > u``, no finite constraints) and numeric failures come
        back as diagnostic statuses (``infeasible`` / ``diverged`` /
        ``ill_conditioned``), never exceptions.
    """
    t_start = time.perf_counter()
    P = sp.csc_matrix(P)
    P = 0.5 * (P + P.T)
    P.sum_duplicates()
    P.sort_indices()
    q = np.asarray(q, dtype=float).ravel()
    A = sp.csc_matrix(A)
    l = np.asarray(l, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    n = q.size
    short_circuit = prevalidate(P, q, A, l, u, t_start)
    if short_circuit is not None:
        record_solve("ipm", short_circuit)
        return short_circuit

    ws = None
    if workspace is not None:
        cand = workspace.get("ws")
        if isinstance(cand, IPMWorkspace) and cand.matches(P, A, l, u):
            ws = cand
    if ws is None:
        ws = IPMWorkspace(P, A, l, u)
        if workspace is not None:
            workspace["ws"] = ws
    G, Gt = ws.G, ws.Gt
    h = ws.gather_h(l, u)
    m = h.size

    scale_obj = max(1.0, float(np.linalg.norm(q, np.inf)))
    scale_h = max(1.0, float(np.linalg.norm(h, np.inf)))

    # per-iteration convergence trace: always captured into a bounded
    # ring buffer (attached to info["trace"]; entries are
    # (iter, mu, r_prim, r_dual))
    trace = deque(maxlen=obs.TRACE_MAXLEN)

    if warm is None and x0 is not None:
        warm = {"x": x0}
    warm_started = False
    x = np.zeros(n)
    s = np.maximum(h - G @ x, 1.0)
    z = np.ones(m)
    if warm is not None:
        wx = warm.get("x")
        wx = None if wx is None else np.asarray(wx, dtype=float).ravel()
        if wx is not None and wx.shape == (n,) and np.all(np.isfinite(wx)):
            # shift the seed strictly inside the boundary: a too-small
            # slack/dual makes the first scaling matrix explode
            floor = 1e-4 * max(1.0, scale_h * 1e-3)
            x = wx.copy()
            s = np.maximum(h - G @ x, floor)
            wz = warm.get("z")
            wz = None if wz is None else np.asarray(wz, dtype=float).ravel()
            if wz is not None and wz.shape == (m,) and np.all(
                np.isfinite(wz)
            ):
                z = np.maximum(wz, floor)
            warm_started = True

    def _max_step(v, dv):
        neg = dv < 0
        if not np.any(neg):
            return 1.0
        return min(1.0, float(np.min(-v[neg] / dv[neg])))

    status = STATUS_MAX_ITER
    iters_done = max_iter
    timed_out = False
    for it in range(1, max_iter + 1):
        if (
            time_limit is not None
            and time.perf_counter() - t_start > time_limit
        ):
            timed_out = True
            iters_done = it - 1
            break
        r_dual = P @ x + q + Gt @ z
        r_prim = G @ x + s - h
        mu = float(s @ z) / m
        rp_norm = float(np.linalg.norm(r_prim, np.inf))
        rd_norm = float(np.linalg.norm(r_dual, np.inf))
        trace.append((it, mu, rp_norm, rd_norm))

        if rp_norm <= tol * scale_h and rd_norm <= tol * scale_obj and (
            mu <= tol
        ):
            status = STATUS_SOLVED
            iters_done = it - 1
            break

        # Normal equations: eliminate dz = W^{-1} (G dx - r2), giving
        # (P + G' W^{-1} G) dx = r1 + G' W^{-1} r2 with W = diag(s/z).
        w_inv = z / s
        normal = ws.normal(P, w_inv, reg)
        try:
            lu = spla.splu(normal)
        except RuntimeError:
            # singular normal system: stop on the best iterate so far
            # and let the fallback chain retry with stronger
            # regularization or the ADMM backend
            status = STATUS_ILL_CONDITIONED
            iters_done = it
            break

        def _solve_step(r1, r2):
            dx = lu.solve(r1 + Gt @ (w_inv * r2))
            dz = w_inv * (G @ dx - r2)
            return dx, dz

        # --- affine (predictor) step
        dx_a, dz_a = _solve_step(-r_dual, -r_prim + s)
        ds_a = -s - (s / z) * dz_a

        alpha_a = min(_max_step(s, ds_a), _max_step(z, dz_a))
        mu_aff = float((s + alpha_a * ds_a) @ (z + alpha_a * dz_a)) / m
        sigma = (mu_aff / max(mu, 1e-300)) ** 3

        # --- corrector step
        rc = -s * z - ds_a * dz_a + sigma * mu
        dx, dz = _solve_step(-r_dual, -r_prim - rc / z)
        ds = (rc - s * dz) / z

        eta = 0.99 if mu > 1e-6 else 0.999
        alpha = eta * min(_max_step(s, ds), _max_step(z, dz))
        x_prev, s_prev, z_prev = x, s, z
        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz

        if not (
            np.all(np.isfinite(x))
            and np.all(np.isfinite(s))
            and np.all(np.isfinite(z))
        ):
            # numeric blow-up: restore the last finite iterate and stamp
            # the result so callers cannot mistake it for a solution
            x, s, z = x_prev, s_prev, z_prev
            status = STATUS_DIVERGED
            iters_done = it
            break
        if float(np.abs(z).max()) > 1e14:
            # an infeasible problem drives the duals to infinity while
            # the primal residual stalls
            status = STATUS_INFEASIBLE
            iters_done = it
            break

    r_dual = P @ x + q + Gt @ z
    r_prim = G @ x + s - h
    mu = float(s @ z) / m
    if (
        status != STATUS_SOLVED
        and np.linalg.norm(r_prim, np.inf) <= 10 * tol * scale_h
        and np.linalg.norm(r_dual, np.inf) <= 10 * tol * scale_obj
        and mu <= 10 * tol
    ):
        status = STATUS_SOLVED

    obj = float(0.5 * x @ (P @ x) + q @ x)
    info = {"mu": mu, "z": z}
    if status in (STATUS_DIVERGED, STATUS_ILL_CONDITIONED):
        info["note"] = (
            "non-finite iterate: last finite iterate returned"
            if status == STATUS_DIVERGED
            else "singular normal system: best iterate returned"
        )
        info["failed_at_iter"] = iters_done
    elif timed_out and status == STATUS_MAX_ITER:
        info["note"] = f"time limit ({time_limit:.3g}s) reached"
        info["timed_out"] = True
    info["trace"] = list(trace)
    result = SolveResult(
        status=status,
        x=x,
        obj=obj,
        iterations=iters_done,
        r_prim=float(np.linalg.norm(r_prim, np.inf)),
        r_dual=float(np.linalg.norm(r_dual, np.inf)),
        solve_time=time.perf_counter() - t_start,
        info=info,
        warm_started=warm_started,
    )
    record_solve("ipm", result)
    return result


"""Primal-dual interior-point QP/QCP solver (Mehrotra predictor-corrector).

Solves the same problem as :func:`repro.solver.qp.solve_qp`:

    minimize    (1/2) x' P x + q' x
    subject to  l <= A x <= u

optionally with one convex quadratic row ``(1/2) x'Q x + g'x <= b`` (the
QCP of :func:`repro.solver.qcp.solve_qcp`), by converting the two-sided
constraints to inequality form ``G x <= h`` and running a standard
Mehrotra predictor-corrector method on the perturbed KKT conditions.
Each iteration factorizes the symmetric positive definite normal matrix

    N(w) = P + reg + G' diag(w) G

with SuperLU in symmetric mode: diagonal pivots only, on a fill-reducing
ordering computed once per sparsity pattern.  Iteration counts are
nearly independent of conditioning, which makes this backend much faster
than ADMM on the dose-map programs (whose arrival-time variables are
cost-free and create flat directions that stall first-order methods).

The quadratic row gets its own slack ``t`` and multiplier ``y``.  The
QCP's objective is linear, so its Hessian is ``y*Q``, which keeps ``N``
on the pattern of a QP with ``P = Q``; the row's rank-1 term
``(y/t) a a'`` (``a = Qx + g``) is applied by Sherman-Morrison at one
extra back-solve per iteration.  Without the row the loop runs exactly
the QP iteration.

Repeated solves of structurally identical problems (the dose-map
driver's sweep points, QCP re-solves, and guard retries) share an
:class:`IPMWorkspace`: the stacked ``G``, the fill-reducing ordering,
the permuted sparsity of ``N`` and a precomputed scatter operator turn
the per-iteration normal assembly from two sparse-sparse products into
a single SpMV that emits ``N`` already in factorization order.  Pass a
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
    diagnostic_result,
    record_solve,
)


#: SuperLU settings for a symmetric positive definite matrix: the
#: ordering is symmetric (rows follow columns) and the pivot is the
#: diagonal whenever it is nonzero, as it always is for an SPD matrix.
#: A singular matrix whose pivot column vanishes still raises
#: ``RuntimeError``.
_SPD = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def factor_spd(N):
    """SuperLU of the SPD matrix ``N`` on a minimum-degree ordering of
    ``N' + N``; ``lu.solve`` applies the ordering itself."""
    return spla.splu(N, permc_spec="MMD_AT_PLUS_A", **_SPD)


def factor_spd_ordered(N):
    """SuperLU of an SPD ``N`` that is already in fill-reducing order
    (see :attr:`IPMWorkspace.order`)."""
    return spla.splu(N, permc_spec="NATURAL", **_SPD)


def _spd_ordering(pattern):
    """Fill-reducing symmetric ordering of SPD matrices with the sparsity
    of the CSC ``pattern``: ``order[i]`` is the variable at position
    ``i``, so ``N[order][:, order]`` is the matrix to factor."""
    n = pattern.shape[0]
    # diagonal dominance keeps the probe nonsingular on diagonal pivots
    probe = sp.csc_matrix(
        (np.ones(pattern.nnz), pattern.indices, pattern.indptr),
        shape=pattern.shape,
    ) + n * sp.eye(n)
    # perm_c[i] is the new position of variable i.  perm_c sits above the
    # probe's freed SuperLU arrays in the heap, so it must die here:
    # kept alive while the workspace builds its long-lived arrays, it
    # pins that free region for good (~10 MB more peak RSS per flow).
    return np.argsort(factor_spd(probe).perm_c)


def _symmetric(M):
    """``(M + M')/2`` in canonical CSC (sorted, no duplicates)."""
    M = sp.csc_matrix(M)
    M = 0.5 * (M + M.T)
    M.sum_duplicates()
    M.sort_indices()
    return M


class _QuadRow:
    """The convex quadratic row ``(1/2)x'Qx + g'x <= b`` of a QCP.

    The IPM carries it with its own slack ``t`` and multiplier ``y``.  The
    QCP's objective is linear, so the Hessian is ``y*Q``, on ``Q``'s
    pattern for every ``y``: one :class:`IPMWorkspace` serves the run.
    """

    def __init__(self, Q, g, b):
        self.Q = _symmetric(Q)
        self._absQ = abs(self.Q)
        self.g = np.asarray(g, dtype=float).ravel()
        self.b = float(b)

    def value(self, x):
        """``((1/2)x'Qx + g'x, Qx + g)``: the row's value and gradient."""
        Qx = self.Q @ x
        return float(0.5 * x @ Qx + self.g @ x), Qx + self.g

    def scale(self, x):
        """Magnitude the row's residual is measured against: the sum of
        its terms' magnitudes, which cancel in the row's value."""
        ax = np.abs(x)
        terms = 0.5 * ax @ (self._absQ @ ax) + np.abs(self.g) @ ax
        return max(1.0, abs(self.b), float(terms))

    def hessian(self, y):
        """``y*Q`` on ``Q``'s pattern."""
        Q = self.Q
        return sp.csc_matrix((y * Q.data, Q.indices, Q.indptr),
                             shape=Q.shape)


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
    * ``order``, a fill-reducing symmetric ordering of the normal matrix
      ``N = P + reg*I + G' diag(w) G``: ``order[i]`` is the variable at
      position ``i``, taken from one minimum-degree factorization of a
      diagonally dominant matrix with ``N``'s pattern;
    * the symbolic sparsity (``indptr``/``indices``) of the permuted
      ``N[order][:, order]``;
    * a scatter operator ``E`` of shape (nnz(N), m) with
      ``N.data = E @ w + P.data + reg`` -- each constraint row ``k``
      contributes ``w_k * G[k,a] * G[k,b]`` to the (a, b) entry, and
      ``E`` hard-codes those destinations in the permuted pattern,
      replacing two sparse-sparse products per iteration with one SpMV.

    SuperLU exposes no symbolic-refactorization API, so the ordering is
    the symbolic work hoisted out of the iteration loop: :meth:`normal`
    emits ``N`` already permuted, and each iteration runs only the
    numeric symmetric factorization (:func:`factor_spd_ordered`) with
    no ordering or pivot search.  Solve with :meth:`solve`.
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
        self.order = _spd_ordering(U)
        self._rank = np.argsort(self.order)  # new position of each variable
        U = U[self.order][:, self.order].tocsc()
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
        """Data-array positions of the (row, col) entries of ``N``
        (unpermuted indices) in the permuted pattern."""
        keys = self._rank[cols] * self.n + self._rank[rows]
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

    def solve(self, lu, rhs):
        """Solve ``N x = rhs`` with ``lu`` factoring :meth:`normal`."""
        x = np.empty_like(rhs)
        x[self.order] = lu.solve(rhs[self.order])
        return x

    def matvec(self, normal, v):
        """``N v`` for the permuted ``normal`` of :meth:`normal`."""
        out = np.empty_like(v)
        out[self.order] = normal @ v[self.order]
        return out

    def gather_h(self, l, u):
        return np.concatenate(
            [v for v in (u[self.mask_u], -l[self.mask_l]) if v.size]
        )

    def normal(self, P, w_inv, reg):
        """Assemble ``(P + reg*I + G' diag(w_inv) G)[order][:, order]``
        on the cached pattern."""
        if self.E is None:
            N = (
                P
                + reg * sp.eye(self.n)
                + self.Gt @ sp.diags(w_inv) @ self.Gcsc
            ).tocsc()
            return N[self.order][:, self.order].tocsc()
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
    warm: dict = None,
    workspace: dict = None,
    reg: float = 1e-9,
    time_limit: float = None,
    quad: tuple = None,
) -> SolveResult:
    """Interior-point solve of ``min (1/2)x'Px + q'x s.t. l <= Ax <= u``.

    Parameters mirror :func:`repro.solver.qp.solve_qp`.

    Parameters
    ----------
    warm:
        Optional previous solution state: ``{"x": ..., "z": ...}`` (the
        inequality duals ``z`` come from a previous result's
        ``info["z"]``), plus ``"lam"`` seeding the quadratic row's
        multiplier.  The primal is shifted to the interior (slacks and
        duals floored away from the boundary), so a neighbor problem's
        solution is a safe, strictly feasible seed.
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
    quad:
        Optional quadratic row ``(Q, g, b)`` with ``Q`` PSD, for a
        linear objective (``P`` without entries).  Its
        residual is measured relative to the sum of its terms'
        magnitudes; a run that does not converge returns its best
        iterate (smallest scaled KKT residual), since ``r_dual`` can
        blow up once ``mu`` falls far below the tolerance.

    Returns
    -------
    SolveResult
        ``info`` carries ``z`` (inequality duals) for warm-start
        chaining and ``mu`` (final complementarity); with ``quad``, also
        the row's multiplier ``lam``, its slack ``slack`` and its value
        ``quad`` (``r_prim`` covers the row's residual too).  Degenerate
        inputs (``l > u``, no finite constraints) and numeric failures
        come back as diagnostic statuses (``infeasible`` / ``diverged``
        / ``ill_conditioned``), never exceptions.
    """
    t_start = time.perf_counter()
    P = _symmetric(P)
    q = np.asarray(q, dtype=float).ravel()
    A = sp.csc_matrix(A)
    l = np.asarray(l, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    n = q.size
    short_circuit = prevalidate(P, q, A, l, u, t_start)
    if short_circuit is not None and quad is not None and short_circuit.ok:
        # the unconstrained shortcut would drop the quadratic row; the
        # QCP's fallback chain solves it over unconstrained QPs instead
        short_circuit = diagnostic_result(
            STATUS_ILL_CONDITIONED, n,
            "no finite linear constraints to carry the quadratic row",
            solve_time=time.perf_counter() - t_start,
        )
    if short_circuit is not None:
        record_solve("ipm", short_circuit)
        return short_circuit
    row = None
    H = P  # the workspace is keyed on the Hessian's pattern
    if quad is not None:
        if P.nnz:
            raise ValueError("a quadratic row needs a linear objective")
        row = _QuadRow(*quad)
        H = row.Q

    ws = None
    if workspace is not None:
        cand = workspace.get("ws")
        if isinstance(cand, IPMWorkspace) and cand.matches(H, A, l, u):
            ws = cand
    if ws is None:
        ws = IPMWorkspace(H, A, l, u)
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

    warm_started = False
    x = np.zeros(n)
    s = np.maximum(h - G @ x, 1.0)
    z = np.ones(m)
    floor = 1.0
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
    if row is not None:
        # the quadratic row's slack t and multiplier y, seeded like s, z
        t = max(row.b - row.value(x)[0], floor)
        y = 1.0
        wy = warm.get("lam") if warm_started else None
        if wy is not None and np.isfinite(wy):
            y = max(float(wy), floor)
        best = None

    def _max_step(v, dv):
        neg = dv < 0
        if not np.any(neg):
            return 1.0
        return min(1.0, float(np.min(-v[neg] / dv[neg])))

    def _max_step_1(v, dv):
        return 1.0 if dv >= 0 else min(1.0, -v / dv)

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
        rp_norm = float(np.linalg.norm(r_prim, np.inf))
        if row is None:
            mu = float(s @ z) / m
            rd_norm = float(np.linalg.norm(r_dual, np.inf))
            trace.append((it, mu, rp_norm, rd_norm))
            converged = (
                rp_norm <= tol * scale_h
                and rd_norm <= tol * scale_obj
                and mu <= tol
            )
        else:
            quad_x, a = row.value(x)
            r_dual = r_dual + y * a
            r_q = quad_x + t - row.b
            mu = (float(s @ z) + t * y) / (m + 1)
            rd_norm = float(np.linalg.norm(r_dual, np.inf))
            trace.append((it, mu, max(rp_norm, abs(r_q)), rd_norm))
            # the quadratic row's residual is relative to its terms
            merit = max(rp_norm / scale_h, rd_norm / scale_obj,
                        abs(r_q) / row.scale(x), mu)
            if best is None or merit < best[0]:
                best = (merit, x, s, z, t, y)
            converged = merit <= tol
        if converged:
            status = STATUS_SOLVED
            iters_done = it - 1
            break

        # Normal equations: eliminate dz = W^{-1} (G dx - r2), giving
        # (P + G' W^{-1} G) dx = r1 + G' W^{-1} r2 with W = diag(s/z).
        # A quadratic row adds y*Q to the Hessian and, eliminating
        # dy = rho (a'dx - r2q) with rho = y/t, the rank-1 term
        # rho a a' -- applied by Sherman-Morrison, not assembled.
        w_inv = z / s
        if row is None:
            normal = ws.normal(P, w_inv, reg)
        else:
            normal = ws.normal(row.hessian(y), w_inv, reg)
        try:
            lu = factor_spd_ordered(normal)
        except RuntimeError:
            # singular normal system: stop on the best iterate so far
            # and let the fallback chain retry with stronger
            # regularization or the ADMM backend
            status = STATUS_ILL_CONDITIONED
            iters_done = it
            break

        if row is None:

            def _solve_step(r1, r2):
                dx = ws.solve(lu, r1 + Gt @ (w_inv * r2))
                dz = w_inv * (G @ dx - r2)
                return dx, dz

        else:
            rho = y / t
            n_a = ws.solve(lu, a)
            denom = 1.0 + rho * float(a @ n_a)

            def _sm_solve(rhs):
                v = ws.solve(lu, rhs)
                return v - n_a * (rho * float(a @ v) / denom)

            def _solve_step(r1, r2, r2q):
                rhs = r1 + Gt @ (w_inv * r2) + (rho * r2q) * a
                dx = _sm_solve(rhs)
                # one step of iterative refinement: the rank-1 update
                # loses digits as t -> 0 and would stall r_dual
                dx = dx + _sm_solve(
                    rhs - ws.matvec(normal, dx) - (rho * float(a @ dx)) * a
                )
                dz = w_inv * (G @ dx - r2)
                dy = rho * (float(a @ dx) - r2q)
                return dx, dz, dy

        # --- affine (predictor) step
        if row is None:
            dx_a, dz_a = _solve_step(-r_dual, -r_prim + s)
        else:
            dx_a, dz_a, dy_a = _solve_step(-r_dual, -r_prim + s, -r_q + t)
            dt_a = -t - (t / y) * dy_a
        ds_a = -s - (s / z) * dz_a

        alpha_a = min(_max_step(s, ds_a), _max_step(z, dz_a))
        if row is None:
            mu_aff = float((s + alpha_a * ds_a) @ (z + alpha_a * dz_a)) / m
        else:
            alpha_a = min(alpha_a, _max_step_1(t, dt_a), _max_step_1(y, dy_a))
            mu_aff = (
                float((s + alpha_a * ds_a) @ (z + alpha_a * dz_a))
                + (t + alpha_a * dt_a) * (y + alpha_a * dy_a)
            ) / (m + 1)
        sigma = (mu_aff / max(mu, 1e-300)) ** 3

        # --- corrector step
        rc = -s * z - ds_a * dz_a + sigma * mu
        if row is None:
            dx, dz = _solve_step(-r_dual, -r_prim - rc / z)
        else:
            rc_q = -t * y - dt_a * dy_a + sigma * mu
            dx, dz, dy = _solve_step(-r_dual, -r_prim - rc / z,
                                     -r_q - rc_q / y)
            dt = (rc_q - t * dy) / y
        ds = (rc - s * dz) / z

        eta = 0.99 if mu > 1e-6 else 0.999
        alpha = min(_max_step(s, ds), _max_step(z, dz))
        x_prev, s_prev, z_prev = x, s, z
        if row is not None:
            alpha = min(alpha, _max_step_1(t, dt), _max_step_1(y, dy))
            t_prev, y_prev = t, y
            t, y = t + eta * alpha * dt, y + eta * alpha * dy
        alpha = eta * alpha
        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz

        if not (
            np.all(np.isfinite(x))
            and np.all(np.isfinite(s))
            and np.all(np.isfinite(z))
            and (row is None or np.isfinite(t * y))
        ):
            # numeric blow-up: restore the last finite iterate and stamp
            # the result so callers cannot mistake it for a solution
            x, s, z = x_prev, s_prev, z_prev
            if row is not None:
                t, y = t_prev, y_prev
            status = STATUS_DIVERGED
            iters_done = it
            break
        if float(np.abs(z).max()) > 1e14 or (row is not None and y > 1e14):
            # an infeasible problem drives the duals to infinity while
            # the primal residual stalls
            status = STATUS_INFEASIBLE
            iters_done = it
            break

    if row is not None and status != STATUS_SOLVED and best is not None:
        # a stalled or broken-down run returns its best iterate: past
        # it, mu can keep shrinking while r_dual blows up
        _, x, s, z, t, y = best
    r_dual = P @ x + q + Gt @ z
    r_prim = G @ x + s - h
    if row is None:
        mu = float(s @ z) / m
        rq_ok = True
    else:
        quad_x, a = row.value(x)
        r_dual = r_dual + y * a
        r_q = quad_x + t - row.b
        mu = (float(s @ z) + t * y) / (m + 1)
        rq_ok = abs(r_q) <= 10 * tol * row.scale(x)
    if (
        status != STATUS_SOLVED
        and np.linalg.norm(r_prim, np.inf) <= 10 * tol * scale_h
        and np.linalg.norm(r_dual, np.inf) <= 10 * tol * scale_obj
        and mu <= 10 * tol
        and rq_ok
    ):
        status = STATUS_SOLVED

    obj = float(0.5 * x @ (P @ x) + q @ x)
    info = {"mu": mu, "z": z}
    rp_final = float(np.linalg.norm(r_prim, np.inf))
    if row is not None:
        info.update(lam=float(y), slack=float(t), quad=float(quad_x))
        rp_final = max(rp_final, abs(float(r_q)))
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
        r_prim=rp_final,
        r_dual=float(np.linalg.norm(r_dual, np.inf)),
        solve_time=time.perf_counter() - t_start,
        info=info,
        warm_started=warm_started,
    )
    record_solve("ipm", result)
    return result

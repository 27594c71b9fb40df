"""Statistical static timing analysis (SSTA), first-order canonical form.

The analytic complement of :mod:`repro.variation.montecarlo`: gate delays
are modeled in the canonical first-order form

    D = d0 + sum_k s_k * X_k + r * R,

where the ``X_k`` are shared standard-normal sources (one per spatial
correlation grid -- the systematic CD component) and ``R`` is a
gate-private standard normal (the random CD component).  Arrival times
propagate through SUM exactly and through MAX with Clark's moment
matching, preserving spatial correlation -- which is exactly what a dose
map manipulates, making SSTA the natural yield analysis for this paper's
setting.

Outputs the chip MCT as a canonical form, from which mean, sigma, and
timing-yield quantiles follow in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.variation.montecarlo import (
    VariationModel,
    _LinearTiming,
    gate_dose_shift_nm,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)
#: ``math.erf`` element-wise (``scipy.special.erf`` differs from it in
#: the last bits, which the Clark fold amplifies in the private sigma)
_erf = np.frompyfunc(math.erf, 1, 1)


def _cap_phi(x):
    """Standard normal cdf, element-wise."""
    return 0.5 * (1.0 + np.asarray(_erf(x / math.sqrt(2.0)), dtype=float))


@dataclass
class CanonicalDelay:
    """First-order canonical random variable (see module docstring)."""

    mean: float
    sens: np.ndarray  # sensitivities to the shared sources
    rand: float  # sigma of the private independent part

    @property
    def variance(self) -> float:
        return float(self.sens @ self.sens + self.rand * self.rand)

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def plus(self, other: "CanonicalDelay") -> "CanonicalDelay":
        """Exact sum (private parts are independent)."""
        return CanonicalDelay(
            self.mean + other.mean,
            self.sens + other.sens,
            math.hypot(self.rand, other.rand),
        )

    def quantile(self, q: float) -> float:
        """Gaussian quantile of this variable."""
        from scipy.stats import norm

        return float(self.mean + self.sigma * norm.ppf(q))


def _rowdot(x, y):
    return np.einsum("ij,ij->i", x, y)


def _clark_max_rows(a, b):
    """Clark's moment-matched MAX, row by row.

    ``a`` and ``b`` are canonical arrays ``(mean (m,), sens (m, K),
    rand (m,))``; returns the same for the m row-wise maxima.
    """
    a_mean, a_sens, a_rand = a
    b_mean, b_sens, b_rand = b
    var_a = _rowdot(a_sens, a_sens) + a_rand * a_rand
    var_b = _rowdot(b_sens, b_sens) + b_rand * b_rand
    cov = _rowdot(a_sens, b_sens)  # private parts are independent
    theta = np.sqrt(np.maximum(var_a + var_b - 2.0 * cov, 1e-30))
    alpha = (a_mean - b_mean) / theta
    p = _cap_phi(alpha)
    d = np.exp(-0.5 * alpha * alpha) / _SQRT2PI

    mean = a_mean * p + b_mean * (1.0 - p) + theta * d
    second = (
        (var_a + a_mean**2) * p
        + (var_b + b_mean**2) * (1.0 - p)
        + (a_mean + b_mean) * theta * d
    )
    var = np.maximum(second - mean * mean, 0.0)

    sens = p[:, None] * a_sens + (1.0 - p)[:, None] * b_sens
    resid = var - _rowdot(sens, sens)
    rand = np.sqrt(np.maximum(resid, 0.0))
    return mean, sens, rand


def clark_max(a: CanonicalDelay, b: CanonicalDelay) -> CanonicalDelay:
    """Clark's moment-matched MAX of two canonical variables."""
    mean, sens, rand = _clark_max_rows(
        (np.array([a.mean]), a.sens[None, :], np.array([a.rand])),
        (np.array([b.mean]), b.sens[None, :], np.array([b.rand])),
    )
    return CanonicalDelay(float(mean[0]), sens[0], float(rand[0]))


class SSTA(_LinearTiming):
    """Block-based SSTA over a design context's timing graph.

    Parameters
    ----------
    ctx:
        A :class:`~repro.core.model.DesignContext`.
    model:
        The :class:`~repro.variation.montecarlo.VariationModel` whose
        random/systematic decomposition defines the canonical sources.
    """

    def __init__(self, ctx, model: VariationModel):
        super().__init__(ctx)
        self.model = model
        self.partition, self._grid = self._correlation_grids(model)
        # each gate folds its fanin arcs in pin order, led by the virtual
        # arc's zero arrival only when it has a PI pin
        self._slots = self.graph.fanin_slots(lead=self.graph.has_pi)

    def analyze(self, dose_map=None) -> CanonicalDelay:
        """Propagate canonical arrivals; returns the chip MCT variable."""
        g = self.graph
        d_mean = self._t0
        if dose_map is not None:
            d_mean = np.maximum(
                d_mean + self._a * gate_dose_shift_nm(self.ctx, dose_map), 0.0
            )
        d_sys = self._a * self.model.sigma_systematic_nm
        d_rand = np.abs(self._a) * self.model.sigma_random_nm

        # row n is the zero arrival the virtual PI arcs (src -1) read
        k = self.partition.n_grids
        mean = np.zeros(g.n + 1)
        sens = np.zeros((g.n + 1, k))
        rand = np.zeros(g.n + 1)
        for ids, count, arcs in self._slots:
            m = len(ids)
            b_mean, b_sens, b_rand = np.zeros(m), np.zeros((m, k)), np.zeros(m)
            for slot, arc in enumerate(arcs):
                rows = np.nonzero(count > slot)[0]
                arc = arc[rows]
                src = g.fi_src[arc]
                pin = (mean[src] + self._arc_wire[arc], sens[src], rand[src])
                if slot:
                    pin = _clark_max_rows(
                        (b_mean[rows], b_sens[rows], b_rand[rows]), pin
                    )
                b_mean[rows], b_sens[rows], b_rand[rows] = pin
            mean[ids] = b_mean + d_mean[ids]
            b_sens[np.arange(m), self._grid[ids]] += d_sys[ids]
            sens[ids] = b_sens
            rand[ids] = np.hypot(b_rand, d_rand[ids])

        src = self._ep_src
        if not len(src):
            raise ValueError("design has no timing endpoints")
        ends = (mean[src] + self._ep_offset, sens[src], rand[src])
        mct = tuple(x[:1] for x in ends)
        for e in range(1, len(src)):
            mct = _clark_max_rows(mct, tuple(x[e : e + 1] for x in ends))
        return CanonicalDelay(float(mct[0][0]), mct[1][0], float(mct[2][0]))


def ssta_timing_yield(mct: CanonicalDelay, clock_period: float) -> float:
    """P(MCT <= T) under the Gaussian canonical model."""
    if mct.sigma == 0:
        return 1.0 if mct.mean <= clock_period else 0.0
    return float(_cap_phi((clock_period - mct.mean) / mct.sigma))

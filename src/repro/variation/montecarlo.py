"""Monte Carlo timing yield under CD variation.

The paper's title promises *timing yield enhancement*; its evaluation
reports MCT as the yield proxy.  This module closes the loop with an
explicit parametric-yield estimator: sample within-die gate-length
variation (random per-gate plus spatially-correlated systematic
components, the decomposition of the paper's Section I), propagate each
sample through a **linearized timing model** (per-gate delay
``t0 + A_p * dL``, the same first-order model DMopt optimizes), and
report ``yield(T) = P(MCT <= T)`` with and without an optimized dose map.

The linearized evaluation sweeps the design's compiled timing graph
level by level with a samples axis -- one NumPy fold per level and pin
slot evaluates every Monte Carlo sample at once -- so thousands of chips
cost about as much as one golden STA pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dosemap import GridPartition


@dataclass(frozen=True)
class VariationModel:
    """Within-die gate-length variation model (nm).

    Attributes
    ----------
    sigma_random_nm:
        Per-gate independent CD sigma.
    sigma_systematic_nm:
        Sigma of the spatially-correlated component: one value per
        correlation grid, shared by all gates in that grid (ACLV-style
        residual signature).
    correlation_grid_um:
        Edge length of the correlation grid.
    """

    sigma_random_nm: float = 1.0
    sigma_systematic_nm: float = 1.0
    correlation_grid_um: float = 20.0
    seed: int = 42


def gate_dose_shift_nm(ctx, dose_map) -> np.ndarray:
    """Per-gate printed dL (nm) a dose map induces, in graph gate order."""
    names = ctx.graph.names
    if dose_map is None:
        return np.zeros(len(names))
    lib = ctx.library
    place = ctx.placement
    return np.array(
        [lib.dose_to_dl(dose_map.dose_of_gate(place, g)) for g in names]
    )


class _LinearTiming:
    """The linearized timing model on a context's compiled timing graph.

    Per gate, in graph order: nominal delay ``t0`` and delay sensitivity
    ``A_p`` (ns per nm of gate length) at the baseline operating point;
    per fanin arc, the baseline wire delay; and the endpoint table.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        g = self.graph = ctx.graph
        baseline = ctx.baseline
        self._t0 = np.array([baseline.gate_delay[name] for name in g.names])
        self._a = np.array([ctx.delay_fit_for(name).a for name in g.names])
        self._arc_wire = g.fanin_wire(baseline.wire_delay)
        self._ep_src, self._ep_offset = g.endpoints(baseline.wire_delay)

    def _correlation_grids(self, model: VariationModel):
        """The model's correlation-grid partition and each gate's grid."""
        place = self.ctx.placement
        part = GridPartition(
            place.die.width, place.die.height, model.correlation_grid_um
        )
        assign = part.assign_gates(place)
        return part, np.array([assign[g] for g in self.graph.names])


class TimingMonteCarlo(_LinearTiming):
    """Vectorized linearized-timing Monte Carlo engine for one design.

    Parameters
    ----------
    ctx:
        A :class:`~repro.core.model.DesignContext`; its baseline STA
        supplies per-gate nominal delays, delay sensitivities (A_p) and
        arc wire delays, its compiled timing graph the levels, fanin
        arcs and endpoints.
    """

    def __init__(self, ctx):
        super().__init__(ctx)
        self._slots = self.graph.fanin_slots()

    # ------------------------------------------------------------------
    def sample_dl(self, model: VariationModel, n_samples: int) -> np.ndarray:
        """Sample per-gate gate-length deviations, shape (n, n_gates)."""
        if n_samples < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(model.seed)
        n_gates = self.graph.n
        dl = model.sigma_random_nm * rng.standard_normal((n_samples, n_gates))
        if model.sigma_systematic_nm > 0:
            part, grid_of_gate = self._correlation_grids(model)
            sys = model.sigma_systematic_nm * rng.standard_normal(
                (n_samples, part.n_grids)
            )
            dl += sys[:, grid_of_gate]
        return dl

    def mct_samples(self, dl_nm: np.ndarray, dose_map=None) -> np.ndarray:
        """MCT (ns) of each variation sample, optionally under a dose map.

        ``dl_nm`` has shape (n_samples, n_gates) in the graph's
        topological gate order (as produced by :meth:`sample_dl`).
        """
        g = self.graph
        dl_nm = np.atleast_2d(np.asarray(dl_nm, dtype=float))
        if dl_nm.shape[1] != g.n:
            raise ValueError(
                f"dl matrix has {dl_nm.shape[1]} gate columns, design has "
                f"{g.n}"
            )
        n_samples = dl_nm.shape[0]
        # gates x samples: t0 + A_p * (dL + dose shift), clamped at 0,
        # built in place (no sample-sized temporaries)
        delays = np.empty((g.n, n_samples))
        np.add(dl_nm.T, gate_dose_shift_nm(self.ctx, dose_map)[:, None],
               out=delays)
        delays *= self._a[:, None]
        delays += self._t0[:, None]
        np.maximum(delays, 0.0, out=delays)

        # row n is the zero arrival the virtual PI arcs (src -1) read
        arrival = np.zeros((g.n + 1, n_samples))
        for ids, _count, arcs in self._slots:
            best = np.zeros((len(ids), n_samples))
            for arc in arcs:
                np.maximum(
                    best,
                    arrival[g.fi_src[arc]] + self._arc_wire[arc, None],
                    out=best,
                )
            arrival[ids] = best + delays[ids]
        ends = arrival[self._ep_src] + self._ep_offset[:, None]
        return np.max(ends, axis=0, initial=0.0)

    def nominal_mct(self) -> float:
        """MCT of the linearized model at zero variation (sanity anchor)."""
        return float(self.mct_samples(np.zeros((1, self.graph.n)))[0])


def timing_yield(mct_samples: np.ndarray, clock_period: float) -> float:
    """Fraction of sampled chips meeting the clock period."""
    mct_samples = np.asarray(mct_samples)
    if mct_samples.size == 0:
        raise ValueError("no samples")
    return float(np.mean(mct_samples <= clock_period))


def yield_curve(mct_samples: np.ndarray, periods) -> np.ndarray:
    """Yield at each candidate clock period."""
    return np.array([timing_yield(mct_samples, t) for t in periods])

"""Tests for the Monte Carlo timing-yield estimator."""

import numpy as np
import pytest

from repro.core import DesignContext, optimize_dose_map
from repro.netlist import make_design
from repro.variation import (
    TimingMonteCarlo,
    VariationModel,
    timing_yield,
    yield_curve,
)


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65", scale=0.25))


@pytest.fixture(scope="module")
def mc(ctx):
    return TimingMonteCarlo(ctx)


class TestSampling:
    def test_shape_and_determinism(self, mc):
        model = VariationModel(seed=5)
        a = mc.sample_dl(model, 16)
        b = mc.sample_dl(model, 16)
        assert a.shape == (16, len(mc.graph.names))
        assert np.array_equal(a, b)

    def test_sample_count_validation(self, mc):
        with pytest.raises(ValueError, match="at least one"):
            mc.sample_dl(VariationModel(), 0)

    def test_total_sigma(self, mc):
        """Per-gate sigma ~ sqrt(sig_r^2 + sig_s^2)."""
        model = VariationModel(
            sigma_random_nm=1.0, sigma_systematic_nm=1.0, seed=1
        )
        dl = mc.sample_dl(model, 400)
        assert dl.std() == pytest.approx(np.sqrt(2.0), rel=0.1)

    def test_systematic_component_is_spatially_correlated(self, ctx, mc):
        """Gates in the same correlation grid share the systematic part."""
        model = VariationModel(
            sigma_random_nm=0.0, sigma_systematic_nm=1.0,
            correlation_grid_um=1e9,  # one grid for the whole die
        )
        dl = mc.sample_dl(model, 8)
        # all gates identical per sample
        assert np.allclose(dl, dl[:, :1])


class TestMCTEvaluation:
    def test_nominal_anchors_to_golden(self, ctx, mc):
        """Zero-variation linearized MCT ~ golden baseline MCT."""
        assert mc.nominal_mct() == pytest.approx(ctx.baseline.mct, rel=0.02)

    def test_variation_spreads_mct(self, mc):
        dl = mc.sample_dl(VariationModel(seed=2), 200)
        mcts = mc.mct_samples(dl)
        assert mcts.std() > 0
        assert mcts.shape == (200,)

    def test_positive_dl_slows(self, mc):
        n_gates = len(mc.graph.names)
        slow = mc.mct_samples(np.full((1, n_gates), 3.0))[0]
        fast = mc.mct_samples(np.full((1, n_gates), -3.0))[0]
        assert fast < mc.nominal_mct() < slow

    def test_shape_validation(self, mc):
        with pytest.raises(ValueError, match="gate columns"):
            mc.mct_samples(np.zeros((1, 3)))

    def test_dose_map_shifts_distribution(self, ctx, mc):
        res = optimize_dose_map(ctx, 10.0, mode="qcp")
        dl = mc.sample_dl(VariationModel(seed=3), 100)
        base = mc.mct_samples(dl)
        opt = mc.mct_samples(dl, dose_map=res.dose_map_poly)
        assert opt.mean() < base.mean()


class TestYield:
    def test_yield_monotone_in_period(self, mc):
        dl = mc.sample_dl(VariationModel(seed=4), 200)
        mcts = mc.mct_samples(dl)
        periods = np.linspace(mcts.min(), mcts.max(), 9)
        curve = yield_curve(mcts, periods)
        assert np.all(np.diff(curve) >= 0)
        assert curve[-1] == 1.0

    def test_yield_bounds(self):
        mcts = np.array([1.0, 2.0, 3.0, 4.0])
        assert timing_yield(mcts, 0.5) == 0.0
        assert timing_yield(mcts, 2.5) == 0.5
        assert timing_yield(mcts, 10.0) == 1.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            timing_yield(np.array([]), 1.0)

    def test_dmopt_improves_timing_yield(self, ctx, mc):
        """The title claim, measured directly: yield at the baseline MCT
        target improves under the optimized dose map."""
        res = optimize_dose_map(ctx, 10.0, mode="qcp")
        dl = mc.sample_dl(VariationModel(seed=6), 300)
        target = ctx.baseline.mct
        y_base = timing_yield(mc.mct_samples(dl), target)
        y_opt = timing_yield(
            mc.mct_samples(dl, dose_map=res.dose_map_poly), target
        )
        assert y_opt > y_base


class TestOneTimingGraph:
    """Monte Carlo, SSTA and the formulation read the context's graph."""

    def test_one_compile_per_context(self, monkeypatch):
        from repro.core.formulate import build_formulation
        from repro.sta import compiled
        from repro.variation import SSTA, LeakageMonteCarlo

        compiles = []
        init = compiled.CompiledTimingGraph.__init__

        def counting_init(self, *args, **kwargs):
            compiles.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(
            compiled.CompiledTimingGraph, "__init__", counting_init
        )
        ctx = DesignContext(make_design("AES-65", scale=0.25))
        mc = TimingMonteCarlo(ctx)
        ssta = SSTA(ctx, VariationModel())
        lmc = LeakageMonteCarlo(ctx)
        build_formulation(ctx, 10.0)
        trial = ctx.analyzer_for(ctx.placement.copy())
        assert compiles == [ctx.graph]
        assert mc.graph is ctx.graph
        assert ssta.graph is ctx.graph
        assert lmc.graph is ctx.graph
        assert ctx.analyzer.graph is ctx.graph
        assert trial.graph is ctx.graph

"""Tests for the per-cell gate-length biasing baseline."""

import pytest

from repro.core import DesignContext, bias_gate_lengths, optimize_dose_map
from repro.netlist import make_design


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65", scale=0.25))


@pytest.fixture(scope="module")
def result(ctx):
    return bias_gate_lengths(ctx)


class TestGLBias:
    def test_timing_preserved(self, ctx, result):
        assert result.mct <= ctx.baseline.mct + 1e-9

    def test_leakage_reduced_substantially(self, result):
        assert result.leakage_improvement_pct > 10.0

    def test_many_cells_biased(self, ctx, result):
        assert result.n_biased > 0.5 * ctx.netlist.n_gates

    def test_biases_on_variant_grid(self, ctx, result):
        for dp, da in result.doses.values():
            assert da == 0.0
            assert dp <= 0.0  # leakage recovery only lengthens gates
            assert abs(dp * 2 - round(dp * 2)) < 1e-9

    def test_critical_cells_left_alone(self, ctx, result):
        """Zero-slack cells must keep nominal gate length."""
        for g in ctx.baseline.critical_gates(1e-6):
            assert result.doses[g][0] == 0.0, g

    def test_finer_knob_beats_dose_map(self, ctx, result):
        """The paper's positioning: per-cell biasing (a mask change) is
        the stronger knob; the dose map trades some of that recovery for
        mask-free manufacturability."""
        dm = optimize_dose_map(ctx, 10.0, mode="qp")
        assert result.leakage_improvement_pct >= dm.leakage_improvement_pct

    def test_parameter_validation(self, ctx):
        with pytest.raises(ValueError, match="negative"):
            bias_gate_lengths(ctx, bias_step=0.5)
        with pytest.raises(ValueError, match="negative"):
            bias_gate_lengths(ctx, max_bias=1.0)

    def test_looser_bound_more_recovery(self, ctx, result):
        """Relaxing the clock bound frees slack for more biasing.
        (Biasing only lengthens gates, so bounds *below* baseline are
        unreachable by construction.)"""
        loose = bias_gate_lengths(
            ctx, timing_bound=ctx.baseline.mct * 1.03
        )
        assert loose.leakage_improvement_pct >= (
            result.leakage_improvement_pct - 0.5
        )
        assert loose.mct <= ctx.baseline.mct * 1.03 + 1e-9

    def test_depth_through_matches_dict_walk(self, ctx):
        """The graph-derived longest-path gate counts equal a per-gate
        dict walk over the netlist's fanin/fanout lists."""
        from repro.core.glbias import _depth_through

        nl, lib = ctx.netlist, ctx.library
        order = nl.topological_order(lib)
        is_seq = {g: lib.cell(nl.gates[g].master).is_sequential for g in order}
        lvl_up = {}
        for g in order:
            fanins = [] if is_seq[g] else nl.fanin_gates(g)
            lvl_up[g] = 1 + max((lvl_up[d] for d in fanins), default=0)
        lvl_down = {g: 1 for g in order}
        for g in reversed(order):
            for succ in nl.fanout_gates(g):
                if not is_seq[succ]:
                    lvl_down[g] = max(lvl_down[g], 1 + lvl_down[succ])
        walk = {g: lvl_up[g] + lvl_down[g] - 1 for g in order}
        assert max(walk.values()) > 2
        assert _depth_through(ctx.graph) == walk

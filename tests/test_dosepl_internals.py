"""Unit tests for dosePl's internal heuristics (Algorithm 1 pieces)."""

import math

import numpy as np
import pytest

from repro import telemetry
from repro.core import DesignContext, optimize_dose_map
from repro.core.dosepl import (
    DoseplConfig,
    _PositionIndex,
    _cell_leakage,
    _path_weights,
    _resync_work,
    _try_round,
    run_dosepl,
)
from repro.netlist import Netlist, make_design
from repro.obs import metrics
from repro.placement import Die, Placement
from repro.sta.paths import TimingPath


class TestPathWeights:
    def _path(self, gates, delay):
        return TimingPath(gates=tuple(gates), delay=delay, endpoint="PO:x")

    def test_weight_formula(self):
        """Eq. (13): W(cell) = sum over its paths of exp(-slack)."""
        period = 10.0
        paths = [
            self._path(["a", "b"], 9.5),  # slack 0.5
            self._path(["b", "c"], 8.0),  # slack 2.0
        ]
        w = _path_weights(paths, period)
        assert w["a"] == pytest.approx(math.exp(-0.5))
        assert w["b"] == pytest.approx(math.exp(-0.5) + math.exp(-2.0))
        assert w["c"] == pytest.approx(math.exp(-2.0))

    def test_critical_paths_dominate(self):
        period = 5.0
        paths = [
            self._path(["crit"], 5.0),  # zero slack
            self._path(["cool"], 1.0),  # 4 ns slack
        ]
        w = _path_weights(paths, period)
        assert w["crit"] > 10 * w["cool"]

    def test_empty(self):
        assert _path_weights([], 1.0) == {}


class TestCellLeakageHelper:
    def test_matches_library(self):
        ctx = DesignContext(make_design("AES-90", scale=0.2))
        gate = next(iter(ctx.netlist.gates))
        master = ctx.netlist.gate(gate).master
        direct = ctx.library.characterized(master, 2.0, 0.0).leakage_uw
        assert _cell_leakage(ctx, gate, 2.0) == pytest.approx(direct)

    def test_snaps_continuous_dose(self):
        ctx = DesignContext(make_design("AES-90", scale=0.2))
        gate = next(iter(ctx.netlist.gates))
        assert _cell_leakage(ctx, gate, 1.13) == pytest.approx(
            _cell_leakage(ctx, gate, 1.0)
        )


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = DoseplConfig()
        assert cfg.rounds == 10  # "total number of rounds ... is 10"
        assert cfg.swaps_per_path == 1  # "one cell per critical path"
        assert cfg.swaps_per_round == 1  # "one swap for each round"
        assert cfg.hpwl_increase_limit == pytest.approx(0.20)  # "20%"
        assert cfg.leakage_increase_limit == pytest.approx(0.10)  # "10%"


# ----------------------------------------------------------------------
# Position index: brute-force oracles written the way the scan reads in
# Algorithm 1 -- one Python pass over the placement per query.
# ----------------------------------------------------------------------
def _bbox(placement, nl, name):
    """Fig. 9 box over the cell, its fanins and its fanouts (placed)."""
    names = [name] + nl.fanin_gates(name) + nl.fanout_gates(name)
    pts = [placement.location(n) for n in names if n in placement]
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    return (min(xs), min(ys), max(xs), max(ys))


def _in_box(placement, name, box):
    x, y = placement.location(name)
    return box[0] <= x <= box[2] and box[1] <= y <= box[3]


def _walk(placement, nl, cell, region, excluded, max_dist):
    """Candidates in ``region`` sorted by distance, walked one by one."""
    x0, y0, x1, y1 = region
    cands = [
        c for c, (x, y) in placement.items()
        if x0 <= x <= x1 and y0 <= y <= y1
        and c not in excluded and c != cell
    ]
    cands.sort(key=lambda c: placement.distance(cell, c))
    box = _bbox(placement, nl, cell)
    hits, n_scanned = [], 0
    for k, cand in enumerate(cands):
        n_scanned += 1
        if placement.distance(cell, cand) > max_dist:
            break
        if _in_box(placement, cand, box) and _in_box(
            placement, cell, _bbox(placement, nl, cand)
        ):
            hits.append((k, cand))
    return hits, n_scanned


def _assert_boxes_match(index, placement, nl):
    for name, _ in placement.items():
        assert index.bbox(name) == _bbox(placement, nl, name), name


def _star_netlist(n_sinks):
    """One gate ``d`` fanning out to ``s0 .. s{n-1}``."""
    nl = Netlist("star")
    nl.add_primary_input("in")
    nl.add_gate("d", "INVX1", ["in"], "nd")
    for k in range(n_sinks):
        nl.add_gate(f"s{k}", "INVX1", ["nd"], f"o{k}")
        nl.add_primary_output(f"o{k}")
    return nl


def _die():
    return Die(width=40.0, height=18.0, row_height=1.8, site_width=0.2)


class TestPositionIndexScan:
    def test_cell_on_grid_line_is_candidate_of_both_grids(self):
        nl = _star_netlist(2)
        pl = Placement(_die())
        pl.place("d", 5.0, 0.0)
        pl.place("s0", 10.0, 0.0)  # exactly on the x = 10 grid line
        pl.place("s1", 15.0, 0.0)
        index = _PositionIndex(pl, nl)
        none = index.mask(())
        for region in ((0.0, 0.0, 10.0, 9.0), (10.0, 0.0, 20.0, 9.0)):
            hits, _ = index.scan("d", region, none, 100.0)
            assert "s0" in [name for _, name in hits]

    def test_first_candidate_beyond_max_dist_is_counted(self):
        nl = _star_netlist(2)
        pl = Placement(_die())
        pl.place("d", 0.0, 0.0)
        pl.place("s0", 4.0, 0.0)
        pl.place("s1", 12.0, 0.0)
        index = _PositionIndex(pl, nl)
        none = index.mask(())
        region = (0.0, 0.0, 20.0, 9.0)
        # s1 lies beyond the threshold: visited (and counted), not a hit
        assert index.scan("d", region, none, 5.0) == ([(0, "s0")], 2)
        # nothing beyond: exactly the in-range candidates are counted
        assert index.scan("d", region, none, 12.0) == (
            [(0, "s0"), (1, "s1")], 2
        )
        # the very first candidate is already too far
        assert index.scan("d", region, none, 1.0) == ([], 1)

    @pytest.mark.parametrize("first", ["s0", "s1"])
    def test_equal_distance_ties_keep_placement_order(self, first):
        nl = _star_netlist(2)
        pl = Placement(_die())
        pl.place("d", 10.0, 0.0)
        second = "s1" if first == "s0" else "s0"
        pl.place(first, 12.0, 0.0)
        pl.place(second, 8.0, 0.0)  # same distance, inserted later
        index = _PositionIndex(pl, nl)
        hits, n = index.scan("d", (0.0, 0.0, 20.0, 9.0), index.mask(()), 5.0)
        assert hits == [(0, first), (1, second)] and n == 2

    def test_excluded_and_self_are_not_candidates(self):
        nl = _star_netlist(2)
        pl = Placement(_die())
        pl.place("d", 10.0, 0.0)
        pl.place("s0", 12.0, 0.0)
        pl.place("s1", 8.0, 0.0)
        index = _PositionIndex(pl, nl)
        hits, n = index.scan(
            "d", (0.0, 0.0, 20.0, 9.0), index.mask({"s0"}), 5.0
        )
        assert hits == [(0, "s1")] and n == 1

    def test_matches_one_by_one_walk_on_a_design(self):
        """Every (cell, grid) query of a placed design: hits, their
        positions in the distance order and the visit count equal the
        one-by-one walk, over rows full of equal-distance ties."""
        ctx = DesignContext(make_design("AES-65", scale=0.2))
        nl, pl = ctx.netlist, ctx.placement
        index = _PositionIndex(pl, nl)
        rng = np.random.default_rng(3)
        names = [n for n, _ in pl.items()]
        excluded = set(rng.choice(names, size=len(names) // 5, replace=False))
        mask = index.mask(excluded)
        gw, gh = pl.die.width / 4, pl.die.height / 4
        max_dist = 6.0 * pl.gate_pitch()
        for cell in rng.choice(names, size=25, replace=False):
            for i in range(4):
                for j in range(4):
                    region = (j * gw, i * gh, (j + 1) * gw, (i + 1) * gh)
                    assert index.scan(cell, region, mask, max_dist) == _walk(
                        pl, nl, cell, region, excluded, max_dist
                    )


class TestPositionIndexBoxes:
    def test_boxes_follow_swap_place_and_resync(self):
        ctx = DesignContext(make_design("AES-65", scale=0.2))
        nl = ctx.netlist
        work = ctx.placement.copy()
        index = _PositionIndex(work, nl)
        _assert_boxes_match(index, work, nl)

        names = [n for n, _ in work.items()]
        a, b, c = names[3], names[len(names) // 2], names[-2]
        work.swap(a, b)
        index.move((a, b))
        _assert_boxes_match(index, work, nl)

        work.place(c, 0.0, 0.0)
        index.move((c,))
        _assert_boxes_match(index, work, nl)

        # resync back to the context's placement: only moved cells are
        # re-read, and the index again equals the brute-force boxes
        q = optimize_dose_map(ctx, 30.0, mode="qcp")
        timer = ctx.analyzer_for(work)
        doses = ctx.gate_doses(q.dose_map_poly, placement=work)
        timer.mct(doses)
        _resync_work(ctx, q.dose_map_poly, work, ctx.placement, timer,
                     doses, index)
        assert list(work.items()) == list(ctx.placement.items())
        _assert_boxes_match(index, work, nl)


# ----------------------------------------------------------------------
# Fixed-point replay
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def zero_swap_round():
    """State of a dosePl pass just after a round that swapped nothing.

    Rounds that swap are rolled back (their cells fixed, the work
    placement resynced) until one swaps nothing.
    """
    ctx = DesignContext(make_design("AES-65", scale=0.2))
    dose_map = optimize_dose_map(ctx, 30.0, mode="qcp").dose_map_poly
    cfg = DoseplConfig.aggressive()
    golden, _ = ctx.golden_eval(dose_map, placement=ctx.placement)
    work = ctx.placement.copy()
    index = _PositionIndex(work, ctx.netlist)
    timer = ctx.analyzer_for(work)
    doses = ctx.gate_doses(dose_map, placement=work)
    best = timer.mct(doses)
    fixed: set = set()
    stats = {"attempted": 0, "trial_rejected": 0, "swapped_cells": set()}
    state = (ctx, dose_map, work, golden, cfg, fixed, stats, timer, doses)
    for _ in range(cfg.rounds):
        before = (stats["attempted"], stats["trial_rejected"])
        swaps, best = _try_round(*state, best, index)
        if swaps == 0:
            deltas = (stats["attempted"] - before[0],
                      stats["trial_rejected"] - before[1])
            return state, index, best, deltas
        fixed.update(stats["swapped_cells"])
        stats["swapped_cells"] = set()
        best = _resync_work(ctx, dose_map, work, ctx.placement, timer,
                            doses, index)
    pytest.fail("no zero-swap round within the configured rounds")


class TestFixedPointReplay:
    def test_zero_swap_round_repeats_exactly(self, zero_swap_round):
        state, index, best, deltas = zero_swap_round
        _, _, work, _, _, fixed, stats, _, doses = state
        assert deltas[0] > 0 and deltas[1] > 0  # the round did real work
        work_before = list(work.items())
        fixed_before, doses_before = set(fixed), dict(doses)
        boxes_before = (index.x0.copy(), index.y1.copy())

        attempted, rejected = stats["attempted"], stats["trial_rejected"]
        assert _try_round(*state, best, index) == (0, best)
        assert (stats["attempted"] - attempted,
                stats["trial_rejected"] - rejected) == deltas
        assert list(work.items()) == work_before
        assert fixed == fixed_before and doses == doses_before
        assert np.array_equal(index.x0, boxes_before[0])
        assert np.array_equal(index.y1, boxes_before[1])

    def test_replayed_rounds_are_counted(self, tmp_path, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_FLAG, "1")
        monkeypatch.setenv(telemetry.ENV_PATH, str(tmp_path / "run.jsonl"))
        telemetry.reset()
        metrics.reset()
        try:
            ctx = DesignContext(make_design("AES-65", scale=0.2))
            dose_map = optimize_dose_map(ctx, 30.0, mode="qcp").dose_map_poly
            cfg = DoseplConfig.aggressive()
            res = run_dosepl(ctx, dose_map, config=cfg)
            counters = metrics.snapshot()["counters"]
        finally:
            metrics.reset()
            telemetry.reset()
        assert res.rounds_run == cfg.rounds
        assert [h[0] for h in res.history] == list(range(cfg.rounds + 1))
        assert counters["dosepl.rounds"] == cfg.rounds
        assert 0 < counters["dosepl.rounds_replayed"] < cfg.rounds
        assert counters["dosepl.swaps_attempted"] == res.swaps_attempted

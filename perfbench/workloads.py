"""The benchmark's workloads: set-up, timed passes and correctness checks.

A workload is a set-up function, which builds fresh design contexts and
fills their lazy fit/characterization caches, and a pass function, which
runs the workload's operations on them once.  Every operation is checked
where it runs; a failed check marks the operation failed but its numbers
still count.

Only public entry points of the program are called, and always through
their module (``dmopt.optimize_dose_map``, not a name bound at import),
so the ledger's wrappers see every call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.core import certify, dmopt, dosepl, model, sweep
from repro.netlist import designs
from repro.variation import montecarlo, ssta

#: Placer seed of every design context.  It stays at the seed that
#: reproduces EXPERIMENTS.md: a different placement changes the solver's
#: work by up to 2x, which would swamp any run-to-run comparison.
PLACEMENT_SEED = 7
#: Monte Carlo chips per yield estimate.
MC_CHIPS = 2000

#: Table IV/V cells of ``qcp_table``: (design, grid um, both layers).
QCP_CELLS = (
    ("AES-65", 10.0, False),
    ("AES-65", 30.0, True),
    ("AES-65", 30.0, False),
)
#: Table IV/VI dose-range sweeps of ``qp_sweep``.
SWEEP_DESIGNS = ("AES-65", "JPEG-65")
SWEEP_GRIDS = (30.0, 10.0, 5.0)
SWEEP_RANGES = (3.0, 4.0, 5.0)
#: Table VIII flow of ``dosepl_yield``, at a coarse grid.
DOSEPL_DESIGN = "AES-65"
DOSEPL_GRID = 30.0

#: End-to-end metrics of an untraced run: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "op_s_p50": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "mct_gain_pct": ("%", "higher"),
    "leak_gain_pct": ("%", "higher"),
    "timing_yield_pct": ("%", "higher"),
}


@dataclass
class Op:
    """One measured operation and the checks it failed (none = correct)."""

    name: str
    seconds: float
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class PassResult:
    """Operations of one pass plus the quality numbers they produced."""

    ops: list
    mct_gains: list
    leak_gains: list
    yield_pct: float


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_dmopt(ctx, res) -> list:
    """Problems of a DMopt result: a failed solve or a failed certificate."""
    if not res.ok:
        return [f"solve status {res.status}"]
    report = certify.certify_result(ctx, res)
    problems = [] if report.ok else [f"certificate: {report.summary()}"]
    for label, value in (("mct gain", res.mct_improvement_pct),
                         ("leakage gain", res.leakage_improvement_pct)):
        if not math.isfinite(value):
            problems.append(f"{label} is {value}")
    return problems


def check_yield(label: str, pct: float) -> list:
    if math.isfinite(pct) and 0.0 <= pct <= 100.0:
        return []
    return [f"{label} yield {pct} outside [0, 100]"]


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def make_context(name: str, scale: float = 1.0, fit_width: bool = False):
    """A placed, analyzed design context with its lazy caches filled.

    Fills the delay/leakage fits of every gate (what the formulation
    reads) and characterizes every poly-dose variant of every master
    (what golden signoff reads), so a timed pass starts from warm
    per-design caches.  Both-layer (poly x active) variants stay lazy.
    """
    bundle = designs.make_design(name, scale=scale)
    ctx = model.DesignContext(bundle, fit_width=fit_width,
                              seed=PLACEMENT_SEED)
    for gate in ctx.netlist.gates:
        ctx.delay_fit_for(gate)
        ctx.leakage_fit_for(gate)
    lib = ctx.library
    for master in sorted({g.master for g in ctx.netlist.gates.values()}):
        for dose in lib.variant_doses():
            lib.characterized(master, float(dose), 0.0)
    return ctx


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _yield_op(ctx, dose_map, seed: int, chips: int):
    """Monte Carlo timing yield (%) at the baseline MCT, baseline and
    optimized dose map, on the same sampled chips."""
    t0 = time.perf_counter()
    mc = montecarlo.TimingMonteCarlo(ctx)
    dl = mc.sample_dl(montecarlo.VariationModel(seed=seed), chips)
    target = ctx.baseline.mct
    base = 100.0 * montecarlo.timing_yield(mc.mct_samples(dl), target)
    opt = 100.0 * montecarlo.timing_yield(
        mc.mct_samples(dl, dose_map=dose_map), target
    )
    problems = check_yield("baseline", base) + check_yield("optimized", opt)
    return Op("mc_yield", time.perf_counter() - t0, problems), opt


# ----------------------------------------------------------------------
# qcp_table
# ----------------------------------------------------------------------
def setup_qcp_table(scale: float = 1.0) -> dict:
    return {
        "poly": make_context("AES-65", scale),
        "both": make_context("AES-65", scale, fit_width=True),
    }


def pass_qcp_table(state: dict, seed: int,
                   chips: int = MC_CHIPS) -> PassResult:
    """Cold QCP cells, each certified; yield of the first cell's map."""
    ops, results = [], []
    for design, grid, both in QCP_CELLS:
        ctx = state["both" if both else "poly"]
        t0 = time.perf_counter()
        res = dmopt.optimize_dose_map(ctx, grid, mode=dmopt.MODE_QCP,
                                      both_layers=both)
        problems = check_dmopt(ctx, res)
        label = f"qcp {design} G={grid:g} {'both' if both else 'poly'}"
        ops.append(Op(label, time.perf_counter() - t0, problems))
        results.append(res)
    mct = [res.mct_improvement_pct for res in results]
    leak = [res.leakage_improvement_pct for res in results]
    op, yield_pct = _yield_op(state["poly"], results[0].dose_map_poly, seed,
                              chips)
    ops.append(op)
    return PassResult(ops, mct, leak, yield_pct)


# ----------------------------------------------------------------------
# qp_sweep
# ----------------------------------------------------------------------
def setup_qp_sweep(scale: float = 1.0) -> dict:
    return {name: make_context(name, scale) for name in SWEEP_DESIGNS}


def pass_qp_sweep(state: dict, seed: int,
                  chips: int = MC_CHIPS) -> PassResult:
    """Warm-chained QP dose-range sweeps, every point certified.

    A point's time is its ``optimize_dose_map`` runtime plus its
    certification; yield is taken under the last point's map (the
    finest grid and widest range of the last design).
    """
    ops, mct, leak = [], [], []
    last = None
    for design in SWEEP_DESIGNS:
        ctx = state[design]
        for grid in SWEEP_GRIDS:
            results = sweep.dmopt_dose_range_sweep(
                ctx, grid, SWEEP_RANGES, mode=dmopt.MODE_QP
            )
            for dose_range, res in zip(SWEEP_RANGES, results):
                problems, cert_s = _timed(check_dmopt, ctx, res)
                ops.append(Op(f"qp {design} G={grid:g} range={dose_range:g}",
                              res.runtime + cert_s, problems))
                mct.append(res.mct_improvement_pct)
                leak.append(res.leakage_improvement_pct)
                last = (ctx, res)
    op, yield_pct = _yield_op(last[0], last[1].dose_map_poly, seed, chips)
    ops.append(op)
    return PassResult(ops, mct, leak, yield_pct)


# ----------------------------------------------------------------------
# dosepl_yield
# ----------------------------------------------------------------------
def setup_dosepl_yield(scale: float = 1.0) -> dict:
    return {"ctx": make_context(DOSEPL_DESIGN, scale)}


def pass_dosepl_yield(state: dict, seed: int,
                      chips: int = MC_CHIPS) -> PassResult:
    """QCP, then dosePl, then Monte Carlo yield and SSTA on the result."""
    ctx = state["ctx"]
    ops = []
    t0 = time.perf_counter()
    qcp = dmopt.optimize_dose_map(ctx, DOSEPL_GRID, mode=dmopt.MODE_QCP)
    ops.append(Op("qcp", time.perf_counter() - t0, check_dmopt(ctx, qcp)))

    dp, seconds = _timed(dosepl.run_dosepl, ctx, qcp.dose_map_poly)
    problems = []
    if not dp.mct <= qcp.mct:
        problems.append(f"dosePl MCT {dp.mct} above its QCP start {qcp.mct}")
    ops.append(Op("dosepl", seconds, problems))
    base_mct, base_leak = ctx.baseline.mct, ctx.baseline_leakage
    mct = [(base_mct - dp.mct) / base_mct * 100.0]
    leak = [(base_leak - dp.leakage) / base_leak * 100.0]

    # variation analysis runs on the placement dosePl settled on
    final = ctx
    if dp.swaps_accepted:
        final = model.DesignContext(ctx.bundle, placement=dp.placement,
                                    seed=PLACEMENT_SEED)
    op, yield_pct = _yield_op(final, qcp.dose_map_poly, seed, chips)
    ops.append(op)

    t0 = time.perf_counter()
    engine = ssta.SSTA(final, montecarlo.VariationModel(seed=seed))
    base = ssta.ssta_timing_yield(engine.analyze(), base_mct)
    opt = ssta.ssta_timing_yield(engine.analyze(qcp.dose_map_poly), base_mct)
    problems = (check_yield("SSTA baseline", 100.0 * base)
                + check_yield("SSTA optimized", 100.0 * opt))
    ops.append(Op("ssta", time.perf_counter() - t0, problems))
    return PassResult(ops, mct, leak, yield_pct)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    run: object


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "qcp_table",
            "cold Table IV/V QCP cells: bound by the IPM factorization and "
            "the QCP root search",
            setup_qcp_table, pass_qcp_table,
        ),
        Workload(
            "qp_sweep",
            "warm-chained Table IV/VI QP dose-range sweeps: formulation "
            "cache hits, warm IPM starts and signoff on every point",
            setup_qp_sweep, pass_qp_sweep,
        ),
        Workload(
            "dosepl_yield",
            "Table VIII QCP + dosePl + Monte Carlo/SSTA yield: placement "
            "search and variation dominate, the solver does not",
            setup_dosepl_yield, pass_dosepl_yield,
        ),
    )
}

"""Regeneration of the paper's evaluation tables (II-VIII).

Each ``tableN`` function runs the corresponding experiment on the
synthetic testcases and returns a :class:`~repro.experiments.harness.TableResult`
with the same row/column structure the paper reports.  Design contexts
are cached per (design, fit_width) so a full run characterizes each
library once.
"""

from __future__ import annotations

from repro.core import (
    DesignContext,
    DoseplConfig,
    optimize_dose_map,
    run_dosepl,
    uniform_dose_sweep,
)
from repro.experiments.harness import (
    DMoptCell,
    TableResult,
    resolve_jobs,
    run_dmopt_cells,
)
from repro.netlist import make_design

#: Grid sizes per node, as in the paper (coarsest differs by node).
GRID_SIZES = {"65nm": (5.0, 10.0, 30.0), "90nm": (5.0, 10.0, 50.0)}

_CTX_CACHE: dict = {}


def get_context(design: str, fit_width: bool = False) -> DesignContext:
    """Shared, cached design context (placement + baseline + fitters)."""
    key = (design, fit_width)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = DesignContext(make_design(design), fit_width=fit_width)
    return _CTX_CACHE[key]


def _sweep_table(exp_id: str, design: str) -> TableResult:
    ctx = get_context(design)
    points = uniform_dose_sweep(ctx)
    rows = [
        [
            f"{p.dose:+.1f}",
            p.mct,
            p.mct_improvement_pct,
            p.leakage,
            p.leakage_improvement_pct,
        ]
        for p in points
    ]
    neg = [p for p in points if p.dose < 0]
    pos = [p for p in points if p.dose > 0]
    tr = TableResult(
        exp_id=exp_id,
        title=f"Uniform poly dose sweep on {design}",
        headers=["dose %", "MCT ns", "MCT imp %", "leakage uW", "leak imp %"],
        rows=rows,
    )
    tr.notes.append(
        "negative dose: leakage saved "
        f"{max(p.leakage_improvement_pct for p in neg):.1f}% at worst MCT "
        f"{min(p.mct_improvement_pct for p in neg):.1f}%"
    )
    tr.notes.append(
        "positive dose: MCT improved "
        f"{max(p.mct_improvement_pct for p in pos):.1f}% at worst leakage "
        f"{min(p.leakage_improvement_pct for p in pos):.1f}%"
    )
    return tr


def table2() -> TableResult:
    """Table II: uniform dose sweep, AES-65."""
    return _sweep_table("Table II", "AES-65")


def table3() -> TableResult:
    """Table III: uniform dose sweep, AES-90."""
    return _sweep_table("Table III", "AES-90")


def _node_grid_sizes(design: str) -> tuple:
    """Default grid sizes for a design without building its context."""
    node = design.rsplit("-", 1)[1] + "nm"
    return GRID_SIZES[node]


def _use_cell_runner(jobs, checkpoint, cell_timeout, certify) -> bool:
    """Route through :func:`run_dmopt_cells` instead of the plain loop?

    Parallelism is the historical trigger; checkpointing, watchdog
    deadlines, and certification also live in the cell runner, so any of
    them forces the cells path even at ``jobs=1`` (results are identical
    either way -- that is the cell runner's determinism guarantee).
    """
    return (
        resolve_jobs(jobs) > 1
        or checkpoint is not None
        or cell_timeout is not None
        or certify
    )


def table4(designs=None, grid_sizes=None, jobs=None, checkpoint=None,
           resume=True, cell_timeout=None, certify=False) -> TableResult:
    """Table IV: DMopt on the poly layer, QP and QCP, per grid size.

    QP minimizes leakage under the baseline-MCT bound; QCP minimizes MCT
    under a no-leakage-increase budget (smoothness delta = 2, range
    +/-5 %), exactly the paper's settings.  ``jobs`` (or ``REPRO_JOBS``)
    > 1 fans the (design, grid, mode) cells across processes with
    identical results (see :func:`repro.experiments.harness.run_dmopt_cells`,
    which also documents ``checkpoint``/``resume``, ``cell_timeout``,
    and ``certify``).
    """
    if designs is None:
        designs = ("AES-65", "JPEG-65", "AES-90", "JPEG-90")
    pairs = [
        (design, g)
        for design in designs
        for g in (grid_sizes or _node_grid_sizes(design))
    ]
    rows = []
    if _use_cell_runner(jobs, checkpoint, cell_timeout, certify):
        cells = [
            DMoptCell(design, g, mode=mode)
            for design, g in pairs
            for mode in ("qp", "qcp")
        ]
        out = dict(zip(((c.design, c.grid_size, c.mode) for c in cells),
                       run_dmopt_cells(cells, jobs=jobs,
                                       checkpoint=checkpoint, resume=resume,
                                       cell_timeout=cell_timeout,
                                       certify=certify)))
        for design, g in pairs:
            qp = out[(design, g, "qp")]
            qcp = out[(design, g, "qcp")]
            rows.append(
                [
                    design,
                    f"{g:.0f}x{g:.0f}",
                    qp["mct"],
                    qp["mct_improvement_pct"],
                    qp["leakage"],
                    qp["leakage_improvement_pct"],
                    qp["runtime"],
                    qcp["mct"],
                    qcp["mct_improvement_pct"],
                    qcp["leakage"],
                    qcp["leakage_improvement_pct"],
                    qcp["runtime"],
                ]
            )
        return _table4_result(rows)
    for design, g in pairs:
        ctx = get_context(design)
        qp = optimize_dose_map(ctx, g, mode="qp")
        qcp = optimize_dose_map(ctx, g, mode="qcp")
        rows.append(
            [
                design,
                f"{g:.0f}x{g:.0f}",
                qp.mct,
                qp.mct_improvement_pct,
                qp.leakage,
                qp.leakage_improvement_pct,
                qp.runtime,
                qcp.mct,
                qcp.mct_improvement_pct,
                qcp.leakage,
                qcp.leakage_improvement_pct,
                qcp.runtime,
            ]
        )
    return _table4_result(rows)


def _table4_result(rows) -> TableResult:
    return TableResult(
        exp_id="Table IV",
        title="DMopt on poly layer (gate length modulation), delta=2, +/-5%",
        headers=[
            "design", "grid um",
            "QP MCT", "QP MCT imp %", "QP leak", "QP leak imp %", "QP s",
            "QCP MCT", "QCP MCT imp %", "QCP leak", "QCP leak imp %", "QCP s",
        ],
        rows=rows,
    )


def _both_layer_cells(designs, grid_sizes, mode, jobs, checkpoint=None,
                      resume=True, cell_timeout=None, certify=False):
    """Parallel (poly, both) result-dict pairs for tables V/VI."""
    cells = [
        DMoptCell(design, g, mode=mode, both_layers=bl, fit_width=True)
        for design in designs
        for g in grid_sizes
        for bl in (False, True)
    ]
    out = run_dmopt_cells(cells, jobs=jobs, checkpoint=checkpoint,
                          resume=resume, cell_timeout=cell_timeout,
                          certify=certify)
    return {
        (c.design, c.grid_size, c.both_layers): r
        for c, r in zip(cells, out)
    }


def table5(designs=("AES-65", "JPEG-65"), grid_sizes=(5.0, 10.0, 30.0),
           jobs=None, checkpoint=None, resume=True, cell_timeout=None,
           certify=False) -> TableResult:
    """Table V: QCP for improved timing, poly-only vs both layers."""
    rows = []
    if _use_cell_runner(jobs, checkpoint, cell_timeout, certify):
        out = _both_layer_cells(designs, grid_sizes, "qcp", jobs,
                                checkpoint=checkpoint, resume=resume,
                                cell_timeout=cell_timeout, certify=certify)
        for design in designs:
            for g in grid_sizes:
                poly = out[(design, g, False)]
                both = out[(design, g, True)]
                rows.append(
                    [
                        design,
                        f"{g:.0f}x{g:.0f}",
                        poly["mct"],
                        poly["mct_improvement_pct"],
                        both["mct"],
                        both["mct_improvement_pct"],
                        poly["leakage"],
                        both["leakage"],
                    ]
                )
        return _table5_result(rows)
    for design in designs:
        ctx_w = get_context(design, fit_width=True)
        for g in grid_sizes:
            poly = optimize_dose_map(ctx_w, g, mode="qcp", both_layers=False)
            both = optimize_dose_map(ctx_w, g, mode="qcp", both_layers=True)
            rows.append(
                [
                    design,
                    f"{g:.0f}x{g:.0f}",
                    poly.mct,
                    poly.mct_improvement_pct,
                    both.mct,
                    both.mct_improvement_pct,
                    poly.leakage,
                    both.leakage,
                ]
            )
    return _table5_result(rows)


def _table5_result(rows) -> TableResult:
    return TableResult(
        exp_id="Table V",
        title="QCP timing optimization: gate length vs length+width modulation",
        headers=[
            "design", "grid um",
            "Lgate MCT", "Lgate imp %", "Both MCT", "Both imp %",
            "Lgate leak", "Both leak",
        ],
        rows=rows,
        notes=["both-layer improvement over poly-only is slight: "
               "max |dW| = 10 nm vs >= 200 nm transistor widths"],
    )


def table6(designs=("AES-65", "JPEG-65"), grid_sizes=(5.0, 10.0, 30.0),
           jobs=None, checkpoint=None, resume=True, cell_timeout=None,
           certify=False) -> TableResult:
    """Table VI: QP for improved leakage, poly-only vs both layers."""
    rows = []
    if _use_cell_runner(jobs, checkpoint, cell_timeout, certify):
        out = _both_layer_cells(designs, grid_sizes, "qp", jobs,
                                checkpoint=checkpoint, resume=resume,
                                cell_timeout=cell_timeout, certify=certify)
        for design in designs:
            for g in grid_sizes:
                poly = out[(design, g, False)]
                both = out[(design, g, True)]
                rows.append(
                    [
                        design,
                        f"{g:.0f}x{g:.0f}",
                        poly["leakage"],
                        poly["leakage_improvement_pct"],
                        both["leakage"],
                        both["leakage_improvement_pct"],
                        poly["mct"],
                        both["mct"],
                    ]
                )
        return _table6_result(rows)
    for design in designs:
        ctx_w = get_context(design, fit_width=True)
        for g in grid_sizes:
            poly = optimize_dose_map(ctx_w, g, mode="qp", both_layers=False)
            both = optimize_dose_map(ctx_w, g, mode="qp", both_layers=True)
            rows.append(
                [
                    design,
                    f"{g:.0f}x{g:.0f}",
                    poly.leakage,
                    poly.leakage_improvement_pct,
                    both.leakage,
                    both.leakage_improvement_pct,
                    poly.mct,
                    both.mct,
                ]
            )
    return _table6_result(rows)


def _table6_result(rows) -> TableResult:
    return TableResult(
        exp_id="Table VI",
        title="QP leakage optimization: gate length vs length+width modulation",
        headers=[
            "design", "grid um",
            "Lgate leak", "Lgate imp %", "Both leak", "Both imp %",
            "Lgate MCT", "Both MCT",
        ],
        rows=rows,
    )


def table7(designs=None) -> TableResult:
    """Table VII: fraction of timing endpoints within 95/90/80 % of MCT.

    The paper counts critical *paths*; at our testcase scale raw path
    counting saturates (a single deep cone contributes combinatorially
    many near-equal paths), so we report the per-endpoint worst path --
    the same criticality-concentration statistic with an unbiased
    population.  The trend the paper draws from this table (65 nm
    testcases have a near-critical "hill", 90 nm testcases do not) is
    what the benchmark checks.
    """
    if designs is None:
        designs = ("AES-65", "JPEG-65", "AES-90", "JPEG-90")
    rows = []
    for design in designs:
        ctx = get_context(design)
        arrivals = list(ctx.baseline.endpoint_arrival.values())
        mct = ctx.baseline.mct
        n = len(arrivals)
        frac = {
            t: sum(1 for a in arrivals if a >= t * mct) / n * 100.0
            for t in (0.95, 0.90, 0.80)
        }
        rows.append([design, frac[0.95], frac[0.90], frac[0.80]])
    return TableResult(
        exp_id="Table VII",
        title="Critical-endpoint concentration (worst path per endpoint)",
        headers=["design", "95-100% MCT %", "90-100% MCT %", "80-100% MCT %"],
        rows=rows,
        notes=["65 nm testcases concentrate near-critical paths (the "
               "'hill'); 90 nm testcases are dominated by a few paths"],
    )


def table8(designs=("AES-65", "JPEG-65"), grid_size: float = 5.0,
           dosepl_config: DoseplConfig = None) -> TableResult:
    """Table VIII: QCP dose map optimization followed by dosePl."""
    rows = []
    for design in designs:
        ctx = get_context(design)
        qcp = optimize_dose_map(ctx, grid_size, mode="qcp")
        dp = run_dosepl(ctx, qcp.dose_map_poly, config=dosepl_config)
        rows.append(
            [
                design,
                ctx.baseline.mct,
                qcp.mct,
                qcp.mct_improvement_pct,
                dp.mct,
                (ctx.baseline.mct - dp.mct) / ctx.baseline.mct * 100.0,
                qcp.leakage,
                dp.leakage,
                dp.swaps_accepted,
            ]
        )
    return TableResult(
        exp_id="Table VIII",
        title="QCP + dosePl (cell swapping), 5x5 um grids",
        headers=[
            "design", "nom MCT", "QCP MCT", "QCP imp %",
            "dosePl MCT", "dosePl imp %", "QCP leak", "dosePl leak",
            "swaps",
        ],
        rows=rows,
    )

"""Per-layer ledger: spans around calls into each layer's public functions.

:func:`instrumented` wraps the entry points listed in :data:`LAYERS` with
:func:`repro.obs.span`, where they are looked up -- a name bound by
``from x import f`` is patched in the importing module -- and restores
them on exit.  The spans land in the ordinary telemetry manifest, so
``python -m repro.obs report <manifest>`` reads a traced run, and
:func:`layer_metrics` turns the span tree rebuilt by
:func:`repro.obs.report.build_trees` into the per-layer metrics.

A layer's time is its *self* time: span duration minus its child spans.
Spans of the benchmark itself (``bench.*``) and the program's own spans
count as the benchmark's residual, so every layer's self time plus the
residual adds up to the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib

from repro import obs

#: (span name, self-time metric, [(module, attribute), ...]).  An
#: attribute ``Class.method`` is patched on the class.
LAYERS = (
    ("netlist.make_design", "netlist.make_design_s",
     [("repro.netlist.designs", "make_design"),
      ("repro.core.model", "make_design")]),
    ("placement.place_design", "placement.place_design_s",
     [("repro.core.model", "place_design")]),
    ("core.model.context", "core.model.context_s",
     [("repro.core.model", "DesignContext.__init__")]),
    ("library.characterize", "library.characterize_s",
     [("repro.library.library", "characterize_cell")]),
    ("core.formulate.lookup", "core.formulate.retarget_s",
     [("repro.core.model", "DesignContext.formulation_for")]),
    ("core.formulate.build", "core.formulate.build_s",
     [("repro.core.formulate", "build_formulation"),
      ("repro.core.dmopt", "build_formulation")]),
    ("core.dmopt", "core.dmopt.other_s",
     [("repro.core.dmopt", "optimize_dose_map")]),
    ("core.signoff", "core.dmopt.signoff_s",
     [("repro.core.model", "DesignContext.golden_eval")]),
    ("solver.qcp", "solver.qcp.root_s",
     [("repro.core.dmopt", "solve_qcp")]),
    ("solver.robust", "solver.robust.other_s",
     [("repro.core.dmopt", "solve_qp_robust"),
      ("repro.solver.qcp", "solve_qp_robust")]),
    ("solver.ipm", "solver.ipm.other_s",
     [("repro.solver.robust", "solve_qp_ipm")]),
    ("solver.admm", "solver.admm_s",
     [("repro.solver.robust", "solve_qp")]),
    ("sta.analyze", "sta.analyze_s",
     [("repro.sta.compiled", "VectorTimingAnalyzer.analyze"),
      ("repro.sta.compiled", "VectorTimingAnalyzer.mct")]),
    ("sta.trial_mct", "sta.trial_mct_s",
     [("repro.sta.compiled", "VectorTimingAnalyzer.trial_mct")]),
    ("power.leakage", "power.leakage_s",
     [("repro.core.model", "total_leakage")]),
    ("core.certify", "core.certify.certify_s",
     [("repro.core.certify", "certify_result")]),
    ("core.dosepl", "core.dosepl.search_s",
     [("repro.core.dosepl", "run_dosepl")]),
    ("placement.legalize", "placement.legalize_s",
     [("repro.core.dosepl", "legalize"),
      ("repro.placement.placer", "legalize")]),
    ("variation.mc", "variation.mc_s",
     [("repro.variation.montecarlo", "TimingMonteCarlo.__init__"),
      ("repro.variation.montecarlo", "TimingMonteCarlo.sample_dl"),
      ("repro.variation.montecarlo", "TimingMonteCarlo.mct_samples")]),
    ("variation.ssta", "variation.ssta_s",
     [("repro.variation.ssta", "SSTA.__init__"),
      ("repro.variation.ssta", "SSTA.analyze")]),
)

#: Spans recorded with their own wrappers (see :func:`instrumented`).
FACTOR_SPAN = "solver.ipm.factor"
FILL_SPAN = "bench.fill_probe"
FIT_SPAN = "fitting.fit"
TIME_METRICS = {span: metric for span, metric, _ in LAYERS}
TIME_METRICS[FACTOR_SPAN] = "solver.ipm.factor_s"
TIME_METRICS[FIT_SPAN] = "fitting.fit_s"

#: Every per-layer metric: name -> (unit, better).
PER_LAYER = {
    **{metric: ("s", "lower") for metric in TIME_METRICS.values()},
    "solver.ipm.factorizations": ("count", "lower"),
    "solver.ipm.fill_nnz_mean": ("count", "lower"),
    "solver.ipm.factor_share_pct": ("%", "lower"),
    "solver.ipm.iterations_cold": ("count", "lower"),
    "solver.ipm.iterations_warm": ("count", "lower"),
    "solver.ipm.solves": ("count", "lower"),
    "solver.qcp.inner_solves": ("count", "lower"),
    "solver.qcp.solves": ("count", "lower"),
    "solver.robust.attempts": ("count", "lower"),
    "solver.robust.useful_ratio": ("ratio", "higher"),
    "solver.admm.solves": ("count", "lower"),
    "core.formulate.builds": ("count", "lower"),
    "core.formulate.cache_hits": ("count", "higher"),
    "sta.analyze_calls": ("count", "lower"),
    "sta.trial_mct_calls": ("count", "lower"),
    "core.dosepl.swaps_attempted": ("count", "lower"),
    "core.dosepl.swaps_accepted": ("count", "higher"),
    "core.dosepl.accept_ratio": ("ratio", "higher"),
    "variation.mc_samples": ("count", "lower"),
    "library.characterize_calls": ("count", "lower"),
    "fitting.fits": ("count", "lower"),
    "bench.residual_s": ("s", "lower"),
    "trace.setup_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def _annotate(name: str, sp: dict, out):
    """Attributes a layer's result adds to its span."""
    if name == "solver.ipm":
        sp["iterations"] = int(out.iterations)
        sp["warm"] = bool(out.warm_started)
    elif name == "solver.robust":
        attempts = out.info.get("attempts", ())
        sp["first_ok"] = bool(out.ok and len(attempts) == 1)
    elif name == "core.dosepl":
        sp["attempted"] = int(out.swaps_attempted)
        sp["accepted"] = int(out.swaps_accepted)
    elif name == "variation.mc" and getattr(out, "ndim", 0) == 1:
        sp["samples"] = int(out.shape[0])


def spanned(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name) as sp:
            out = fn(*args, **kwargs)
            if sp is not None:
                _annotate(name, sp, out)
            return out

    return wrapper


def _factor(splu):
    """``splu`` under a factorization span; L+U fill measured after it."""

    @functools.wraps(splu)
    def wrapper(*args, **kwargs):
        with obs.span(FACTOR_SPAN):
            lu = splu(*args, **kwargs)
        with obs.span(FILL_SPAN) as sp:
            if sp is not None:
                sp["nnz"] = int(lu.L.nnz + lu.U.nnz)
        return lu

    return wrapper


def _fit_on_miss(fit):
    """A fitter method spanned only when it really fits (cache miss)."""

    @functools.wraps(fit)
    def wrapper(self, *args, **kwargs):
        key = args if len(args) > 1 else args[0] if args else None
        if not kwargs and key in getattr(self, "_cache", ()):
            return fit(self, *args)
        with obs.span(FIT_SPAN):
            return fit(self, *args, **kwargs)

    return wrapper


class _ModuleProxy:
    """A module with some attributes replaced (for ``spla.splu`` lookups)."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _resolve(module_name: str, attr: str):
    """``(owner, attribute name)``; ``Class.method`` resolves to the class."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def instrumented():
    """Wrap every layer entry point with a span; yields the list of
    ``module:attribute`` targets that do not exist (nothing to wrap)."""
    saved, missing = [], []

    def patch(module_name, attr, make):
        try:
            owner, name = _resolve(module_name, attr)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{attr}")
            return
        saved.append((owner, name, original))
        setattr(owner, name, make(original))

    try:
        for span_name, _, targets in LAYERS:
            for module_name, attr in targets:
                patch(module_name, attr,
                      functools.partial(spanned, span_name))
        patch("repro.solver.ipm", "spla",
              lambda spla: _ModuleProxy(spla, splu=_factor(spla.splu)))
        patch("repro.fitting.delay_fit", "DelayFitter.fit_at_entry",
              _fit_on_miss)
        patch("repro.fitting.leakage_fit", "LeakageFitter.fit", _fit_on_miss)
        yield missing
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def _walk(node, layer=None):
    """``(node, nearest enclosing layer span name)`` over a span tree."""
    yield node, layer
    inner = node.name if node.name in TIME_METRICS else layer
    for child in node.children:
        yield from _walk(child, inner)


def layer_metrics(roots, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run.

    ``roots`` are the root :class:`~repro.obs.report.SpanNode` objects of
    the run (one ``bench.run`` span holding ``bench.setup`` and
    ``bench.pass``); ``untraced_wall_s`` is the same pass timed with
    tracing off, for ``trace.overhead_pct``.
    """
    out = {name: 0 for name in PER_LAYER}
    residual = 0.0
    n_lookups = fills = 0
    robust_first_ok = 0
    for root in roots:
        for node, layer in _walk(root):
            name, attrs = node.name, node.record
            metric = TIME_METRICS.get(name)
            if metric is None:
                residual += node.self_seconds
            else:
                out[metric] += node.self_seconds
            if name == FACTOR_SPAN:
                out["solver.ipm.factorizations"] += 1
            elif name == FILL_SPAN:
                fills += 1
                out["solver.ipm.fill_nnz_mean"] += attrs.get("nnz", 0)
            elif name == "solver.ipm":
                out["solver.ipm.solves"] += 1
                out["solver.robust.attempts"] += 1
                key = "warm" if attrs.get("warm") else "cold"
                out[f"solver.ipm.iterations_{key}"] += attrs.get(
                    "iterations", 0)
            elif name == "solver.admm":
                out["solver.admm.solves"] += 1
                out["solver.robust.attempts"] += 1
            elif name == "solver.robust":
                robust_first_ok += bool(attrs.get("first_ok"))
                if layer == "solver.qcp":
                    out["solver.qcp.inner_solves"] += 1
            elif name == "solver.qcp":
                out["solver.qcp.solves"] += 1
            elif name == "core.formulate.lookup":
                n_lookups += 1
            elif name == "core.formulate.build":
                out["core.formulate.builds"] += 1
                if layer == "core.formulate.lookup":
                    n_lookups -= 1
            elif name == "sta.analyze":
                out["sta.analyze_calls"] += 1
            elif name == "sta.trial_mct":
                out["sta.trial_mct_calls"] += 1
            elif name == "core.dosepl":
                out["core.dosepl.swaps_attempted"] += attrs.get("attempted", 0)
                out["core.dosepl.swaps_accepted"] += attrs.get("accepted", 0)
            elif name == "variation.mc":
                out["variation.mc_samples"] += attrs.get("samples", 0)
            elif name == "library.characterize":
                out["library.characterize_calls"] += 1
            elif name == FIT_SPAN:
                out["fitting.fits"] += 1
            elif name == "bench.setup":
                out["trace.setup_s"] += node.seconds
            elif name == "bench.pass":
                out["trace.wall_s"] += node.seconds
    out["bench.residual_s"] = residual
    out["core.formulate.cache_hits"] = n_lookups
    if fills:
        out["solver.ipm.fill_nnz_mean"] /= fills
    if out["solver.robust.attempts"]:
        out["solver.robust.useful_ratio"] = (
            robust_first_ok / out["solver.robust.attempts"])
    if out["core.dosepl.swaps_attempted"]:
        out["core.dosepl.accept_ratio"] = (
            out["core.dosepl.swaps_accepted"]
            / out["core.dosepl.swaps_attempted"])
    wall = out["trace.wall_s"]
    if wall > 0:
        out["solver.ipm.factor_share_pct"] = (
            100.0 * out["solver.ipm.factor_s"] / wall)
    if untraced_wall_s > 0 and wall > 0:
        out["trace.overhead_pct"] = 100.0 * (wall / untraced_wall_s - 1.0)
    return out

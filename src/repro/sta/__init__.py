"""Static timing analysis substrate.

One engine runs the flow: :class:`~repro.sta.compiled.VectorTimingAnalyzer`
-- compiled timing graph, level-parallel NumPy propagation, incremental
re-timing.  The per-gate dict engine :class:`repro.sta.timing.TimingAnalyzer`
stays as the readable oracle the tests compare it to; no runtime option
selects it.
"""

from repro.sta.compiled import CompiledTimingGraph, VectorTimingAnalyzer
from repro.sta.erc import ErcResult, check_electrical_rules, default_limits
from repro.sta.hold import DEFAULT_HOLD_NS, HoldResult, analyze_hold
from repro.sta.paths import TimingPath, criticality_histogram, top_k_paths
from repro.sta.report import report_dose_map, report_power, report_timing
from repro.sta.timing import DEFAULT_INPUT_SLEW, DEFAULT_PO_LOAD, TimingResult
from repro.sta.wire import arc_wire_delay, net_wire_cap

__all__ = [
    "VectorTimingAnalyzer",
    "CompiledTimingGraph",
    "TimingResult",
    "DEFAULT_INPUT_SLEW",
    "DEFAULT_PO_LOAD",
    "TimingPath",
    "top_k_paths",
    "criticality_histogram",
    "net_wire_cap",
    "arc_wire_delay",
    "analyze_hold",
    "HoldResult",
    "DEFAULT_HOLD_NS",
    "report_timing",
    "report_power",
    "report_dose_map",
    "check_electrical_rules",
    "ErcResult",
    "default_limits",
]

"""Interchange formats: structural Verilog, DEF-like placement,
Liberty-like libraries."""

from repro.io.defio import DefError, parse_def, write_def
from repro.io.liberty import (
    LibertyError,
    parse_liberty,
    roundtrip_close,
    write_liberty,
)
from repro.io.verilog import (
    VerilogError,
    parse_verilog,
    roundtrip_equal,
    write_verilog,
)

__all__ = [
    "write_verilog",
    "parse_verilog",
    "roundtrip_equal",
    "VerilogError",
    "write_def",
    "parse_def",
    "DefError",
    "write_liberty",
    "parse_liberty",
    "roundtrip_close",
    "LibertyError",
]

#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload qcp_table --seed 7 --seconds 30 \
        --trace 0

A run builds fresh design contexts (set-up) and runs the workload's
operations on them (a pass), alternating, until the passes have used
``--seconds`` (at least one pass).  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs one untraced and one
traced set-up + pass and prints the per-layer ledger, writing the span
manifest to ``perfbench/out/`` (``python -m repro.obs report`` reads
it).  The last stdout line is the result object; the line before it
records the environment.  Exit status 0 means the run completed, even
if a correctness check failed (``"correct": false``).
"""

from __future__ import annotations

import os
import sys

# Cap BLAS threads before numpy is first imported.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
#: Set-ups per run: at least MIN_SETUPS and SETUP_SECONDS in total, at
#: most MAX_SETUPS; ``setup_s`` is their median.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 5, 12, 4.0


def _import_program():
    """Import the program from this checkout's ``src`` (never elsewhere)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _log_pass(tag: str, seconds: float, ops):
    _log(f"{tag}: {seconds:.3f} s, {len(ops)} ops")
    for op in ops:
        _log(f"  {op.name:<34}{op.seconds:9.3f} s"
             + (f"  FAILED: {'; '.join(op.problems)}" if op.failed else ""))


def timed_setup(wl, scale: float):
    t0 = time.perf_counter()
    state = wl.setup(scale)
    return state, time.perf_counter() - t0


def one_pass(wl, scale: float, seed: int, chips: int):
    """Fresh set-up, then one timed pass: ``(result, setup_s, wall_s)``."""
    state, setup_s = timed_setup(wl, scale)
    t0 = time.perf_counter()
    result = wl.run(state, seed, chips)
    wall_s = time.perf_counter() - t0
    del state
    gc.collect()
    return result, setup_s, wall_s


def measure(wl, seed: int, seconds: float, scale: float, chips: int):
    """End-to-end metrics and all operations of a time-boxed run."""
    setups, walls, ops, first = [], [], [], None
    while True:
        result, setup_s, wall_s = one_pass(wl, scale, seed, chips)
        setups.append(setup_s)
        walls.append(wall_s)
        ops.extend(result.ops)
        if first is None:
            first = result
        _log_pass(f"pass {len(walls)}", wall_s, result.ops)
        if sum(walls) + statistics.median(walls) > seconds:
            break
    while len(setups) < MIN_SETUPS or (
            sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS):
        state, setup_s = timed_setup(wl, scale)
        setups.append(setup_s)
        del state
        gc.collect()
    _log(f"setups: {' '.join(f'{s:.3f}' for s in setups)} s")
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(op.seconds for op in ops),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mct_gain_pct": statistics.fmean(first.mct_gains),
        "leak_gain_pct": statistics.fmean(first.leak_gains),
        "timing_yield_pct": first.yield_pct,
    }
    return values, ops


def trace(wl, seed: int, scale: float, chips: int, env: dict):
    """Per-layer ledger: an untraced pass, then a traced one."""
    from repro import obs, telemetry
    from repro.obs import report
    from perfbench import ledger

    result, _, untraced_wall = one_pass(wl, scale, seed, chips)
    ops = list(result.ops)
    _log_pass("untraced pass", untraced_wall, result.ops)

    OUT_DIR.mkdir(exist_ok=True)
    manifest = OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl"
    manifest.unlink(missing_ok=True)
    telemetry.configure(enabled=True, path=str(manifest))
    try:
        with ledger.instrumented() as missing:
            with obs.span("bench.run", workload=wl.name, **env):
                with obs.span("bench.setup"):
                    state = wl.setup(scale)
                with obs.span("bench.pass"):
                    result = wl.run(state, seed, chips)
        obs.metrics.flush("perfbench")
    finally:
        telemetry.configure(enabled=False)
        telemetry.reset()
    ops.extend(result.ops)
    if missing:
        _log(f"not instrumented (absent): {', '.join(missing)}")

    records, _ = report.load_manifest(manifest)
    roots = [r for rs in report.build_trees(records).values() for r in rs]
    values = ledger.layer_metrics(roots, untraced_wall)
    _log_pass("traced pass", values["trace.wall_s"], result.ops)
    _log(f"manifest: {manifest.relative_to(ROOT)}")
    return values, ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7,
                    help="Monte Carlo/SSTA variation seed")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time box of the passes (at least one pass runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="design scale (below 1 only for smoke runs)")
    ap.add_argument("--chips", type=int, default=None,
                    help="Monte Carlo chips (default: workloads.MC_CHIPS)")
    args = ap.parse_args(argv)

    _import_program()
    from perfbench import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    chips = args.chips or workloads.MC_CHIPS
    env = environment(args.seed)
    print(json.dumps({"workload": wl.name, "trace": args.trace,
                      "scale": args.scale, "chips": chips, "env": env}),
          flush=True)
    if args.trace:
        from perfbench.ledger import PER_LAYER as units

        values, ops = trace(wl, args.seed, args.scale, chips, env)
    else:
        units = workloads.END_TO_END
        values, ops = measure(wl, args.seed, args.seconds, args.scale, chips)
    failed = sum(op.failed for op in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in values.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

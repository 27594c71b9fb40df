"""CI chaos lane: run the pipeline with every fault injector armed.

Exercises the recovery paths end-to-end with deterministic
``REPRO_CHAOS`` injections (see :mod:`repro.resilience.chaos`):

1. a worker hard-crash is retried in the parent (pool restart path),
   while an injected hang is killed by the watchdog and reported as a
   diagnostic ``timeout`` row -- the rest of the run completes;
2. a checkpoint append torn mid-write is not committed, the torn tail
   is repaired, and the work re-runs on resume;
3. a faked NaN (diverged) primary solver attempt is recovered by the
   fallback chain, for a QP and for a QCP (whose one-shot IPM retries
   regularized before its bisection fallback).

Exits non-zero on any broken contract.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

import json
import math
import os
import sys
import tempfile


def _set_chaos(conf):
    from repro.resilience import chaos

    os.environ[chaos.ENV_FLAG] = json.dumps(conf)
    chaos.reset()


def main() -> int:
    from repro.experiments.harness import (
        DMoptCell,
        STATUS_TIMEOUT,
        run_dmopt_cells,
    )
    from repro.resilience import chaos
    from repro.resilience.checkpoint import CheckpointStore
    from repro.solver import solve_qcp, solve_qp_robust

    import numpy as np

    cells = [
        DMoptCell("AES-65", 30.0, mode="qp", scale=0.3),
        DMoptCell("AES-65", 30.0, mode="qcp", scale=0.3),
        DMoptCell("AES-65", 50.0, mode="qp", scale=0.3),
    ]

    # 1a. worker hard-crash: pool restarted, cell retried in the parent
    # (kept separate from the hang injection -- a broken pool degrades
    # the rest of the run to the parent's serial path, which is
    # deliberately watchdog-free)
    _set_chaos({"worker_crash": {"indices": [0]}})
    rows = run_dmopt_cells(cells[:2], jobs=2)
    assert [r["status"] for r in rows] == ["solved", "solved"], rows
    print("chaos 1/5: worker crash retried, run completed")

    # 1b. hung solve under the watchdog: killed at the deadline,
    # reported as a diagnostic timeout row, rest completes
    _set_chaos({"slow_solve": {"indices": [2], "seconds": 600}})
    rows = run_dmopt_cells(cells, jobs=2, cell_timeout=3.0)
    assert rows[0]["status"] == "solved", rows[0]
    assert rows[1]["status"] == "solved", rows[1]
    assert rows[2]["status"] == STATUS_TIMEOUT, rows[2]
    assert math.isnan(rows[2]["mct"])
    print("chaos 2/5: hang killed at deadline, run completed")

    # 2. torn checkpoint append: not committed, repaired, re-run works
    _set_chaos({"corrupt_checkpoint": {"nth": 1}})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.jsonl")
        store = CheckpointStore(path)
        assert store.put("k1", {"a": 1}) is False  # torn mid-write
        assert store.get("k1") is None
        assert store.put("k1", {"a": 1}) is True  # tail repaired
        store.close()
        reloaded = CheckpointStore(path)
        assert reloaded.get("k1") == {"a": 1}
        assert reloaded.corrupt_lines == 0
    print("chaos 3/5: torn checkpoint append repaired and re-committed")

    # 3. faked diverged primary attempt: fallback chain recovers
    _set_chaos({"solver_nan": {"nth": 1}})
    n = 6
    res = solve_qp_robust(
        np.eye(n), -np.ones(n), np.eye(n), -np.ones(n), np.ones(n)
    )
    assert res.ok, res
    assert len(res.info.get("attempts", [])) > 1, res.info
    print("chaos 4/5: injected solver NaN recovered by the fallback chain")

    # 4. the same fault in a QCP's one-shot IPM: the QCP chain recovers
    _set_chaos({"solver_nan": {"nth": 1}})
    res = solve_qcp(
        -np.ones(n), np.eye(n), -np.ones(n), np.ones(n), np.eye(n),
        np.zeros(n), 1.0,
    )
    assert res.ok, res
    assert len(res.info.get("attempts", [])) > 1, res.info
    print("chaos 5/5: injected solver NaN in a QCP recovered by its chain")

    del os.environ[chaos.ENV_FLAG]
    chaos.reset()
    print("chaos smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

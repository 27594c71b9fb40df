"""CI resume smoke: interrupt a traced cell run, resume, diff the rows.

Runs the Table IV-style DMopt cells serially with a checkpoint and
telemetry manifest, simulates a mid-run kill by tearing the checkpoint
after the second record (a truncated trailing line, exactly what an
interrupted ``fsync``'d append leaves behind), then restarts with
resume and asserts:

* the resumed rows are byte-identical to the uninterrupted run
  (wall-clock ``runtime`` excluded, by design);
* exactly the surviving cells were served from the checkpoint
  (``checkpoint_hits`` on the resumed run's ``harness.run_dmopt_cells``
  span);
* the run manifest validates against the telemetry schema.

Exits non-zero on any mismatch.

Usage::

    PYTHONPATH=src python benchmarks/resume_smoke.py
"""

import json
import os
import sys
import tempfile


def _rows_sans_runtime(rows):
    return [
        json.dumps({k: v for k, v in r.items() if k != "runtime"},
                   sort_keys=True)
        for r in rows
    ]


def main() -> int:
    from repro import telemetry
    from repro.experiments.harness import DMoptCell, run_dmopt_cells

    cells = [
        DMoptCell("AES-65", 30.0, mode="qp", scale=0.3),
        DMoptCell("AES-65", 30.0, mode="qcp", scale=0.3),
        DMoptCell("AES-65", 50.0, mode="qp", scale=0.3),
    ]

    with tempfile.TemporaryDirectory() as tmp:
        ck = os.path.join(tmp, "cells.jsonl")
        manifest = os.path.join(tmp, "trace.jsonl")
        telemetry.configure(enabled=True, path=manifest)
        try:
            reference = run_dmopt_cells(cells, jobs=1, checkpoint=ck)
            assert all(r["status"] == "solved" for r in reference)

            # interrupt: keep 2 complete records + a torn third line
            with open(ck, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert len(lines) == len(cells)
            with open(ck, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines[:2]) + "\n")
                fh.write(lines[2][: len(lines[2]) // 2])

            resumed = run_dmopt_cells(cells, jobs=1, checkpoint=ck)
        finally:
            telemetry.reset()

        if _rows_sans_runtime(resumed) != _rows_sans_runtime(reference):
            print("FAIL: resumed rows differ from the uninterrupted run",
                  file=sys.stderr)
            return 1

        events = [json.loads(line) for line in open(manifest)]
        runs = [e for e in events if e["event"] == "span"
                and e["name"] == "harness.run_dmopt_cells"]
        hits = [run["checkpoint_hits"] for run in runs]
        if hits != [0, 2]:
            print(f"FAIL: expected checkpoint hits [0, 2] (reference, "
                  f"resumed run), saw {hits}", file=sys.stderr)
            return 1

        n, errors = telemetry.validate_manifest(manifest)
        if errors:
            print("FAIL: manifest schema errors:", *errors, sep="\n  ",
                  file=sys.stderr)
            return 1
        print(f"resume smoke OK: {len(cells)} rows byte-identical, "
              f"2 cells resumed from checkpoint, {n} manifest events valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())

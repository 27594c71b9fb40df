"""End-to-end benchmark of the DMopt flow with a per-layer trace ledger.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; see ``perfbench/README.md``.
"""

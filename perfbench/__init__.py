"""End-to-end and per-layer benchmark of the exploration service.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N``
from the repository root; see ``perfbench/README.md``.
"""

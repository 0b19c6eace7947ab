"""Discrete-event simulation of the scheduled program.

The analytical estimator (:mod:`repro.core.costs`) drives the search;
this package *validates* its decisions by replaying the chosen
assignment and TE schedule on a simulated CPU + DMA engine:

* the CPU walks the loop tree, paying compute cycles and per-access
  latencies, and **blocks** at every fill boundary until the DMA job
  that loads the copy's next contents has completed;
* the DMA engine is a single serial channel: concurrent requests queue
  and are served in priority order (the ``dma_priority()`` assignment of
  Figure 1), so transfer *contention* — which the analytical model
  ignores — is captured here;
* time-extended fills are issued ``hidden_cycles`` before their use
  point, write-backs are posted at the end of each fill period.

Loop subtrees that contain no transfer events are aggregated
analytically (their per-iteration cycle cost is exact), so simulating a
CIF-size motion-estimation run costs hundreds of events instead of tens
of millions.

The agreement between simulator and estimator is itself an experiment:
the ``simulation`` check of README.md, "Fuzzing & differential
verification".
"""

from repro.sim.engine import SimStats, Simulator, simulate
from repro.sim.dma_engine import DmaEngineSim, DmaJob

__all__ = ["DmaEngineSim", "DmaJob", "SimStats", "Simulator", "simulate"]

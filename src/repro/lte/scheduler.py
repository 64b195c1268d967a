"""Cell load outside the simulated UEs, and the scheduler registry.

The MAC schedulers themselves — round-robin, proportional-fair and
max-CQI, each with a scalar and an array lane — live in
:mod:`repro.lte.vecsched`; this module re-exports their registry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .vecsched import make_scheduler, scheduler_names

__all__ = ["CrossTraffic", "make_scheduler", "scheduler_names"]


@dataclass
class CrossTraffic:
    """Ambient load from other (non-victim) subscribers in the cell.

    Real cells are never empty: other UEs compete for PRBs, adding
    queueing jitter to the victim's grants.  Rather than simulating
    thousands of full UEs, cross traffic occupies a random number of
    PRBs per TTI, shrinking what the scheduler can hand out — the same
    first-order effect at a fraction of the cost.
    """

    mean_load: float = 0.0          # fraction of PRBs consumed on average
    burstiness: float = 0.3         # relative spread of the load

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_load < 1.0:
            raise ValueError(f"mean_load out of [0, 1): {self.mean_load}")
        if self.burstiness < 0.0:
            raise ValueError(f"burstiness must be >= 0: {self.burstiness}")

    def occupied_prb(self, total_prb: int, rng: random.Random) -> int:
        """PRBs consumed by other users this TTI."""
        if self.mean_load <= 0.0:
            return 0
        load = rng.gauss(self.mean_load, self.mean_load * self.burstiness)
        load = min(0.95, max(0.0, load))
        return int(total_prb * load)

"""Lock analysis utilities: budgets, sweeps, and the BIST verdict rule.

Section III fixes the BIST acceptance criteria: lock within 2 us (5000
cycles at 2.5 Gbps) and no more than ``n_phases / 2`` coarse corrections
from any starting phase.  These helpers run those checks across startup
conditions and summarise lock-time statistics for the benches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..link.params import LinkParams
from .loop import LOCK_BUDGET_S, LoopResult, SynchronizerLoop, bist_verdict

__all__ = ["LOCK_BUDGET_S", "LockSweepResult", "bist_verdict",
           "coarse_correction_bound", "lock_sweep"]


@dataclass
class LockSweepResult:
    """Lock behaviour across every DLL startup phase."""

    results: Dict[int, LoopResult]

    @property
    def all_locked(self) -> bool:
        return all(r.locked for r in self.results.values())

    @property
    def all_within_budget(self) -> bool:
        return all(r.locked and r.lock_time is not None
                   and r.lock_time <= LOCK_BUDGET_S
                   for r in self.results.values())

    @property
    def worst_lock_time(self) -> Optional[float]:
        times = [r.lock_time for r in self.results.values()
                 if r.lock_time is not None]
        return max(times) if times else None

    @property
    def max_coarse_corrections(self) -> int:
        return max(r.coarse_corrections for r in self.results.values())

    def lock_times(self) -> List[Optional[float]]:
        return [self.results[k].lock_time for k in sorted(self.results)]


def lock_sweep(params: Optional[LinkParams] = None,
               max_cycles: int = 20000, seed: int = 7) -> LockSweepResult:
    """Run the synchronizer from every DLL startup phase."""
    base = params or LinkParams()
    results: Dict[int, LoopResult] = {}
    for k in range(base.n_phases):
        p = replace(base, initial_phase_index=k)
        loop = SynchronizerLoop(params=p, seed=seed)
        results[k] = loop.run(max_cycles=max_cycles)
    return LockSweepResult(results=results)


def coarse_correction_bound(params: Optional[LinkParams] = None) -> int:
    """Theoretical maximum coarse corrections: half the DLL phases."""
    p = params or LinkParams()
    return p.n_phases // 2

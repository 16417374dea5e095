"""An approximation-controlled stop rule from the related work.

The paper's section 6 surveys stop criteria beyond "n chunks" and "time
budget".  **AC-NN** (Ciaccia & Patella, ICDE 2000) takes a user-set
relative error ``epsilon``: stop once no unread chunk can contain a
descriptor closer than ``kth_distance / (1 + epsilon)``.  The returned
k-th neighbor is then provably within a factor ``(1 + epsilon)`` of the
true k-th distance.  The same paper's probabilistic PAC-NN variant is not
shipped: in the approximation-rule ablation it never fired before the
exact completion proof.

VA-BND (Weber & Böhm, EDBT 2000) uses the same relaxation with
``epsilon`` estimated by sampling database vectors; no estimator is
shipped here, so :class:`EpsilonApproximation` takes a user-set value.

The rule integrates with the chunk search as an ordinary
:class:`~repro.core.stop_rules.StopRule`, consuming the
``remaining_lower_bound`` the searcher already maintains.
"""

from __future__ import annotations

import math
from typing import Optional

from .stop_rules import SearchProgress, StopRule

__all__ = ["EpsilonApproximation"]


class EpsilonApproximation(StopRule):
    """AC-NN stop rule: (1 + epsilon)-approximate completion.

    Stops once ``k`` neighbors are known and every unread chunk's lower
    bound exceeds ``kth_distance / (1 + epsilon)``.  With ``epsilon = 0``
    this degenerates to the exact completion proof.
    """

    def __init__(self, epsilon: float, k: int):
        if epsilon < 0 or math.isnan(epsilon):
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        if k < 1:
            raise ValueError("k must be positive")
        self.epsilon = float(epsilon)
        self.k = int(k)

    def check(self, progress: SearchProgress) -> Optional[str]:
        if progress.neighbors_found < self.k:
            return None
        if math.isinf(progress.kth_distance):
            return None
        relaxed = progress.kth_distance / (1.0 + self.epsilon)
        if progress.remaining_lower_bound > relaxed:
            return f"epsilon-approx({self.epsilon:g})"
        return None

    def __repr__(self) -> str:
        return f"EpsilonApproximation(epsilon={self.epsilon!r}, k={self.k})"

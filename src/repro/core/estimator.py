"""Per-query confidence information.

Section 5 observes that the Count-Min confidence intervals apply *within each
localized partition*: because the frequency mass ``N_i`` absorbed by each
partition is known, the additive error bound ``e * N_i / w_i`` (Equation 1)
and the failure probability ``e^-d`` can be reported per query, and they
differ across partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from repro.sketches.countmin import CountMinSketch


@dataclass(frozen=True)
class ConfidenceInterval:
    """A one-sided Count-Min confidence statement for a point estimate.

    With probability at least ``1 - failure_probability`` the true frequency
    ``f`` satisfies ``lower <= f <= estimate`` where
    ``lower = max(0, estimate - additive_bound)`` (Count-Min never
    underestimates).

    ``upper_slack`` widens the upper end for *degraded* serving: a dropped
    shard may have lost up to that much frequency mass, so the sketch can
    now underestimate by it — ``upper = estimate + upper_slack`` keeps the
    interval sound.  Healthy serving leaves it at 0 (one-sided as before).
    """

    estimate: float
    additive_bound: float
    failure_probability: float
    upper_slack: float = 0.0

    @property
    def lower(self) -> float:
        return max(0.0, self.estimate - self.additive_bound)

    @property
    def upper(self) -> float:
        return self.estimate + self.upper_slack

    def contains(self, true_frequency: float) -> bool:
        """Whether the stated interval contains ``true_frequency``."""
        return self.lower <= true_frequency <= self.upper


def countmin_confidence(sketch: CountMinSketch, estimate: float) -> ConfidenceInterval:
    """Build the Equation-1 confidence interval for an estimate from ``sketch``."""
    return ConfidenceInterval(
        estimate=float(estimate),
        additive_bound=math.e * sketch.total_count / sketch.width,
        failure_probability=math.exp(-sketch.depth),
    )


class ConfidenceColumns(NamedTuple):
    """A block's Equation-1 answers as aligned per-key columns.

    Every backend's ``confidence_columns`` returns one of these from a single
    plan pass; the typed results (:class:`ConfidenceInterval`, and the
    facade's ``Estimate``/``Provenance``) are materialized from it once, at
    the API edge.

    Attributes:
        estimates: point estimates (``float64``).
        bounds: additive Equation-1 bounds (``float64``).
        failures: failure probabilities (``float64``).
        partitions: partition that answered each key
            (:data:`~repro.core.router.OUTLIER_PARTITION` for the outlier
            sketch); ``None`` for backends without a partitioning.
        shards: shard owning each key's partition (sharded backend only).
        degraded: whether that shard was dropped (degraded serving only).
        upper_slacks: lost frequency mass widening each upper end (degraded
            serving only).

    ``shards`` and ``degraded`` are functions of the partition within one
    block: shard ownership is fixed at build time and the dead-shard set is
    read once per block.
    """

    estimates: np.ndarray
    bounds: np.ndarray
    failures: np.ndarray
    partitions: Optional[np.ndarray] = None
    shards: Optional[np.ndarray] = None
    degraded: Optional[np.ndarray] = None
    upper_slacks: Optional[np.ndarray] = None

    def intervals(self) -> List[ConfidenceInterval]:
        """The per-key :class:`ConfidenceInterval` objects, in key order.

        The single place confidence columns become typed intervals.  Each
        column is converted with one ``tolist()`` (plain Python floats,
        bit-identical to per-element ``float()``).
        """
        columns = [self.estimates.tolist(), self.bounds.tolist(), self.failures.tolist()]
        if self.upper_slacks is not None:
            columns.append(self.upper_slacks.tolist())
        return list(map(ConfidenceInterval, *columns))

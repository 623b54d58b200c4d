"""Campaign layer: declarative parameter sweeps over the batch engine.

The full paper evaluation is one giant parameter grid; this package
makes such grids first-class objects instead of hand-rolled loops:

- :mod:`repro.campaign.grid` — declare a :class:`Campaign` (axes over
  workload/prefetcher/variant/any ``SystemConfig`` field, fixed values,
  excludes) that expands deterministically into fingerprinted cells.
- :mod:`repro.campaign.store` — a sqlite results store
  (:class:`CampaignStore`) with filtering, speedup aggregation and
  CSV/JSON export.
- :mod:`repro.campaign.execute` — :func:`run_missing`, the incremental
  executor: only cells absent from store + disk cache are simulated,
  so killed sweeps resume with zero re-simulation.  The missing cells
  run in this process or on ``repro serve`` replicas (``replicas=``).

Driven from the CLI as ``repro campaign new|status|run|query|export``.
"""

from repro.campaign.grid import (       # noqa: F401
    Campaign,
    CampaignCell,
    CampaignSpecError,
)
from repro.campaign.store import (      # noqa: F401
    CampaignStatus,
    CampaignStore,
    store_path,
)
from repro.campaign.execute import (    # noqa: F401
    CampaignRunReport,
    run_missing,
)

__all__ = [
    "Campaign", "CampaignCell", "CampaignSpecError",
    "CampaignStatus", "CampaignStore", "store_path",
    "CampaignRunReport", "run_missing",
]

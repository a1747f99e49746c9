"""Resource-budgeted adaptive parsing: degrade gracefully, never die.

The paper's cost findings (Finding 3: clustering parsers do not scale;
Finding 6: the *kind* of parsing error determines mining damage) imply
a production trade-off this package makes explicit and enforceable:

* :mod:`~repro.degradation.budget` — declare soft/hard limits on
  wall-clock, memory, template-cache size, and ingest-queue depth, and
  sample a live run against them (:class:`ResourceBudget`,
  :class:`BudgetMonitor`).
* :mod:`~repro.degradation.ladder` — a ladder of parser rungs
  stepped one rung at a time on sustained breaches, each transition
  audited as a :class:`DegradationEvent` with the budget evidence that
  caused it; :data:`FRONTIER` holds the measured steps (LKE, LogSig
  and SLCT step to Drain; every other parser is its own floor).
* :mod:`~repro.degradation.ledger` — what each downgrade is expected
  to cost downstream mining, seeded from the measured Table III
  reproduction (:class:`MiningImpactLedger`).
* :mod:`~repro.degradation.runtime` — the wiring:
  :class:`DegradedSession` (budgeted streaming; a step swaps the flush
  parser and nothing else).
* :mod:`~repro.degradation.soak` — deterministic chaos-soak scenarios
  that replay seeded pressure schedules and audit the contract.
"""

from repro.degradation.budget import (
    BudgetBreach,
    BudgetLimit,
    BudgetMonitor,
    BudgetSample,
    ResourceBudget,
    default_memory_probe,
)
from repro.degradation.ladder import (
    FRONTIER,
    DegradationEvent,
    DegradationLadder,
    LadderRung,
    frontier,
)
from repro.degradation.ledger import (
    ImpactEstimate,
    MiningImpactLedger,
    TransitionCost,
)
from repro.degradation.runtime import DegradedSession
from repro.degradation.soak import (
    SCENARIO_KINDS,
    SoakReport,
    SoakScenario,
    run_soak,
    soak_ladder,
)

__all__ = [
    "BudgetBreach",
    "BudgetLimit",
    "BudgetMonitor",
    "BudgetSample",
    "ResourceBudget",
    "default_memory_probe",
    "FRONTIER",
    "DegradationEvent",
    "DegradationLadder",
    "LadderRung",
    "frontier",
    "ImpactEstimate",
    "MiningImpactLedger",
    "TransitionCost",
    "DegradedSession",
    "SCENARIO_KINDS",
    "SoakReport",
    "SoakScenario",
    "run_soak",
    "soak_ladder",
]

"""Crowd-platform simulator: the library's Amazon Mechanical Turk stand-in.

The paper's scaled experiments use simulated workers with the error model
of Sec. VI-A4; this package provides the surrounding marketplace.  It
keeps totals, not records: a round returns its votes and the spend
against the budget, and a closed platform refuses a second round.

* :class:`~repro.platform.simulator.NonInteractivePlatform` — the paper's
  setting: publish all HITs once, collect all votes, close;
* :class:`~repro.platform.interactive.InteractivePlatform` — the
  round-based setting required by the CrowdBT baseline: the requester
  repeatedly asks for single comparisons until the budget runs out;
* :mod:`~repro.platform.pricing` — the payment ledger.
"""

from .pricing import PaymentLedger
from .simulator import CrowdsourcingRun, NonInteractivePlatform
from .interactive import InteractivePlatform

__all__ = [
    "PaymentLedger",
    "CrowdsourcingRun",
    "NonInteractivePlatform",
    "InteractivePlatform",
]

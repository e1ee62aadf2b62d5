"""Lock implementations: the paper's queuing-lock approximation and
test-and-test-and-set, plus an exact queuing lock, a naive test-and-set
baseline, and the extension lock zoo (MCS, CLH, ticket, exponential-
backoff T&S) behind the same :class:`LockManager` interface.

:mod:`repro.sync.predict` consumes the ideal-trace lock statistics and
predicts each scheme's contention behaviour closed-form; see
docs/locks.md for the catalog and the predictor's validation table.
"""

from .backoff import BackoffTestAndSetLockManager
from .barrier import BarrierManager, BarrierStats
from .base import LockManager, LockPortAPI, LockState
from .clh import CLHLockManager
from .exact_queuing import ExactQueuingLockManager
from .mcs import MCSLockManager
from .queuing import QueuingLockManager
from .stats import LockStats, LockStatsCollector
from .tas import TestAndSetLockManager
from .ticket import TicketLockManager
from .ttas import TestAndTestAndSetLockManager

__all__ = [
    "BackoffTestAndSetLockManager",
    "BarrierManager",
    "BarrierStats",
    "CLHLockManager",
    "ExactQueuingLockManager",
    "LockManager",
    "LockPortAPI",
    "LockState",
    "LockStats",
    "LockStatsCollector",
    "MCSLockManager",
    "QueuingLockManager",
    "TestAndSetLockManager",
    "TestAndTestAndSetLockManager",
    "TicketLockManager",
    "get_lock_manager",
    "LOCK_SCHEMES",
]

LOCK_SCHEMES = {
    "queuing": QueuingLockManager,
    "exact-queuing": ExactQueuingLockManager,
    "ttas": TestAndTestAndSetLockManager,
    "tas": TestAndSetLockManager,
    "mcs": MCSLockManager,
    "clh": CLHLockManager,
    "ticket": TicketLockManager,
    "backoff": BackoffTestAndSetLockManager,
}


def get_lock_manager(name: str, **kwargs) -> LockManager:
    """Instantiate a lock manager by scheme name."""
    try:
        cls = LOCK_SCHEMES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown lock scheme {name!r}; expected one of {sorted(LOCK_SCHEMES)}"
        ) from None
    return cls(**kwargs)

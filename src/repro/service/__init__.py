"""repro.service: a sharded sweep service over the content-addressed stores.

The service turns the batch executor into simulation-as-a-service:

* :mod:`~repro.service.scheduler` -- asyncio cell scheduler: cache-first
  lookup, one in-flight job per content address (later requesters attach
  to the same future), pooled execution with retries, exponential
  backoff, and per-job deadline budgets.  Its synchronous facade
  :func:`~repro.service.scheduler.run_batch` is the engine behind
  :func:`repro.runner.run_jobs`.
* :mod:`~repro.service.planner` -- cost-balanced shard planning for
  sweep grids dispatched to remote workers.
* :mod:`~repro.service.transport` -- in-process and socket transports
  (stdlib only) over one length-prefixed binary framing; multi-host
  workers are a config change.
* :mod:`~repro.service.worker` -- the worker agent at the far end of a
  transport (``ping`` / ``run`` / ``run_shard`` / ``has`` / ``fetch``
  / ``stats``).
* :mod:`~repro.service.stores` -- the peer-replicated warm-store tier:
  read-through ``has``/``fetch`` against peer stores, checking fetched
  results against their specs and healing them into the local caches.
* :mod:`~repro.service.aggregator` -- streaming fold of finished cells
  into JSONL manifests and incremental suite tables.
* :mod:`~repro.service.frontend` -- HTTP front end (``/submit``,
  ``/status``, ``/metrics``, ``/result/<key>``) and the synchronous
  client behind ``repro serve`` / ``repro submit`` / ``repro status``.
* :mod:`~repro.service.metrics` -- service counters and per-stage
  latency histograms with Prometheus text exposition.
"""

from .aggregator import StreamAggregator
from .frontend import ServiceClient, ServiceServer
from .metrics import LatencyHistogram, ServiceMetrics
from .planner import Shard, estimate_cost, grid_specs, plan_shards, replan
from .scheduler import CellOutcome, Overloaded, Scheduler, run_batch
from .stores import PeerStore
from .transport import (
    Blob,
    FrameTooLarge,
    InProcessTransport,
    SocketTransport,
    serve_socket,
)
from .worker import WorkerAgent, serve_worker

__all__ = [
    "Blob",
    "CellOutcome",
    "FrameTooLarge",
    "InProcessTransport",
    "LatencyHistogram",
    "Overloaded",
    "PeerStore",
    "Scheduler",
    "ServiceClient",
    "ServiceMetrics",
    "ServiceServer",
    "Shard",
    "SocketTransport",
    "StreamAggregator",
    "WorkerAgent",
    "estimate_cost",
    "grid_specs",
    "plan_shards",
    "replan",
    "run_batch",
    "serve_socket",
    "serve_worker",
]

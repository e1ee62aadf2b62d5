"""Service observability: counters, gauges, and latency histograms.

Everything the scheduler and front end measure funnels into one
:class:`ServiceMetrics` object, which renders either as JSON
(``GET /status``, scripts) or as Prometheus text exposition format
(``GET /metrics``, scrapers).  Stdlib-only and allocation-light: a
histogram observation is two integer increments and a float add.

The histograms use fixed logarithmic (power-of-two) bucket boundaries
in seconds, chosen to resolve both a warm content-addressed cache hit
(tens of microseconds) and a cold multi-second simulation in the same
instrument.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field

__all__ = ["LatencyHistogram", "ServiceMetrics", "STAGES"]

#: per-request pipeline stages the scheduler times, in order:
#: ``lookup`` (cache probe), ``wait`` (queue + dedup-attach wait),
#: ``execute`` (simulation attempts incl. backoff), ``total``
#: (request admission to response)
STAGES = ("lookup", "wait", "execute", "total")

#: upper bounds in seconds: 16us .. ~134s, doubling each bucket, plus
#: a +Inf overflow bucket
_BUCKET_BOUNDS = tuple(16e-6 * 2**i for i in range(24))


class LatencyHistogram:
    """Fixed-bucket log-scale latency histogram (seconds)."""

    __slots__ = ("counts", "overflow", "total", "sum_seconds", "max_seconds")

    def __init__(self) -> None:
        self.counts = [0] * len(_BUCKET_BOUNDS)
        self.overflow = 0
        self.total = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        i = bisect.bisect_left(_BUCKET_BOUNDS, seconds)
        if i < len(_BUCKET_BOUNDS):
            self.counts[i] += 1
        else:
            self.overflow += 1
        self.total += 1
        self.sum_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    # ------------------------------------------------------------------
    @property
    def mean_seconds(self) -> float:
        return self.sum_seconds / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 < q <= 1)."""
        if not self.total:
            return 0.0
        rank = q * self.total
        seen = 0
        for bound, count in zip(_BUCKET_BOUNDS, self.counts):
            seen += count
            if seen >= rank:
                return bound
        return self.max_seconds

    def to_dict(self) -> dict:
        return {
            "count": self.total,
            "sum_seconds": round(self.sum_seconds, 6),
            "mean_seconds": round(self.mean_seconds, 6),
            "max_seconds": round(self.max_seconds, 6),
            "p50_seconds": round(self.quantile(0.5), 6),
            "p99_seconds": round(self.quantile(0.99), 6),
        }

    def buckets(self):
        """``(upper_bound_seconds, cumulative_count)`` pairs, the +Inf
        bucket last -- the Prometheus ``le`` convention."""
        cumulative = 0
        out = []
        for bound, count in zip(_BUCKET_BOUNDS, self.counts):
            cumulative += count
            out.append((bound, cumulative))
        out.append((float("inf"), cumulative + self.overflow))
        return out


@dataclass
class ServiceMetrics:
    """All counters/gauges/histograms for one scheduler instance.

    ``dedup_attached`` counts requests that found their cell already
    in flight and attached to the existing future -- the service's
    duplicate-suppression figure of merit: for N concurrent identical
    requests it reads N-1 while ``executed`` reads 1.
    """

    requests: int = 0
    cache_hits: int = 0  # answered from the result cache
    cache_misses: int = 0
    dedup_attached: int = 0  # joined an in-flight job instead of enqueuing
    executed: int = 0  # simulations actually run
    failed: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    deadline_exceeded: int = 0
    queue_depth: int = 0  # gauge: jobs admitted but not yet running
    in_flight: int = 0  # gauge: distinct keys currently being computed
    shards_dispatched: int = 0
    # -- store tier ----------------------------------------------------
    remote_hits: int = 0  # objects served by a peer store, not simulated
    remote_misses: int = 0  # peer consults that found nothing
    remote_rejects: int = 0  # peer answers refused: wrong spec or key, or an invalid trace
    # -- backpressure / priority lanes ---------------------------------
    shed: int = 0  # requests refused at the queue-depth bound (503s)
    priority_high: int = 0  # requests admitted on the high lane
    # -- resilience ----------------------------------------------------
    worker_failures: int = 0  # shard dispatches lost to a dead worker
    shards_replanned: int = 0  # shards re-planned onto survivors
    # -- transport payload accounting ----------------------------------
    bytes_sent: int = 0
    bytes_received: int = 0
    frames_binary: int = 0
    stage_latency: dict = field(
        default_factory=lambda: {s: LatencyHistogram() for s in STAGES}
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # ------------------------------------------------------------------
    def observe(self, stage: str, seconds: float) -> None:
        self.stage_latency[stage].observe(seconds)

    def count(self, name: str, delta: int = 1) -> None:
        """Thread-safe counter/gauge bump (the HTTP front end serves
        from the event loop, workers report from executor threads)."""
        with self._lock:
            setattr(self, name, getattr(self, name) + delta)

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": round(self.hit_rate, 4),
            "dedup_attached": self.dedup_attached,
            "executed": self.executed,
            "failed": self.failed,
            "retries": self.retries,
            "backoff_seconds": round(self.backoff_seconds, 6),
            "deadline_exceeded": self.deadline_exceeded,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "shards_dispatched": self.shards_dispatched,
            "remote_hits": self.remote_hits,
            "remote_misses": self.remote_misses,
            "remote_rejects": self.remote_rejects,
            "shed": self.shed,
            "priority_high": self.priority_high,
            "worker_failures": self.worker_failures,
            "shards_replanned": self.shards_replanned,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "frames_binary": self.frames_binary,
            "stage_latency": {
                s: h.to_dict() for s, h in self.stage_latency.items()
            },
        }

    def render_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition format (``GET /metrics``)."""
        lines = []

        def counter(name: str, value, help_text: str) -> None:
            lines.append(f"# HELP {prefix}_{name} {help_text}")
            lines.append(f"# TYPE {prefix}_{name} counter")
            lines.append(f"{prefix}_{name} {value}")

        def gauge(name: str, value, help_text: str) -> None:
            lines.append(f"# HELP {prefix}_{name} {help_text}")
            lines.append(f"# TYPE {prefix}_{name} gauge")
            lines.append(f"{prefix}_{name} {value}")

        counter("requests_total", self.requests, "Cell requests admitted")
        counter("cache_hits_total", self.cache_hits, "Requests answered from the result cache")
        counter("cache_misses_total", self.cache_misses, "Requests that missed the result cache")
        counter("dedup_attached_total", self.dedup_attached, "Requests attached to an already in-flight identical job")
        counter("executed_total", self.executed, "Simulations executed")
        counter("failed_total", self.failed, "Jobs that exhausted retries/deadline")
        counter("retries_total", self.retries, "Retry attempts granted")
        counter("deadline_exceeded_total", self.deadline_exceeded, "Jobs abandoned at their deadline budget")
        counter("backoff_seconds_total", round(self.backoff_seconds, 6), "Cumulative retry backoff sleep")
        counter("shards_dispatched_total", self.shards_dispatched, "Sweep shards dispatched to workers")
        counter("remote_hits_total", self.remote_hits, "Objects served by a peer store instead of simulating")
        counter("remote_misses_total", self.remote_misses, "Peer store consults that found nothing")
        counter("remote_rejects_total", self.remote_rejects, "Peer store answers refused: wrong spec or key, or an invalid trace")
        counter("shed_total", self.shed, "Requests refused at the queue-depth bound")
        counter("priority_high_total", self.priority_high, "Requests admitted on the high-priority lane")
        counter("worker_failures_total", self.worker_failures, "Shard dispatches lost to a dead worker")
        counter("shards_replanned_total", self.shards_replanned, "Shards re-planned onto surviving workers")
        counter("bytes_sent_total", self.bytes_sent, "Transport payload bytes sent to workers and peers")
        counter("bytes_received_total", self.bytes_received, "Transport payload bytes received from workers and peers")
        counter("frames_binary_total", self.frames_binary, "Transport frames sent in binary framing")
        gauge("queue_depth", self.queue_depth, "Jobs admitted but not yet running")
        gauge("in_flight", self.in_flight, "Distinct cell keys currently being computed")
        for stage, hist in self.stage_latency.items():
            base = f"{prefix}_stage_latency_seconds"
            lines.append(f"# HELP {base} Per-stage request latency")
            lines.append(f"# TYPE {base} histogram")
            for bound, cumulative in hist.buckets():
                le = "+Inf" if bound == float("inf") else f"{bound:.6g}"
                lines.append(f'{base}_bucket{{stage="{stage}",le="{le}"}} {cumulative}')
            lines.append(f'{base}_sum{{stage="{stage}"}} {hist.sum_seconds:.6f}')
            lines.append(f'{base}_count{{stage="{stage}"}} {hist.total}')
        return "\n".join(lines) + "\n"

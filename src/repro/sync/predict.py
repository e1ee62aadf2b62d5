"""Closed-form lock-contention prediction from ideal traces.

The paper measures lock behaviour by simulating every scheme; this
module asks how far a *model* gets without the machine: from the ideal
trace's lock statistics alone (acquisition counts, hold times,
inter-acquire gaps, nesting -- :func:`profile_locks`), plus the machine
configuration's lock-operation costs, predict each scheme's lock-cycle
share and lock bus-traffic share, then validate against full
simulations (:func:`validate`).

Model
-----

Each lock is a machine-repairman closed queueing station solved by
exact Mean Value Analysis: the ``P`` processors that touch the lock
alternate between *thinking* (the mean ideal gap between critical
sections, dilated by the calibrated execution slowdown ``kappa``) and
*service* (the dilated critical section plus the scheme's release and
hand-off costs).  The MVA recursion

    R_k = S * (1 + Q_{k-1});  X_k = k / (R_k + Z);  Q_k = X_k * R_k

yields the response time ``R_P``; the predicted lock stall per
acquisition is ``R_P - kappa*hold + acquire_cost``.  The hand-off cost
depends on the waiter population for the burst schemes (ticket and the
T&S family re-read or re-race after every release), so service and
queue length are iterated to a fixed point -- a handful of rounds,
fully deterministic.

Scheme costs come from :class:`~repro.machine.config.MachineConfig`'s
lock-cost properties (`lock_c2c_cycles`, `lock_inval_cycles`,
`lock_mem_cycles`), i.e. the same numbers the simulated bus charges.
``kappa`` (how much slower than ideal non-lock execution runs, from
cache misses and bus queueing) cannot come from the trace; it is
calibrated per program from **one** baseline simulation
(:func:`calibrate`), and every scheme's prediction then reuses that
single calibration -- the predictor never sees a simulation of the
scheme it predicts.

The replay-based *unnecessary contention* report
(:func:`contention_report`) is the complementary tool: it replays each
critical section against the trace's shared-data footprints, finds the
lines actually contended (touched by two processors with a writer
among them), and measures how much of each hold lies outside the span
touching them -- the part a shorter critical section would shed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..machine.buffers import LOCK_INVAL, LOCK_MEM, LOCK_READ, LOCK_RFO, LOCK_XFER
from ..machine.config import MachineConfig
from ..trace.layout import PRIVATE_BASE, SHARED_BASE
from ..trace.records import READ, REP_STRIDE, WRITE
from ..trace.validate import critical_sections

__all__ = [
    "LockProfile",
    "Calibration",
    "LockPrediction",
    "Prediction",
    "LockVerdict",
    "profile_locks",
    "calibrate",
    "predict",
    "observed_lock_share",
    "observed_bus_share",
    "validate",
    "contention_report",
]

#: floor (in share units, 2 = two percentage points of share) under
#: which relative error is measured against the floor, not the
#: observation -- a 0.1%-share cell must not dominate the mean
REL_ERR_FLOOR = 2.0

#: fraction of a release burst the winner's front-of-buffer operation
#: still waits behind under round-robin arbitration (ticket / T&S
#: re-read storms); an arbitration-position estimate, validated by the
#: committed predictor-vs-simulation table
BURST_FACTOR = 1.0 / 3.0

#: geometric-overshoot factor of exponential backoff: a lone waiter's
#: doubling delay ladder overshoots the true wait by a small multiple
#: of it (the ladder's last rung equals the sum of all earlier rungs,
#: and every rung ends in a fresh bus attempt)
_BACKOFF_OVERSHOOT = 4.0


# ---------------------------------------------------------------------------
# Ideal-trace lock profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LockProfile:
    """Ideal-trace statistics of one lock, aggregated over processors."""

    lock_id: int
    acquisitions: int
    procs: tuple[int, ...]  #: processors that acquire this lock
    mean_hold: float  #: mean ideal hold (cycles)
    mean_gap: float  #: mean ideal think time between CSes on one proc
    nested_frac: float  #: fraction of acquisitions nested inside another CS
    per_proc: dict[int, int] = field(default_factory=dict)

    @property
    def n_procs(self) -> int:
        return len(self.procs)


def profile_locks(traceset) -> dict[int, LockProfile]:
    """Per-lock ideal statistics: the predictor's entire trace input."""
    sections: dict[int, dict[int, np.ndarray]] = {}
    work = {t.proc: int(t.records["cycles"].astype(np.int64).sum()) for t in traceset}
    for trace in traceset:
        # group the rows by lock, acquire order kept within a lock
        cs = critical_sections(trace)
        cs = cs[np.argsort(cs["lock"], kind="stable")]
        locks, first = np.unique(cs["lock"], return_index=True)
        for lock_id, rows in zip(locks.tolist(), np.split(cs, first[1:])):
            sections.setdefault(lock_id, {})[trace.proc] = rows

    profiles: dict[int, LockProfile] = {}
    for lock_id, by_proc in sorted(sections.items()):
        rows = np.concatenate(list(by_proc.values()))
        n_acq = len(rows)
        gap_total = 0
        n_gaps = 0
        for proc, cs in by_proc.items():
            if len(cs) > 1:
                gap_total += int((cs["start"][1:] - cs["end"][:-1]).sum())
                n_gaps += len(cs) - 1
            else:
                # a single CS: the rest of the proc's run is its think time
                gap_total += work[proc] - int(cs["end"][0] - cs["start"][0])
                n_gaps += 1
        profiles[lock_id] = LockProfile(
            lock_id=lock_id,
            acquisitions=n_acq,
            procs=tuple(sorted(by_proc)),
            mean_hold=int((rows["end"] - rows["start"]).sum()) / n_acq,
            mean_gap=max(0.0, gap_total / n_gaps),
            nested_frac=int(np.count_nonzero(rows["depth"])) / n_acq,
            per_proc={p: len(cs) for p, cs in sorted(by_proc.items())},
        )
    return profiles


# ---------------------------------------------------------------------------
# Scheme cost models
# ---------------------------------------------------------------------------


def _scheme_model(scheme: str, cfg: MachineConfig) -> dict:
    """Latency and bus-occupancy costs of one scheme's lock operations.

    ``acquire``/``release`` are the end-to-end cycles of an uncontended
    acquire/release; ``handoff(w)`` the release-to-grant latency of a
    contended hand-off with ``w`` other waiters still spinning.  The
    ``*_bus`` entries are nominal bus occupancies of the same
    operations (a memory-path op occupies the split-transaction bus
    only for its address and data phases).
    """
    c2c = float(cfg.lock_c2c_cycles)
    inv = float(cfg.lock_inval_cycles)
    mem = float(cfg.lock_mem_cycles)
    burst = lambda w: 1.0 + BURST_FACTOR * w  # noqa: E731

    if scheme in ("queuing", "exact-queuing"):
        extra = mem if scheme == "exact-queuing" else 0.0
        hand = mem if scheme == "exact-queuing" else c2c
        return dict(
            acquire=mem + extra,
            release=mem,
            handoff=lambda w: hand,
            acquire_bus=c2c + (c2c if extra else 0.0),
            release_bus=c2c,
            handoff_bus=lambda w: c2c,
        )
    if scheme == "mcs":
        return dict(
            acquire=c2c,
            release=c2c,
            handoff=lambda w: c2c,
            acquire_bus=c2c,
            release_bus=c2c,
            handoff_bus=lambda w: c2c,
        )
    if scheme == "clh":
        return dict(
            acquire=2 * c2c,  # tail swap + predecessor-node read
            release=inv,
            handoff=lambda w: inv + c2c,
            acquire_bus=2 * c2c,
            release_bus=inv,
            handoff_bus=lambda w: inv + c2c,
        )
    if scheme == "ticket":
        return dict(
            acquire=c2c,
            release=inv,
            # now-serving invalidation, then every waiter re-reads; the
            # winner's front-of-buffer read still queues behind part of
            # the burst
            handoff=lambda w: inv + c2c * burst(w),
            acquire_bus=c2c,
            release_bus=inv,
            handoff_bus=lambda w: inv + c2c * (1.0 + w),
        )
    if scheme == "ttas":
        return dict(
            acquire=2 * c2c,  # spin read, then the test-and-set
            release=inv,
            # invalidation, re-read burst, then the winner's T&S
            handoff=lambda w: inv + c2c * (1.0 + burst(w)),
            acquire_bus=2 * c2c,
            release_bus=inv,
            handoff_bus=lambda w: inv + c2c * (2.0 + w),
        )
    if scheme == "tas":
        return dict(
            acquire=c2c,
            release=c2c,
            # the release store races the spinners' constant RFO storm
            handoff=lambda w: c2c * burst(w),
            acquire_bus=c2c,
            release_bus=c2c,
            handoff_bus=lambda w: c2c * (1.0 + w),
        )
    if scheme == "backoff":
        from .backoff import BackoffTestAndSetLockManager as _B

        base = float(_B.__init__.__defaults__[0])
        cap = float(_B.__init__.__defaults__[1])
        return dict(
            acquire=c2c,
            release=c2c,
            # a freed lock idles until the next backed-off retry fires;
            # with w spinners spread over doubled delays the expected
            # idle is about half the population's base spread
            handoff=lambda w: c2c + min(cap, base * max(1.0, w)) / 2.0,
            # the winner overshoots: its delay ladder doubled past the
            # true wait, so a lone waiter stalls a constant factor
            # longer than the queueing delay; with many staggered
            # waiters some timer always fires promptly and the
            # inflation washes out
            wait_inflation=lambda w: 1.0 + _BACKOFF_OVERSHOOT / (1.0 + w) ** 2,
            acquire_bus=c2c,
            release_bus=c2c,
            handoff_bus=lambda w: c2c,
        )
    raise ValueError(f"no cost model for lock scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Calibration (one baseline simulation per program)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Calibration:
    """Per-program machine factors the trace cannot provide."""

    kappa: float  #: non-lock execution dilation vs ideal cycles
    nonlock_cycles: int  #: sum over procs of completion - lock stall
    nonlock_bus_cycles: float  #: bus busy cycles minus nominal lock traffic
    baseline_scheme: str


#: nominal bus occupancy of each lock-op kind (memory access time is
#: off-bus on the split-transaction bus)
def _lock_op_bus_cycles(cfg: MachineConfig) -> dict[int, float]:
    c2c = float(cfg.lock_c2c_cycles)
    inv = float(cfg.lock_inval_cycles)
    return {
        LOCK_MEM: c2c,
        LOCK_READ: c2c,
        LOCK_RFO: c2c,
        LOCK_INVAL: inv,
        LOCK_XFER: c2c,
    }


def _lock_bus_cycles(bus_op_counts: dict, cfg: MachineConfig) -> float:
    table = _lock_op_bus_cycles(cfg)
    return sum(table[k] * n for k, n in bus_op_counts.items() if k in table)


def calibrate(traceset, result, cfg: MachineConfig | None = None) -> Calibration:
    """Derive the machine factors from one baseline run of the program."""
    cfg = cfg or MachineConfig(n_procs=traceset.n_procs)
    ideal = sum(int(t.records["cycles"].astype(np.int64).sum()) for t in traceset)
    nonlock = sum(m.completion_time - m.stall_lock for m in result.proc_metrics)
    return Calibration(
        kappa=nonlock / ideal if ideal else 1.0,
        nonlock_cycles=nonlock,
        nonlock_bus_cycles=max(
            0.0, result.bus_busy_cycles - _lock_bus_cycles(result.bus_op_counts, cfg)
        ),
        baseline_scheme=result.lock_scheme,
    )


# ---------------------------------------------------------------------------
# The predictor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LockPrediction:
    """Predicted steady-state behaviour of one lock under one scheme."""

    lock_id: int
    acquisitions: int
    n_procs: int
    service: float  #: dilated CS + release + hand-off (cycles)
    wait: float  #: queueing delay per acquisition (cycles)
    waiters: float  #: mean waiter population seen at a hand-off
    contended_frac: float  #: predicted fraction of contended acquisitions
    stall_cycles: float  #: total predicted lock stall attributed here


@dataclass(frozen=True)
class Prediction:
    """One scheme's predicted contention profile for one program."""

    program: str
    scheme: str
    lock_share: float  #: % of total processor cycles stalled on locks
    bus_share: float  #: % of bus busy cycles that are lock operations
    stall_cycles: float
    run_cycles: float
    per_lock: tuple = ()


def _mva(n: int, service: float, think: float) -> tuple[float, float, float]:
    """Exact MVA for one closed station: (response, throughput, queue)."""
    q = 0.0
    resp = service
    thru = 0.0
    for k in range(1, n + 1):
        resp = service * (1.0 + q)
        thru = k / (resp + think) if (resp + think) > 0 else 0.0
        q = thru * resp
    return resp, thru, q


def predict(
    traceset,
    scheme: str,
    calibration: Calibration,
    cfg: MachineConfig | None = None,
    program: str = "",
) -> Prediction:
    """Predict ``scheme``'s lock-cycle and bus-traffic shares."""
    cfg = cfg or MachineConfig(n_procs=traceset.n_procs)
    model = _scheme_model(scheme, cfg)
    kappa = calibration.kappa
    profiles = profile_locks(traceset)

    per_lock = []
    stall_total = 0.0
    lock_bus_total = 0.0
    for prof in profiles.values():
        n = prof.n_procs
        hold = kappa * prof.mean_hold
        think = kappa * prof.mean_gap + model["acquire"]
        waiters = 0.0
        contended = 0.0
        resp = hold
        for _ in range(6):  # service<->population fixed point
            service = hold + model["release"] + contended * model["handoff"](waiters)
            resp, thru, q = _mva(n, service, think)
            waiters = max(0.0, q - 1.0)
            # chance an acquisition finds the lock busy: the other
            # processors' share of the server's utilization
            contended = min(1.0, thru * service * (n - 1) / n) if n > 1 else 0.0
        wait = max(0.0, resp - hold)
        inflate = model.get("wait_inflation")
        if inflate is not None:
            wait *= inflate(waiters)
        stall = prof.acquisitions * (wait + model["acquire"])
        stall_total += stall
        transfers = prof.acquisitions * contended
        lock_bus_total += prof.acquisitions * (
            model["acquire_bus"] + model["release_bus"]
        ) + transfers * model["handoff_bus"](waiters)
        per_lock.append(
            LockPrediction(
                lock_id=prof.lock_id,
                acquisitions=prof.acquisitions,
                n_procs=n,
                service=service,
                wait=wait,
                waiters=waiters,
                contended_frac=contended,
                stall_cycles=stall,
            )
        )

    run_cycles = calibration.nonlock_cycles + stall_total
    bus_cycles = calibration.nonlock_bus_cycles + lock_bus_total
    return Prediction(
        program=program or traceset.program,
        scheme=scheme,
        lock_share=100.0 * stall_total / run_cycles if run_cycles else 0.0,
        bus_share=100.0 * lock_bus_total / bus_cycles if bus_cycles else 0.0,
        stall_cycles=stall_total,
        run_cycles=run_cycles,
        per_lock=tuple(per_lock),
    )


# ---------------------------------------------------------------------------
# Observation + validation
# ---------------------------------------------------------------------------


def observed_lock_share(result) -> float:
    """% of all processor cycles spent stalled on locks in a run."""
    total = sum(m.completion_time for m in result.proc_metrics)
    if not total:
        return 0.0
    return 100.0 * sum(m.stall_lock for m in result.proc_metrics) / total


def observed_bus_share(result, cfg: MachineConfig | None = None) -> float:
    """% of bus busy cycles spent on lock operations (nominal costs)."""
    cfg = cfg or MachineConfig(n_procs=result.n_procs)
    if not result.bus_busy_cycles:
        return 0.0
    return 100.0 * _lock_bus_cycles(result.bus_op_counts, cfg) / result.bus_busy_cycles


def relative_error(predicted: float, observed: float) -> float:
    """|pred - obs| relative to the observation, floored at
    :data:`REL_ERR_FLOOR` share points so near-zero cells cannot blow
    up the mean."""
    return abs(predicted - observed) / max(abs(observed), REL_ERR_FLOOR)


def validate(
    traceset,
    schemes,
    cfg: MachineConfig | None = None,
    baseline_scheme: str = "queuing",
    program: str = "",
) -> list[dict]:
    """Predictor-vs-simulation rows for one program across ``schemes``.

    Runs one baseline simulation to calibrate, then for every scheme
    one prediction (closed form) and one full simulation (ground
    truth).  Fully deterministic: same traceset and config give the
    same table bit-for-bit.
    """
    from ..consistency import SEQUENTIAL
    from ..machine.system import simulate
    from . import get_lock_manager

    cfg = cfg or MachineConfig(n_procs=traceset.n_procs)
    program = program or traceset.program
    base = simulate(traceset, cfg, get_lock_manager(baseline_scheme), SEQUENTIAL)
    cal = calibrate(traceset, base, cfg)

    rows = []
    for scheme in schemes:
        pred = predict(traceset, scheme, cal, cfg, program=program)
        sim = simulate(traceset, cfg, get_lock_manager(scheme), SEQUENTIAL)
        obs_lock = observed_lock_share(sim)
        obs_bus = observed_bus_share(sim, cfg)
        rows.append(
            {
                "program": program,
                "scheme": scheme,
                "predicted_lock_share": round(pred.lock_share, 4),
                "observed_lock_share": round(obs_lock, 4),
                "lock_rel_err": round(relative_error(pred.lock_share, obs_lock), 4),
                "predicted_bus_share": round(pred.bus_share, 4),
                "observed_bus_share": round(obs_bus, 4),
                "bus_rel_err": round(relative_error(pred.bus_share, obs_bus), 4),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Replay-based unnecessary-contention report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LockVerdict:
    """Replay verdict on one lock's critical sections."""

    lock_id: int
    acquisitions: int
    n_procs: int
    mean_hold: float  #: ideal cycles
    conflict_lines: int  #: shared lines touched by >= 2 procs, >= 1 writer
    shrinkable_frac: float  #: mean hold fraction outside the conflict span
    verdict: str  #: "no-shared-conflict" | "shrinkable" | "tight"
    #: from a simulation result, when provided
    transfers: int = -1
    sim_waiters: float = -1.0


#: a lock whose holds spend at least this fraction outside the
#: conflicting span is flagged shrinkable
SHRINKABLE_THRESHOLD = 0.25


def _record_lines(rec, shift: int) -> range:
    """Cache lines covered by one data record (repetition-expanded)."""
    first = int(rec["addr"]) >> shift
    last = (int(rec["addr"]) + (int(rec["arg"]) - 1) * REP_STRIDE) >> shift
    return range(first, last + 1)


def contention_report(
    traceset,
    cfg: MachineConfig | None = None,
    result=None,
) -> list[LockVerdict]:
    """Replay every critical section against the shared-data footprints.

    A line is *conflicting* for a lock if, across all of that lock's
    critical sections, at least two processors touch it and at least
    one writes it -- the data the lock actually arbitrates.  Hold
    cycles outside the span of conflicting accesses are *shrinkable*:
    a narrower critical section would shed them without changing what
    the lock protects.  A lock with no conflicting lines at all
    arbitrates nothing and is flagged outright.

    Pass a simulated :class:`~repro.machine.metrics.RunResult` to fold
    in the measured contention (transfers, mean waiters) per lock.
    """
    cfg = cfg or MachineConfig(n_procs=traceset.n_procs)
    shift = cfg.cache.offset_bits
    profiles = profile_locks(traceset)

    # pass 1: per lock, which procs read/write which shared lines in CS
    readers: dict[int, dict[int, set]] = {}
    writers: dict[int, dict[int, set]] = {}
    sections = {}
    for trace in traceset:
        sections[trace.proc] = critical_sections(trace).tolist()
        recs = trace.records
        for lid, i0, i1, *_ in sections[trace.proc]:
            for i in range(i0 + 1, i1):
                rec = recs[i]
                kind = int(rec["kind"])
                if kind != READ and kind != WRITE:
                    continue
                addr = int(rec["addr"])
                if not (SHARED_BASE <= addr < PRIVATE_BASE):
                    continue
                sink = writers if kind == WRITE else readers
                per_line = sink.setdefault(lid, {})
                for line in _record_lines(rec, shift):
                    per_line.setdefault(line, set()).add(trace.proc)

    conflicts: dict[int, set] = {}
    for lid in profiles:
        conflict = set()
        w = writers.get(lid, {})
        r = readers.get(lid, {})
        for line, wprocs in w.items():
            touchers = wprocs | r.get(line, set())
            if len(touchers) >= 2:
                conflict.add(line)
        conflicts[lid] = conflict

    # pass 2: per CS, the hold fraction outside the conflicting span
    shrink: dict[int, list[float]] = {lid: [] for lid in profiles}
    for trace in traceset:
        recs = trace.records
        cyc = recs["cycles"].astype(np.int64)
        pos = np.cumsum(cyc) - cyc  # cycle at which each record begins
        for lid, i0, i1, start, end, _ in sections[trace.proc]:
            conflict = conflicts[lid]
            duration = end - start
            if duration <= 0:
                shrink[lid].append(0.0)
                continue
            first = last = -1
            if conflict:
                for i in range(i0 + 1, i1):
                    rec = recs[i]
                    kind = int(rec["kind"])
                    if kind != READ and kind != WRITE:
                        continue
                    if any(ln in conflict for ln in _record_lines(rec, shift)):
                        if first < 0:
                            first = i
                        last = i
            if first < 0:
                shrink[lid].append(1.0)
            else:
                span = int(pos[last] + cyc[last] - pos[first])
                shrink[lid].append(max(0.0, 1.0 - span / duration))

    sim_per_lock = {}
    if result is not None:
        stats = result.lock_stats
        for lid in profiles:
            sim_per_lock[lid] = (
                stats.per_lock_transfers.get(lid, 0),
                stats.per_lock_acquisitions.get(lid, 0),
            )

    verdicts = []
    for lid, prof in profiles.items():
        fracs = shrink[lid]
        mean_shrink = sum(fracs) / len(fracs) if fracs else 0.0
        n_conflict = len(conflicts[lid])
        if n_conflict == 0:
            verdict = "no-shared-conflict"
        elif mean_shrink >= SHRINKABLE_THRESHOLD:
            verdict = "shrinkable"
        else:
            verdict = "tight"
        transfers = -1
        waiters = -1.0
        if result is not None:
            transfers, _acq = sim_per_lock[lid]
            stats = result.lock_stats
            if stats.transfers:
                waiters = stats.waiters_at_transfer_total / stats.transfers
        verdicts.append(
            LockVerdict(
                lock_id=lid,
                acquisitions=prof.acquisitions,
                n_procs=prof.n_procs,
                mean_hold=round(prof.mean_hold, 2),
                conflict_lines=n_conflict,
                shrinkable_frac=round(mean_shrink, 4),
                verdict=verdict,
                transfers=transfers,
                sim_waiters=round(waiters, 2),
            )
        )
    return verdicts

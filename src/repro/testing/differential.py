"""Differential verification of the bus fast path.

The machine's contended-path fast path (``MachineConfig.bus_fast_path``)
claims to be *metric-neutral*: for any traceset and configuration, a run
with it on must produce a :class:`~repro.machine.metrics.RunResult` that
serializes byte-for-byte identically to a run with the reference
arbiter and completion chain it replaces.  This module checks that
claim the only way it can be checked -- by running both and comparing
every serialized field.

:func:`differential_check` sweeps the paper's six workloads under the
lock-scheme grid and both consistency models (72 cells at default
scale: six workloads x six schemes x two models) and reports, per cell,
whether the two runs agree and the digest of the production run (the
value the reference-digest tables under ``tests/golden/`` pin).
:func:`dict_diff` renders any disagreement as a readable per-field
report (shared with the golden-result regression test, which has the
same problem: "two result dicts differ -- where?").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..consistency import get_model
from ..machine.config import MachineConfig
from ..machine.system import System
from ..runner.serialize import result_to_json
from ..sync import get_lock_manager
from ..trace.records import TraceSet

__all__ = [
    "SUITE_PROGRAMS",
    "LOCK_SCHEMES",
    "MODELS",
    "CellReport",
    "dict_diff",
    "run_cell",
    "differential_check",
]

#: the paper's six benchmarks (Table 1 order)
SUITE_PROGRAMS = ("grav", "pdsa", "fullconn", "pverify", "qsort", "topopt")
#: the lock-scheme axis of the differential grid: the paper's two
#: schemes plus the extension lock zoo (exact-queuing and tas are
#: behavioural near-duplicates of queuing and ttas and stay out of the
#: default grid; pass ``lock_schemes=sorted(repro.sync.LOCK_SCHEMES)``
#: to sweep every registered scheme)
LOCK_SCHEMES = ("queuing", "ttas", "mcs", "clh", "ticket", "backoff")
MODELS = ("sc", "wo")


def dict_diff(expected, got, path: str = "", limit: int = 40) -> list[str]:
    """Readable per-field differences between two JSON-like values.

    Returns one line per leaf difference, e.g.::

        proc_metrics[3].refs_processed: expected 10242, got 10178
        meta.bus_grants: expected 5511, got 5512

    Containers of mismatched type or length are reported at the
    container, then element-wise up to ``limit`` total lines.
    """
    diffs: list[str] = []
    _diff_into(expected, got, path, diffs)
    if len(diffs) > limit:
        dropped = len(diffs) - limit
        diffs = diffs[:limit]
        diffs.append(f"... and {dropped} more difference(s)")
    return diffs


def _diff_into(expected, got, path: str, out: list[str]) -> None:
    here = path or "<root>"
    if type(expected) is not type(got) and not (
        isinstance(expected, (int, float)) and isinstance(got, (int, float))
    ):
        out.append(
            f"{here}: expected {type(expected).__name__} "
            f"({expected!r}), got {type(got).__name__} ({got!r})"
        )
        return
    if isinstance(expected, dict):
        for k in expected.keys() | got.keys():
            sub = f"{path}.{k}" if path else str(k)
            if k not in got:
                out.append(f"{sub}: missing (expected {expected[k]!r})")
            elif k not in expected:
                out.append(f"{sub}: unexpected (got {got[k]!r})")
            else:
                _diff_into(expected[k], got[k], sub, out)
    elif isinstance(expected, list):
        if len(expected) != len(got):
            out.append(
                f"{here}: length {len(expected)} expected, got {len(got)}"
            )
        for i, (e, g) in enumerate(zip(expected, got)):
            _diff_into(e, g, f"{path}[{i}]", out)
    elif expected != got:
        out.append(f"{here}: expected {expected!r}, got {got!r}")


@dataclass
class CellReport:
    """Outcome of one differential cell (one workload/lock/model run)."""

    program: str
    lock_scheme: str
    consistency: str
    equal: bool
    #: per-field differences (empty when ``equal``)
    diffs: list[str] = field(default_factory=list)
    #: invariant violations found by the runtime auditor (audited cells
    #: only; see repro.audit) and the number of checks it evaluated
    violations: int = 0
    audit_checks: int = 0
    #: sha256 of the fast run's canonical result JSON (``result_to_json``),
    #: the digest the reference-digest tables pin
    digest: str = ""

    @property
    def label(self) -> str:
        return f"{self.program}/{self.lock_scheme}/{self.consistency}"

    def summary(self) -> str:
        verdict = "ok" if self.equal else "MISMATCH"
        line = f"{self.label:28s} {verdict:8s} digest {self.digest[:12]}"
        if self.audit_checks:
            line += f", audit: {self.violations}/{self.audit_checks} checks failed"
        return line


def run_cell(
    traceset: TraceSet,
    lock_scheme: str = "queuing",
    consistency: str = "sc",
    program: str = "",
    config: MachineConfig | None = None,
    engine_factory=None,
    audit: bool = False,
) -> CellReport:
    """Run one traceset with the bus fast path on and off and compare.

    ``config`` (if given) supplies everything but ``bus_fast_path``,
    which this function overrides in both directions.
    ``engine_factory`` is forwarded to :class:`System` (e.g.
    ``HeapEngine`` to also cross-check the event-queue implementation).

    With ``audit=True`` a collect-mode runtime invariant auditor (see
    :mod:`repro.audit`) rides along on the fast run only: the cell then
    simultaneously proves the run invariant-clean and -- because the
    unaudited reference run must still serialize identically -- that
    auditing is observation-only.
    """
    from dataclasses import replace

    base = config or MachineConfig(n_procs=traceset.n_procs)
    if base.audit:  # run_cell manages attachment itself
        base = replace(base, audit=False)
        audit = True
    canon = {}
    violations = 0
    audit_checks = 0
    digest = ""
    for fast in (True, False):
        system = System(
            traceset,
            replace(base, bus_fast_path=fast),
            get_lock_manager(lock_scheme),
            get_model(consistency),
            engine_factory=engine_factory,
        )
        try:
            if audit and fast and system.audit is None:
                from ..audit import SystemAuditor

                SystemAuditor.attach(system, mode="collect")
            body = result_to_json(system.run())
            canon[fast] = json.loads(body)
            if fast:
                digest = hashlib.sha256(body.encode()).hexdigest()
                if system.audit is not None:
                    rep = system.audit.report
                    violations = len(rep.violations)
                    audit_checks = sum(rep.checks.values())
        finally:
            system.close()
    equal = canon[True] == canon[False]
    return CellReport(
        program=program or traceset.program,
        lock_scheme=lock_scheme,
        consistency=consistency,
        equal=equal,
        diffs=[] if equal else dict_diff(canon[False], canon[True]),
        violations=violations,
        audit_checks=audit_checks,
        digest=digest,
    )


def differential_check(
    programs=SUITE_PROGRAMS,
    lock_schemes=LOCK_SCHEMES,
    models=MODELS,
    scale: float = 1.0,
    seed: int = 1991,
    progress=None,
    audit: bool = False,
    trace_cache=None,
) -> list[CellReport]:
    """Differentially verify every (program, lock, model) cell.

    Tracesets are generated once per program and shared across that
    program's cells; ``trace_cache`` routes that generation through a
    :class:`repro.trace.cache.TraceCache` (cached and fresh traces are
    byte-identical, so the verdicts are too -- running this both cold
    and warm is itself a check of that claim).  ``progress`` (if given)
    is called with each :class:`CellReport` as it completes.  Returns
    all reports; the run passed iff ``all(r.equal for r in reports)``.
    """
    from ..workloads import generate_trace

    reports: list[CellReport] = []
    for program in programs:
        traceset = generate_trace(
            program, scale=scale, seed=seed, trace_cache=trace_cache
        )
        for lock_scheme in lock_schemes:
            for model in models:
                report = run_cell(
                    traceset,
                    lock_scheme=lock_scheme,
                    consistency=model,
                    program=program,
                    audit=audit,
                )
                reports.append(report)
                if progress is not None:
                    progress(report)
    return reports

"""Streaming result aggregator: fold outcomes into manifests and tables.

The service never holds a whole sweep in memory before reporting it:
each finished cell is folded, as it lands, into

* an append-only JSONL manifest (the executor-manifest schema of
  :mod:`repro.runner.manifest`, so ``run_jobs(..., resume=True)`` and
  service restarts read the same file), and
* an incremental per-cell summary table keyed by
  ``(program, lock_scheme, consistency)``.

Crash tolerance is part of the contract: on resume the aggregator
replays the manifest through :func:`repro.runner.manifest.load_records`,
which skips truncated or corrupt trailing lines (a writer killed
mid-append), so a restarted service resumes from the last durable cell
instead of dying on a torn line.
"""

from __future__ import annotations

import os
from collections import Counter

from ..runner.manifest import append_record, load_records
from ..runner.serialize import result_from_dict

__all__ = ["StreamAggregator"]

#: summary columns extracted from serialized results (manifest "ok"
#: lines carry the full result dict of repro.runner.serialize)
_COLUMNS = ("run-time", "util %", "lock stall %", "bus %")


def _summarize_result(result: dict) -> dict:
    """Table row for one serialized result -- decoded through the same
    serializer the cache uses, so the derived columns (utilization,
    stall shares) are exactly the RunResult properties the paper tables
    print."""
    r = result_from_dict(result)
    return {
        "run-time": r.run_time,
        "util %": round(100 * r.avg_utilization, 1),
        "lock stall %": round(r.stall_pct_lock, 1),
        "bus %": round(100 * r.bus_utilization, 1),
    }


class StreamAggregator:
    """Fold manifest-schema records into durable + queryable state.

    ``manifest_path=None`` keeps the aggregator purely in-memory (the
    in-process test harness); with a path every record is appended
    durably *before* it is folded, so the on-disk manifest is always at
    least as complete as the in-memory view.
    """

    def __init__(self, manifest_path: str | os.PathLike | None = None, resume: bool = False) -> None:
        self.manifest_path = str(manifest_path) if manifest_path else None
        self.status_counts: Counter = Counter()
        self.cells: dict[tuple, dict] = {}  # (program, scheme, model) -> row
        self.failures: list[dict] = []
        self.recovered = 0
        if resume and self.manifest_path:
            # load_records skips torn/corrupt lines from a crashed writer
            for rec in load_records(self.manifest_path):
                self._fold(rec)
                self.recovered += 1

    # ------------------------------------------------------------------
    def record(self, rec: dict) -> None:
        """Durably append one manifest record, then fold it."""
        if self.manifest_path is not None:
            append_record(self.manifest_path, rec)
        self._fold(rec)

    def _fold(self, rec: dict) -> None:
        status = rec.get("status", "unknown")
        self.status_counts[status] += 1
        spec = rec.get("spec") or {}
        cell_key = (
            spec.get("program") or rec.get("label", "?"),
            spec.get("lock_scheme", "?"),
            spec.get("consistency", "?"),
        )
        if status in ("ok", "resumed") and isinstance(rec.get("result"), dict):
            row = {"status": status, "key": rec.get("key", "")}
            row.update(_summarize_result(rec["result"]))
            self.cells[cell_key] = row
        elif status == "cached":
            self.cells.setdefault(
                cell_key, {"status": "cached", "key": rec.get("key", "")}
            )
        elif status == "failed":
            err = rec.get("error") or {}
            self.failures.append(
                {
                    "key": rec.get("key", ""),
                    "label": rec.get("label", "?"),
                    "kind": err.get("kind", "error"),
                    "message": err.get("message", ""),
                    "attempts": rec.get("attempts", 0),
                }
            )

    # ------------------------------------------------------------------
    def completed_keys(self) -> set:
        """Keys with a durable result row (for resume planning)."""
        return {
            row["key"] for row in self.cells.values() if row.get("key")
        }

    def table(self, title: str = "sweep progress") -> str:
        """Incremental text table over every cell seen so far."""
        # imported here: repro.core is the analysis layer, and nothing
        # else a batch run does needs it
        from ..core.report import render_table

        header = ["cell"] + list(_COLUMNS)
        rows = []
        for (program, scheme, model), row in sorted(self.cells.items()):
            rows.append(
                [f"{program}/{scheme}/{model}"]
                + [row.get(c, "-") for c in _COLUMNS]
            )
        return render_table(header, rows, title=title)

    def to_dict(self) -> dict:
        return {
            "statuses": dict(self.status_counts),
            "cells": len(self.cells),
            "failures": self.failures[-20:],
            "recovered": self.recovered,
            "manifest_path": self.manifest_path,
        }

    def summary(self) -> str:
        parts = [f"{v} {k}" for k, v in sorted(self.status_counts.items())]
        return f"{len(self.cells)} cell(s): " + (", ".join(parts) or "none yet")

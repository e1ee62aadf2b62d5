"""The production simulator against the reference interpreter's digests.

``tests/golden/reference-digests/`` holds digest tables of the paper
grid (six programs x six lock schemes x SC/WO) written by
``python3 perfbench/run.py --write-expected FILE --seed S --scale X``
with every optional retirement path off: the record-by-record reference
interpreter and the reference bus arbiter.  A cell's digest is the
sha256 of its canonical result JSON (``repro.runner.result_to_json``:
sorted keys, compact separators).

The tables were written before the window fast path and the collapse
kernels were retired, so they carry those paths' verdicts forward as
fixed oracles: the one interpreter left must keep reproducing them.
The scale-1.0 table (seed 1991) is checked by the full-scale
differential test in ``tests/test_differential.py``; the two
benchmark-scale tables (seeds 3 and 11) are checked here, through the
same ``run_jobs`` path the benchmark drives.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.runner import result_to_json, run_jobs
from repro.service import grid_specs
from repro.testing import LOCK_SCHEMES, MODELS, SUITE_PROGRAMS

TABLES = Path(__file__).parent / "golden" / "reference-digests"


def reference_digests(seed: int, scale: float) -> dict:
    """label -> digest of the committed table for ``seed`` and ``scale``."""
    table = json.loads((TABLES / f"seed-{seed}-scale-{scale:g}.json").read_text())
    assert (table["seed"], table["scale"]) == (seed, scale)
    return table["cells"]


@pytest.mark.parametrize("seed", (3, 11))
def test_production_grid_matches_reference_digests(seed):
    want = reference_digests(seed, 0.05)
    specs = grid_specs(SUITE_PROGRAMS, LOCK_SCHEMES, MODELS, scale=0.05, seed=seed)
    batch = run_jobs(specs, jobs=1, cache=None, trace_cache=False)
    got = {
        spec.label(): hashlib.sha256(result_to_json(outcome).encode()).hexdigest()
        for spec, outcome in zip(specs, batch.outcomes)
    }
    assert sorted(got) == sorted(want)
    bad = sorted(label for label in want if got[label] != want[label])
    assert not bad, f"{len(bad)} cell(s) differ from the reference digests: {bad}"

"""Golden-result regression fixtures.

Each ``tests/golden/<program>.json`` pins the complete serialized
:class:`~repro.machine.metrics.RunResult` of one suite cell at scale
0.25.  The six suite fixtures between them cover every program, the
paper's two lock schemes and both consistency models, so any change
that alters simulated numbers anywhere in the machine fails here with a
readable per-field diff -- event-order-preserving refactors (the only
kind the optimization work is allowed to make) pass untouched.  A
full-scale fixture (``topopt@1.json``) pins one cell at real size; two
lock-zoo fixtures (``qsort+mcs.json``, ``qsort+backoff.json``) pin the
extension schemes' timing numerically.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python -m pytest tests/test_golden_results.py --regen-golden

then review the fixture diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.consistency import get_model
from repro.machine.system import simulate
from repro.runner.serialize import result_to_dict
from repro.sync import get_lock_manager
from repro.testing import dict_diff
from repro.workloads import generate_trace

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _audited(audit_everything):
    """Golden runs double as audit runs: the auditor is observation-only
    (pinned by test_audit_grid), so the fixtures still match while every
    cell is also checked for invariant violations."""
    yield

#: the pinned grid: every program once, the paper's two schemes and both
#: models covered, plus one full-scale point (topopt/queuing/sc, the
#: program with the longest private phases) and two lock-zoo cells on the most lock-bound program
#: (qsort under a queue-based and a spin-based extension scheme), so the
#: extension managers' grant/hand-off arithmetic is pinned numerically,
#: not just checked differentially
GOLDEN_CELLS = [
    ("grav", "queuing", "sc", 0.25),
    ("pdsa", "ttas", "sc", 0.25),
    ("fullconn", "queuing", "wo", 0.25),
    ("pverify", "ttas", "wo", 0.25),
    ("qsort", "queuing", "sc", 0.25),
    ("topopt", "ttas", "wo", 0.25),
    ("topopt", "queuing", "sc", 1.0),
    ("qsort", "mcs", "sc", 0.25),
    ("qsort", "backoff", "sc", 0.25),
]
GOLDEN_SCALE = 0.25
GOLDEN_SEED = 1991

#: the paper's schemes keep their original unqualified fixture names;
#: lock-zoo cells are scheme-qualified
_PAPER_SCHEMES = ("queuing", "ttas")


def _fixture_name(program: str, scale: float, locks: str) -> str:
    stem = program if locks in _PAPER_SCHEMES else f"{program}+{locks}"
    if scale == GOLDEN_SCALE:
        return f"{stem}.json"
    return f"{stem}@{scale:g}.json"


def run_cell(program: str, locks: str, model: str, scale: float = GOLDEN_SCALE) -> dict:
    ts = generate_trace(program, scale=scale, seed=GOLDEN_SEED)
    result = simulate(
        ts, lock_manager=get_lock_manager(locks), model=get_model(model)
    )
    # a JSON round-trip so comparisons see exactly what the file stores
    return json.loads(json.dumps(result_to_dict(result), sort_keys=True))


@pytest.mark.parametrize("program,locks,model,scale", GOLDEN_CELLS)
def test_golden_result(request, program, locks, model, scale):
    path = GOLDEN_DIR / _fixture_name(program, scale, locks)
    got = run_cell(program, locks, model, scale)
    spec = {
        "program": program,
        "scale": scale,
        "seed": GOLDEN_SEED,
        "locks": locks,
        "model": model,
    }

    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spec": spec, "result": got}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        pytest.skip(f"regenerated {path.name}")

    assert path.exists(), (
        f"missing fixture {path}; generate it with --regen-golden"
    )
    with open(path) as fh:
        fixture = json.load(fh)
    assert fixture["spec"] == spec, (
        f"{path.name} was generated for {fixture['spec']}, the test now "
        f"runs {spec}; regenerate with --regen-golden"
    )
    expected = fixture["result"]
    if got != expected:
        diff = "\n  ".join(dict_diff(expected, got))
        pytest.fail(
            f"{program}/{locks}/{model} diverged from {path.name}:\n  {diff}\n"
            "If this change is intentional, regenerate the fixtures with "
            "--regen-golden and commit the diff.",
            pytrace=False,
        )

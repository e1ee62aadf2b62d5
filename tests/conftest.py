"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.machine.config import MachineConfig
from repro.trace.builder import TraceBuilder
from repro.trace.layout import AddressLayout
from repro.trace.records import TraceSet


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help=(
            "rewrite tests/golden/*.json from the current simulator "
            "instead of comparing against it (review the diff before "
            "committing: goldens pin simulator behaviour)"
        ),
    )
    parser.addoption(
        "--regen-predictor",
        action="store_true",
        default=False,
        help=(
            "rewrite tests/golden/predictor_validation.json from the "
            "current predictor and simulator (review the accuracy "
            "numbers before committing; docs/locks.md shows the table)"
        ),
    )


@pytest.fixture
def layout2():
    return AddressLayout(n_procs=2)


@pytest.fixture
def layout4():
    return AddressLayout(n_procs=4)


def make_traceset(build_fns, layout=None, program="test"):
    """Build a TraceSet from per-processor builder functions.

    ``build_fns`` is a list of callables, one per processor, each taking
    ``(builder, layout)`` and emitting records.
    """
    n = len(build_fns)
    layout = layout or AddressLayout(n_procs=n)
    traces = []
    for p, fn in enumerate(build_fns):
        b = TraceBuilder(p, program=program)
        fn(b, layout)
        traces.append(b.finish())
    return TraceSet(traces, layout, program=program)


def tiny_machine(n_procs=2, **kwargs) -> MachineConfig:
    """A small, fast machine configuration for unit tests."""
    kwargs.setdefault("batch_records", 1)
    return MachineConfig(n_procs=n_procs, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def audit_everything():
    """Run every System built during the test under a raise-mode
    invariant auditor (the simulator sanitizer, see repro.audit): any
    coherence/bus/lock/accounting violation fails the test at the
    offending cycle.  Suites that exercise whole simulations opt in with
    a module-level autouse fixture."""
    from repro import audit

    audit.set_default("raise")
    yield
    audit.set_default(None)


@pytest.fixture
def fresh_python():
    """Runs ``code`` (with ``args`` as ``sys.argv[1:]``) in a new
    interpreter that imports this checkout's ``repro``, and returns its
    standard output, stripped: what a module loads shows only there."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)

    def run(code: str, *args: str) -> str:
        out = subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    return run

"""Verification harnesses that are part of the library, not the test suite.

The test suite exercises these, but they are importable production code:
the CLI's ``diff-verify`` subcommand and external scripts use them to
check that optimized execution paths are observationally identical to
their reference implementations.
"""

from .differential import (
    CellReport,
    LOCK_SCHEMES,
    MODELS,
    SUITE_PROGRAMS,
    dict_diff,
    differential_check,
    run_cell,
)

__all__ = [
    "CellReport",
    "LOCK_SCHEMES",
    "MODELS",
    "SUITE_PROGRAMS",
    "dict_diff",
    "differential_check",
    "run_cell",
]

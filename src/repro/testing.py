"""Test-support helpers shared by the tests/ and benchmarks/ conftests.

Fault-path degradations in :mod:`repro.resilience` (dropped preemption
notices, missed drain deadlines, undrainable islands) emit
``UserWarning``s.  Many of them fire inside simulation callbacks (the
fault injector's timer), where a warnings-filter ``error::`` escalation
would abort the run at the fault instead of reporting it — so the
conftests record every warning per test with :func:`record_warnings`
and fail afterwards on whatever :func:`resilience_warnings` keeps.  Both suites share the
detection rule through this module so it cannot drift between them.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager


@contextmanager
def record_warnings():
    """Record every warning raised in the block (filters set to always)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught


def resilience_warnings(caught) -> list:
    """The recorded warnings that came from the resilience package."""
    return [
        w for w in caught
        if issubclass(w.category, UserWarning)
        and "resilience" in (w.filename or "").replace("\\", "/").split("/")
    ]


def format_resilience_warnings(bad, context: str) -> str:
    return (
        f"resilience fault-path warnings during {context}: "
        + "; ".join(str(w.message) for w in bad)
    )

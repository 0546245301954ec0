"""Benchmark-suite configuration.

Every bench regenerates one of the paper's tables or figures: it runs
the workload in the simulator (timed by pytest-benchmark so regressions
in the *simulator itself* are visible) and prints the same rows/series
the paper reports.  The terminal-summary hook below re-emits each
bench's captured stdout after the run, so the paper-style tables appear
even without ``-s`` (e.g. when piping to a log file).

Smoke mode: ``REPRO_BENCH_SMOKE=1`` shrinks every sweep (via
``repro.bench.harness.geometric_range`` / ``smoke_trim``) and skips the
paper-calibrated full-scale assertions, so the complete suite finishes
in well under two minutes.  CI runs every bench in smoke mode on every
push; run without the variable to reproduce the paper's numbers.
"""

import pytest

from repro.bench.harness import smoke_mode
from repro.testing import (
    format_resilience_warnings,
    record_warnings,
    resilience_warnings,
)


@pytest.fixture(autouse=True)
def fail_on_resilience_warnings():
    """Fail any bench that triggers a resilience fault-path UserWarning.

    See :mod:`repro.testing` for why this records instead of escalating:
    the CI smoke job must fail on dropped notices / missed drain
    deadlines even when they fire inside simulation callbacks.
    """
    with record_warnings() as caught:
        yield
    bad = resilience_warnings(caught)
    assert not bad, format_resilience_warnings(bad, "bench run")


def pytest_report_header(config):
    if smoke_mode():
        return "repro bench suite: SMOKE mode (REPRO_BENCH_SMOKE=1) — shrunken sweeps"
    return "repro bench suite: full mode — paper-scale sweeps"


def pytest_terminal_summary(terminalreporter):
    shown_header = False
    for report in terminalreporter.getreports("passed"):
        out = getattr(report, "capstdout", "")
        if out.strip():
            if not shown_header:
                terminalreporter.write_sep("=", "reproduced tables & figures")
                shown_header = True
            terminalreporter.write_line(out.rstrip())

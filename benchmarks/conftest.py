"""Benchmark-suite configuration.

Every bench regenerates one of the paper's tables or figures at the
paper's scale: it runs the workload in the simulator, prints the same
rows/series the paper reports and checks the paper's claims.  The
terminal-summary hook below re-emits each bench's captured stdout after
the run, so the paper-style tables appear even without ``-s`` (e.g.
when piping to a log file).  ``benchmarks/run.py`` runs them all in one
pytest process and checks every shown table against
``bench_outcomes.json``; how fast the simulator runs is measured by
``benchmarks/e2e``.
"""

import pytest

from repro.testing import (
    format_resilience_warnings,
    record_warnings,
    resilience_warnings,
)


@pytest.fixture(autouse=True)
def fail_on_resilience_warnings():
    """Fail any bench that triggers a resilience fault-path UserWarning.

    See :mod:`repro.testing` for why this records instead of escalating:
    the CI bench job must fail on dropped notices / missed drain
    deadlines even when they fire inside simulation callbacks.
    """
    with record_warnings() as caught:
        yield
    bad = resilience_warnings(caught)
    assert not bad, format_resilience_warnings(bad, "bench run")


def pytest_terminal_summary(terminalreporter):
    shown_header = False
    for report in terminalreporter.getreports("passed"):
        out = getattr(report, "capstdout", "")
        if out.strip():
            if not shown_header:
                terminalreporter.write_sep("=", "reproduced tables & figures")
                shown_header = True
            terminalreporter.write_line(out.rstrip())

"""The quick-start snippets the docs show must run as written.

Three places show the same first program: README's "Quickstart"
block, the :mod:`repro` package docstring and the
:mod:`repro.core.system` module docstring.  Each is extracted, run in a
fresh namespace, and must print the doubled vector.
"""

from __future__ import annotations

import contextlib
import io
import re
import textwrap
from pathlib import Path

import pytest

import repro
import repro.core.system

ROOT = Path(__file__).resolve().parents[1]


def _readme_quickstart() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Quickstart\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _literal_block(doc: str) -> str:
    """The first reST literal block (the indented lines after ``::``)."""
    lines = doc.splitlines()
    start = next(i for i, line in enumerate(lines) if line.rstrip().endswith("::"))
    block = []
    for line in lines[start + 1:]:
        if line.strip() and not line.startswith(" "):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


SNIPPETS = {
    "readme": _readme_quickstart,
    "repro": lambda: _literal_block(repro.__doc__),
    "core.system": lambda: _literal_block(repro.core.system.__doc__),
}


@pytest.mark.parametrize("where", sorted(SNIPPETS))
def test_quickstart_snippet_runs(where):
    source = SNIPPETS[where]()
    assert "PathwaysSystem.build" in source
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, f"<{where} quickstart>", "exec"), {})
    assert out.getvalue().strip() == "[2. 4.]"

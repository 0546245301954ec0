"""The RPR lint rules: the guard over the repo, suppression, scoping and
the fixture corpus.

``test_own_tree_is_clean`` is the guard CI runs: every rule of
``rpr_rules`` over ``src``, ``tests``, ``benchmarks`` and ``examples``,
failing with one ``path:line:col: RPRxxx message`` line per violation.
Every rule is also exercised against the deliberate-bug corpus in
``tests/analysis_fixtures/`` — one ``*_bad.py`` (must hit, with the
expected count) and one ``*_good.py`` (must stay clean) per rule.  The
corpus is excluded from the tree walk, so these tests point the rules
at the files explicitly with ``assume_sim=True``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from rpr_rules import ALL_RULES, EXCLUDED_DIRS, lint, lint_source

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "analysis_fixtures"

#: fixture file -> (expected code, expected hit count).
BAD_FIXTURES = {
    "rpr001_bad.py": ("RPR001", 5),
    "rpr002_bad.py": ("RPR002", 4),
    "rpr003_bad.py": ("RPR003", 4),
    "rpr004_bad.py": ("RPR004", 2),
    "rpr005_bad.py": ("RPR005", 2),
    "rpr006_bad.py": ("RPR006", 2),
    "rpr007_bad.py": ("RPR007", 3),
}
GOOD_FIXTURES = [f"rpr00{i}_good.py" for i in range(1, 8)]


def test_own_tree_is_clean():
    """The guard: the repo lints clean."""
    violations = lint(ROOT / d for d in ("src", "tests", "benchmarks", "examples"))
    assert not violations, (
        "RPR rule violations (fix each, or suppress a deliberate one with "
        "`# repro: noqa[RPRxxx] <why>`):\n  " + "\n  ".join(violations)
    )


def _check_fixture(name: str):
    path = FIXTURES / name
    return lint_source(path.read_text(encoding="utf-8"), str(path), assume_sim=True)


class TestFixtureCorpus:
    @pytest.mark.parametrize("name", sorted(BAD_FIXTURES))
    def test_bad_fixture_hits_its_rule(self, name):
        code, count = BAD_FIXTURES[name]
        violations = _check_fixture(name)
        assert [v.code for v in violations] == [code] * count
        for v in violations:
            assert v.path.endswith(name)
            assert v.line > 0 and v.col > 0

    @pytest.mark.parametrize("name", GOOD_FIXTURES)
    def test_good_fixture_is_clean(self, name):
        assert _check_fixture(name) == []

    def test_every_rule_has_fixture_pair(self):
        codes = {rule.code for rule in ALL_RULES}
        assert codes == {code for code, _ in BAD_FIXTURES.values()}
        assert len(GOOD_FIXTURES) == len(codes)


class TestSuppression:
    SOURCE = 'def f(sim, i):\n    return sim.event(name=f"e{i}")\n'

    def test_violation_without_noqa(self):
        out = lint_source(self.SOURCE, assume_sim=True)
        assert [v.code for v in out] == ["RPR001"]

    def test_coded_noqa_suppresses(self):
        src = self.SOURCE.replace(
            ")\n", ")  # repro: noqa[RPR001] hot path measured, name unused\n"
        )
        assert lint_source(src, assume_sim=True) == []

    def test_bare_noqa_suppresses_everything(self):
        src = self.SOURCE.replace(")\n", ")  # repro: noqa\n")
        assert lint_source(src, assume_sim=True) == []

    def test_noqa_for_other_code_does_not_suppress(self):
        src = self.SOURCE.replace(")\n", ")  # repro: noqa[RPR002]\n")
        assert [v.code for v in lint_source(src, assume_sim=True)] == ["RPR001"]

    def test_plain_ruff_noqa_is_not_ours(self):
        src = self.SOURCE.replace(")\n", ")  # noqa\n")
        assert [v.code for v in lint_source(src, assume_sim=True)] == ["RPR001"]


class TestScoping:
    def test_sim_only_rules_skip_non_sim_files(self):
        src = 'def f(sim, i):\n    return sim.event(name=f"e{i}")\n'
        assert lint_source(src, path="somewhere/app.py") == []
        assert lint_source(src, path="src/repro/core/x.py") != []

    def test_everywhere_rules_apply_to_non_sim_files(self):
        src = "class C:\n    def stats(self):\n        return {}\n"
        out = lint_source(src, path="somewhere/app.py")
        assert [v.code for v in out] == ["RPR006"]

    def test_syntax_error_reports_rpr000(self):
        out = lint_source("def broken(:\n")
        assert [v.code for v in out] == ["RPR000"]
        assert "syntax error" in out[0].message

    def test_fixture_corpus_excluded_from_tree_walk(self, tmp_path):
        # The same eager event name in a plain simulator module and in a
        # fixture directory: the walk reports the first and skips the
        # second, one line per hit.
        bad = 'def spawn(sim, i):\n    return sim.event(name=f"e{i}")\n'
        plain = tmp_path / "src" / "repro" / "spawn.py"
        fixture = tmp_path / "src" / "repro" / "analysis_fixtures" / "spawn.py"
        for path in (plain, fixture):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(bad, encoding="utf-8")
        assert "analysis_fixtures" in EXCLUDED_DIRS
        assert lint([tmp_path]) == [
            f"{plain}:2:27: RPR001 eager f-string/.format event name; "
            "pass a lazy lambda"
        ]

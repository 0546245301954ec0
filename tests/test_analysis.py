"""The repro.analysis lint engine: rules, suppression, CLI, fixtures.

Every rule is exercised against the deliberate-bug corpus in
``tests/analysis_fixtures/`` — one ``*_bad.py`` (must hit, with the
expected count) and one ``*_good.py`` (must stay clean) per rule.  The
corpus is excluded from the default tree walk, so these tests point the
checker at the files explicitly with ``assume_sim=True``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Checker, check_paths, check_source
from repro.analysis.cli import main
from repro.analysis.engine import EXCLUDED_DIRS
from repro.analysis.rules import ALL_RULES, rule_table

FIXTURES = Path(__file__).parent / "analysis_fixtures"

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


def _check_fixture(name: str):
    return Checker().check_file(str(FIXTURES / name), assume_sim=True)


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
        out = check_source(self.SOURCE, assume_sim=True)
        assert [v.code for v in out] == ["RPR001"]

    def test_coded_noqa_suppresses(self):
        src = self.SOURCE.replace(
            ")\n", ")  # repro: noqa[RPR001] hot path measured, name unused\n"
        )
        assert check_source(src, assume_sim=True) == []

    def test_bare_noqa_suppresses_everything(self):
        src = self.SOURCE.replace(")\n", ")  # repro: noqa\n")
        assert check_source(src, assume_sim=True) == []

    def test_noqa_for_other_code_does_not_suppress(self):
        src = self.SOURCE.replace(")\n", ")  # repro: noqa[RPR002]\n")
        assert [v.code for v in check_source(src, assume_sim=True)] == ["RPR001"]

    def test_plain_ruff_noqa_is_not_ours(self):
        src = self.SOURCE.replace(")\n", ")  # noqa\n")
        assert [v.code for v in check_source(src, assume_sim=True)] == ["RPR001"]


class TestScoping:
    def test_sim_only_rules_skip_non_sim_files(self):
        src = 'def f(sim, i):\n    return sim.event(name=f"e{i}")\n'
        assert check_source(src, path="somewhere/app.py") == []
        assert check_source(src, path="src/repro/core/x.py") != []

    def test_everywhere_rules_apply_to_non_sim_files(self):
        src = "class C:\n    def stats(self):\n        return {}\n"
        out = check_source(src, path="somewhere/app.py")
        assert [v.code for v in out] == ["RPR006"]

    def test_syntax_error_reports_rpr000(self):
        out = check_source("def broken(:\n")
        assert [v.code for v in out] == ["RPR000"]
        assert "syntax error" in out[0].message

    def test_fixture_corpus_excluded_from_tree_walk(self):
        assert "analysis_fixtures" in EXCLUDED_DIRS
        out = check_paths([str(Path(__file__).parent)])
        assert not [v for v in out if "analysis_fixtures" in v.path]


class TestCli:
    def test_check_bad_file_exits_1(self, capsys):
        rc = main(
            ["check", str(FIXTURES / "rpr001_bad.py"), "--assume-sim"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "RPR001" in captured.out
        assert "found 5 violation(s)" in captured.out

    def test_check_good_file_exits_0(self, capsys):
        rc = main(
            ["check", str(FIXTURES / "rpr001_good.py"), "--assume-sim"]
        )
        assert rc == 0
        assert "all clean" in capsys.readouterr().out

    def test_json_format(self, capsys):
        rc = main(
            [
                "check",
                str(FIXTURES / "rpr004_bad.py"),
                "--assume-sim",
                "--format",
                "json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["summary"]["total"] == 2
        assert report["summary"]["by_code"] == {"RPR004": 2}
        assert all(v["code"] == "RPR004" for v in report["violations"])

    def test_rules_listing(self, capsys):
        rc = main(["rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for row in rule_table():
            assert row["code"] in out

    def test_own_tree_is_clean(self, capsys):
        """The acceptance gate CI runs: the repo lints clean."""
        repo = Path(__file__).resolve().parent.parent
        paths = [
            str(repo / d)
            for d in ("src", "tests", "benchmarks", "examples")
            if (repo / d).is_dir()
        ]
        rc = main(["check", *paths])
        assert rc == 0, capsys.readouterr().out

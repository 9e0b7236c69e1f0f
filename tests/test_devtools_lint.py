"""Tests for the in-repo static-analysis pass (``repro-sdpolicy lint``).

The fixture tree under ``tests/lint_fixtures/`` mirrors the scoped source
layout (``simulator/``, ``core/``, ``workloads/``, ``experiments/``), so
each deliberately-violating snippet exercises exactly the rule scope it
would hit in the real tree.  Covered here: every rule firing, the
``# repro: allow[rule-id]`` suppression path, the suppression-hygiene
meta rules, the ``--json`` report schema, the rule catalog, and the
acceptance property that the repository's own ``src`` and ``tests`` trees
lint clean.
"""

import json
from pathlib import Path

import pytest

from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.engine import LintError, lint_paths, scope_parts
from repro.devtools.lint.registry import all_rules

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent


def fixture_report(*names, only=None):
    return lint_paths([str(FIXTURES / name) for name in names], only_rules=only)


def rules_at(report, rule):
    """(line, col) of every active finding for one rule."""
    return [(f.line, f.col) for f in report.findings if f.rule == rule]


def suppressed_rules(report):
    return {finding.rule for finding, _ in report.suppressed}


# --------------------------------------------------------------------- #
# Rule firing + suppression, one fixture per family
# --------------------------------------------------------------------- #
class TestDeterminismRules:
    def test_unseeded_random_fires(self):
        report = fixture_report("simulator/unseeded.py")
        lines = {line for line, _ in rules_at(report, "det-unseeded-random")}
        # the from-import of shuffle, and both calls on line 10
        assert lines == {6, 10}
        assert len(rules_at(report, "det-unseeded-random")) == 3

    def test_seeded_generator_not_flagged(self):
        # allowed_generator (lines 13-15) goes through default_rng: clean
        report = fixture_report("simulator/unseeded.py")
        assert not any(13 <= f.line <= 15 for f in report.findings)

    def test_unseeded_random_suppressed(self):
        report = fixture_report("simulator/unseeded.py")
        assert "det-unseeded-random" in suppressed_rules(report)
        suppressed_lines = {f.line for f, _ in report.suppressed}
        assert 20 in suppressed_lines

    def test_wallclock_fires_and_suppresses(self):
        report = fixture_report("core/wallclock.py")
        assert len(rules_at(report, "det-wallclock")) == 2  # time.time, uuid4
        assert "det-wallclock" in suppressed_rules(report)

    def test_set_order_fires_and_suppresses(self):
        report = fixture_report("workloads/set_order.py")
        assert rules_at(report, "det-set-order") == [(6, 16)]
        assert "det-set-order" in suppressed_rules(report)

    def test_scoped_rules_silent_outside_scope(self):
        # Identical random.random() call, but under clean/ — no scope match.
        report = fixture_report("clean/clean_module.py")
        assert report.ok
        assert not report.suppressed


class TestStoreDisciplineRules:
    def test_direct_io_and_pickle_fire(self):
        report = fixture_report("experiments/cache_io.py")
        assert rules_at(report, "store-direct-io") == [(9, 10)]
        assert rules_at(report, "store-pickle") == [(10, 16)]

    def test_both_rules_suppressible(self):
        report = fixture_report("experiments/cache_io.py")
        assert suppressed_rules(report) == {"store-pickle", "store-direct-io"}


class TestExceptionRules:
    def test_bare_swallow_and_broad_fire(self):
        report = fixture_report("experiments/swallow.py")
        assert rules_at(report, "exc-bare") == [(7, 5)]
        # `except Exception: pass` is both swallowed and broad
        assert rules_at(report, "exc-swallow") == [(14, 5)]
        assert {line for line, _ in rules_at(report, "exc-broad")} == {14, 22}

    def test_reraise_not_flagged(self):
        report = fixture_report("experiments/swallow.py")
        assert 29 not in {f.line for f in report.findings}

    def test_swallow_suppressed(self):
        report = fixture_report("experiments/swallow.py")
        assert "exc-swallow" in suppressed_rules(report)


class TestObservabilityRules:
    def test_bare_print_fires(self):
        report = fixture_report("simulator/obs_print.py")
        assert rules_at(report, "obs-print") == [(9, 5)]

    def test_logging_not_flagged(self):
        report = fixture_report("simulator/obs_print.py")
        assert not any(12 <= f.line <= 13 for f in report.findings)

    def test_print_suppressed(self):
        report = fixture_report("simulator/obs_print.py")
        assert "obs-print" in suppressed_rules(report)

    def test_cli_and_renderers_exempt(self):
        # The real CLI drivers print by design; the rule must stay silent
        # there even though they are full of bare print() calls.
        report = lint_paths(
            [str(REPO_ROOT / "src" / "repro" / "cli.py")],
            only_rules=["obs-print"],
        )
        assert report.ok


class TestArchitectureRules:
    def test_realrun_import_fires(self):
        report = fixture_report("core/realrun_import.py")
        # import repro.realrun, import repro.realrun.emulator,
        # from repro.realrun.energy import ..., from repro import realrun
        lines = [line for line, _ in rules_at(report, "arch-realrun-import")]
        assert lines == [3, 4, 5, 6]

    def test_promoted_core_import_not_flagged(self):
        report = fixture_report("core/realrun_import.py")
        assert not any(9 <= f.line <= 12 for f in report.findings)

    def test_realrun_import_suppressed(self):
        report = fixture_report("core/realrun_import.py")
        assert "arch-realrun-import" in suppressed_rules(report)

    def test_rule_silent_outside_lower_scopes(self):
        # realrun/ imports the promoted core models; the layering rule
        # must not fire above the core/simulator layers.
        report = lint_paths(
            [str(REPO_ROOT / "src" / "repro" / "realrun")],
            only_rules=["arch-realrun-import"],
        )
        assert report.ok


# --------------------------------------------------------------------- #
# Meta rules (suppression hygiene, parse failures)
# --------------------------------------------------------------------- #
class TestMetaRules:
    def test_unknown_rule_in_suppression(self):
        report = fixture_report("meta/unknown_rule.py")
        assert rules_at(report, "lint-unknown-rule") == [(3, 1)]

    def test_unused_suppression(self):
        report = fixture_report("simulator/unused_suppression.py")
        assert rules_at(report, "lint-unused-suppression") == [(3, 1)]

    def test_missing_justification(self):
        report = fixture_report("simulator/missing_justification.py")
        assert rules_at(report, "lint-missing-justification") == [(7, 1)]
        # the violation itself is still suppressed, only the hygiene warns
        assert "det-unseeded-random" in suppressed_rules(report)

    def test_parse_error_is_a_finding_not_a_crash(self):
        report = fixture_report("broken_syntax.py")
        assert [f.rule for f in report.findings] == ["lint-parse-error"]

    def test_unknown_rule_id_is_invocation_error(self):
        with pytest.raises(LintError, match="no-such-rule"):
            lint_paths([str(FIXTURES / "clean/clean_module.py")],
                       only_rules=["no-such-rule"])


# --------------------------------------------------------------------- #
# Engine mechanics
# --------------------------------------------------------------------- #
class TestEngine:
    def test_rule_filter_restricts_findings(self):
        report = fixture_report(
            "experiments/swallow.py", only=["exc-bare"]
        )
        assert {f.rule for f in report.findings} == {"exc-bare"}

    def test_fixture_marker_strips_scope_prefix(self):
        parts = scope_parts(Path("tests/lint_fixtures/simulator/x.py"))
        assert parts == ("simulator", "x.py")

    def test_multiline_suppression_comment_matches(self, tmp_path):
        scoped = tmp_path / "lint_fixtures" / "simulator"
        scoped.mkdir(parents=True)
        target = scoped / "multi.py"
        target.write_text(
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    # repro: allow[det-unseeded-random] a justification long\n"
            "    # enough to span two comment lines above the finding\n"
            "    return random.random()\n",
            encoding="utf-8",
        )
        report = lint_paths([str(target)])
        assert report.ok
        assert suppressed_rules(report) == {"det-unseeded-random"}

    def test_fixture_tree_excluded_from_directory_walks(self):
        report = lint_paths([str(FIXTURES.parent)])
        assert not any("lint_fixtures" in f.path for f in report.findings)

    def test_repo_tree_lints_clean(self):
        report = lint_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
        assert report.ok, "\n".join(f.render() for f in report.findings)
        # every surviving suppression in the real tree carries a reason
        assert all(s.justification for _, s in report.suppressed)


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestCLI:
    def test_exit_codes(self, capsys):
        assert lint_main([str(FIXTURES / "clean/clean_module.py")]) == 0
        assert lint_main([str(FIXTURES / "experiments/swallow.py")]) == 1
        assert lint_main([str(FIXTURES / "missing-dir")]) == 2
        capsys.readouterr()

    def test_json_report_schema(self, capsys):
        code = lint_main(["--json", str(FIXTURES / "experiments/swallow.py")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["files"] == 1
        assert set(payload["summary"]["by_rule"]) == {
            "exc-bare", "exc-swallow", "exc-broad"
        }
        finding = payload["findings"][0]
        assert set(finding) == {"path", "line", "col", "rule", "severity",
                                "message"}
        assert all(s["justification"] for s in payload["suppressed"])

    def test_list_rules_covers_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_list_rules_json(self, capsys):
        assert lint_main(["--list-rules", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        ids = {entry["id"] for entry in catalog["rules"]}
        assert ids == {rule.id for rule in all_rules()}
        for entry in catalog["rules"]:
            assert entry["severity"] in ("error", "warning")
            assert entry["rationale"]

    def test_rules_flag(self, capsys):
        code = lint_main(["--rules", "exc-bare", "--json",
                          str(FIXTURES / "experiments/swallow.py")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["summary"]["by_rule"]) == {"exc-bare"}

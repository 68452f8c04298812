"""The ``repro check`` subcommand: exit codes, JSON mode, rule selection."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_check_defaults_to_clean_installed_package(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "repro check: clean" in out


def test_check_json_on_fixture_exits_nonzero(capsys):
    code = main(["check", str(FIXTURES / "facade_bypass"), "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro-check/1"
    assert doc["summary"]["ok"] is False
    rule_ids = {f["rule_id"] for f in doc["findings"]}
    assert "facade.engine-bypass" in rule_ids


def test_check_rule_filter_restricts_families(capsys):
    code = main(
        [
            "check",
            str(FIXTURES / "facade_bypass"),
            "--rule",
            "kernel-purity",
            "--json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rules"] == ["kernel-purity"]
    assert doc["findings"] == []


def test_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for family in ("fingerprint", "block-protocol", "kernel-purity", "facade"):
        assert f"{family}: " in out


def test_check_unknown_rule_is_a_usage_error(capsys):
    assert main(["check", "--rule", "nonsense"]) == 2
    assert "unknown rule families" in capsys.readouterr().err


def test_check_missing_root_is_a_usage_error(capsys):
    assert main(["check", str(FIXTURES / "does_not_exist")]) == 2
    assert "not a directory" in capsys.readouterr().err

"""The CI workflows and the Makefile name only things that exist.

Every ``.github/workflows/*.yml`` must load as YAML, and every script
(``benchmarks/*.py``, ``perfbench/*.py``, ``tests/*.py``) and ``make``
target that a workflow or the Makefile names must exist, so deleting a
benchmark or a target without updating CI fails here instead of on the
next scheduled run.
"""

from __future__ import annotations

import pathlib
import re

import pytest

yaml = pytest.importorskip("yaml")

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKFLOWS = sorted((REPO / ".github" / "workflows").glob("*.yml"))
MAKEFILE = REPO / "Makefile"

SCRIPT = re.compile(r"\b((?:benchmarks|perfbench|tests)/[\w./-]+\.py)\b")
MAKE_CALL = re.compile(r"(?:\bmake|\$\(MAKE\))((?:[ \t]+[\w.-]+)+)")
RULE = re.compile(r"^([\w.-]+(?:[ \t]+[\w.-]+)*)[ \t]*:(?!=)(.*)$")

def _make_rules() -> tuple[set[str], set[str]]:
    """The Makefile's targets, and the targets its rules name (``.PHONY``
    entries and prerequisites, continuation lines joined)."""
    text = MAKEFILE.read_text().replace("\\\n", " ")
    targets: set[str] = set()
    named: set[str] = set()
    for line in text.splitlines():
        match = RULE.match(line)
        if match is None:
            continue
        heads, prereqs = match.group(1).split(), match.group(2).split()
        if heads == [".PHONY"]:
            named.update(prereqs)
        else:
            targets.update(heads)
            named.update(p for p in prereqs if not p.startswith("$"))
    return targets, named

def _make_calls(text: str) -> set[str]:
    """Targets passed to ``make`` / ``$(MAKE)`` (flags dropped)."""
    return {word for match in MAKE_CALL.finditer(text)
            for word in match.group(1).split() if not word.startswith("-")}

def test_workflows_exist():
    assert WORKFLOWS, "no .github/workflows/*.yml found"

@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_workflow_loads(path):
    doc = yaml.safe_load(path.read_text())
    assert isinstance(doc, dict) and isinstance(doc.get("jobs"), dict), \
        f"{path.name} has no jobs mapping"

@pytest.mark.parametrize("path", WORKFLOWS + [MAKEFILE],
                         ids=lambda p: p.name)
def test_named_scripts_exist(path):
    missing = sorted(name for name in SCRIPT.findall(path.read_text())
                     if not (REPO / name).is_file())
    assert not missing, f"{path.name} names missing scripts: {missing}"

def test_named_make_targets_exist():
    targets, named = _make_rules()
    for path in WORKFLOWS + [MAKEFILE]:
        named |= _make_calls(path.read_text())
    assert not sorted(named - targets), \
        f"make targets named but not defined: {sorted(named - targets)}"

"""The CI workflow's inline Python programs compile: a syntax error there
would only show on a CI run."""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_workflow_python_programs_compile():
    # found by a pattern, not by a YAML parser: CI installs only pytest and hypothesis
    programs = re.findall(r"python -c '([^']*)'", WORKFLOW.read_text())
    assert len(programs) == 6
    for program in programs:
        compile(program, str(WORKFLOW), "exec")

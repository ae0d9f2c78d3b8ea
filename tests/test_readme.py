"""README's examples run against the package as it is."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    """The first fenced python block under the README heading ``section``."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    match = re.compile(r"```python\n(.*?)```", re.DOTALL).search(text, start)
    assert match is not None and "\n## " not in text[start + 1 : match.start()], section
    return match.group(1)


def test_library_use_block_runs():
    exec(compile(_python_block("Library use"), str(README), "exec"), {})

"""README's library example runs as written, so its imports and its
printed shapes stay true."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example(text: str) -> str:
    """The first ```python block under the "## Library use" heading."""
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(README.read_text(encoding="utf-8")), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("(600, 5) ")

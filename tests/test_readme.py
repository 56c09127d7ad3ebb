"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, flags=re.S | re.M))
    assert len(blocks) == 1
    # pad with blank lines so a traceback points at the README's own line numbers
    source = "\n" * text.count("\n", 0, blocks[0].start(1)) + blocks[0].group(1)
    exec(compile(source, str(README), "exec"), {})

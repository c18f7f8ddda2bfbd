"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", library, re.DOTALL)
    assert blocks, "README has no python example under its Library section"
    exec(compile(blocks[0], "README.md", "exec"), {})

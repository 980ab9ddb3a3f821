"""The README's Library example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1]
    blocks = re.findall(r"^```python\n(.*?)^```$", library, flags=re.M | re.S)
    assert blocks, "the Library section has no python block"
    exec(compile(blocks[0], str(README), "exec"), {})

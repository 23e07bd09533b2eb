"""Every ```python block of README.md runs as written."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# each block padded with newlines, so a traceback gives its README line
BLOCKS = ["\n" * TEXT.count("\n", 0, m.start(1)) + m.group(1)
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.S | re.M)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})

"""The python code blocks of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k}", "exec"), {})

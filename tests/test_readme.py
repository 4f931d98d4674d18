"""The README's Python examples run as written.

Its ```python blocks run in order in one namespace, as a reader pasting them
into one session would run them, so the quickstart's assert and the replay
example fail here the moment the library stops matching them.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_python_examples_run_in_order():
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)

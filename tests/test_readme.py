"""README's library-use snippets, run as a reader would paste them."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippets_reach_lambda1():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # in order, in one namespace: the second reuses the first's imports
        exec(compile(block, str(README), "exec"), namespace)
        assert namespace["trace"].status == "reached_lambda1"

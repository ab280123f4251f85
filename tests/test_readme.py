"""Every python code block of README.md runs, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 4
    # the custom_summable line names a coupling h(j) and its tail bound B(J)
    namespace = {"h": lambda j: 0.5 ** j, "B": lambda J: 0.5 ** J}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["analysis"].phase == "critical"

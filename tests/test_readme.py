"""Every python code block of README.md runs, in order, in one namespace,
and every command of its "Command line" block exits 0."""

import re
import shlex
from pathlib import Path

from fermichain.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 4
    # the custom_summable line names a coupling h(j) and its tail bound B(J)
    namespace = {"h": lambda j: 0.5 ** j, "B": lambda J: 0.5 ** J}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["analysis"].phase == "critical"


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    block = re.search(r"^## Command line\n\n```\n(.*?)```", README.read_text(),
                      re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) >= 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        program, command, *rest = shlex.split(line)
        assert program == "fermichain"
        assert run([command, *rest]) == 0, line
        fmt = rest[rest.index("--format") + 1] if "--format" in rest else "csv"
        assert (tmp_path / f"{command.replace('-', '_')}.{fmt}").is_file(), line

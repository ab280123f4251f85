"""Every python code block of README.md runs, in order, in one namespace,
every command of its "Command line" block exits 0, and its eigensolver
timing example runs once."""

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


def test_readme_eigensolver_timing_example_runs():
    # the "Eigensolver speed" command: its -s set-up lines, then its
    # statement once, in one namespace
    block = re.search(r"^### Eigensolver speed\n.*?```\n(.*?)```",
                      README.read_text(), re.S | re.M).group(1)
    words = shlex.split(block.replace("\\\n", " "))
    assert words[:5] == ["PYTHONPATH=src", "OPENBLAS_NUM_THREADS=1",
                         "python", "-m", "timeit"]
    *options, statement = words[5:]
    assert options and options[::2] == ["-s"] * (len(options) // 2)
    namespace = {}
    for setup in options[1::2]:
        exec(compile(setup, str(README), "exec"), namespace)
    exec(compile(statement, str(README), "exec"), namespace)
    assert namespace["row"].size == 512

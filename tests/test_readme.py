"""The command examples of README.md run as documented."""

import re
import shlex
from pathlib import Path

from shellab.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_lines():
    """(argv, expected exit code) per line of the first ``sh`` block under
    "## Command line": 1 where the line's comment says "exits 1", else 0."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    for line in block.splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "shellab", line
        yield line, argv, 1 if "exits 1" in line.partition("#")[2] else 0


def test_readme_command_examples_exit_as_documented(tmp_path, monkeypatch, capsys):
    # one directory for all lines, in order: a later line reads what an
    # earlier one wrote (rfas-shell reads omega.json)
    monkeypatch.chdir(tmp_path)
    lines = list(_command_lines())
    assert len(lines) == 14
    for line, argv, code in lines:
        assert run(argv) == code, (line, capsys.readouterr())
    assert {p.name for p in tmp_path.iterdir()} == {"cert.json", "cc.json", "omega.json",
                                                    "fig1.dot"}

"""The README's library examples and CLI commands run against the current code."""

import re
import shlex
from pathlib import Path

from gbscavity import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"),
                            flags=re.MULTILINE | re.DOTALL):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "gbscavity":
                commands.append(argv[1:])
    assert commands
    # in README order and in one directory: measure reads what generate wrote
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv

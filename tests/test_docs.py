"""README's examples name only options and scripts that exist."""
import re
import shlex
from pathlib import Path

import pytest

from bcfusion.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _cli_commands() -> list[str]:
    """The indented code lines of README's ``## CLI`` section, up to the first
    prose line, without their comments."""
    section = README.split("\n## CLI\n", 1)[1]
    lines = []
    for line in section.lstrip("\n").splitlines():
        if not line.startswith("    "):
            break
        lines.append(line.split("#", 1)[0].strip())
    return lines


def test_readme_cli_block_is_not_empty():
    assert len(_cli_commands()) >= 5


@pytest.mark.parametrize("command", _cli_commands())
def test_readme_cli_line_parses(command):
    argv = shlex.split(command)
    assert argv[0] == "bcfusion"
    args = build_parser().parse_args(argv[1:])
    assert args.func.__name__ == f"cmd_{argv[1]}"


def test_readme_scripts_exist():
    named = set(re.findall(r"scripts/[\w.-]+\.py", README))
    assert named
    assert all((ROOT / path).is_file() for path in named), named

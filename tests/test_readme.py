"""The README's examples run against this tree: every line of the "Command
line" block exits with the code the README states beside it (0 unless a
`# exits N` comment says otherwise), the library quick start runs, and the
list of generator families matches the command line's table."""

import re
import shlex
from pathlib import Path

import pytest

from nilflow.cli import _GENERATORS, main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading, lang):
    """Body of the first fenced `lang` block after `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


COMMANDS = [line for line in _block("## Command line", "sh").splitlines() if line.startswith("nilflow ")]


def test_readme_lists_commands():
    # an empty list would parametrize no test at all
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split()[1] + f"-{i}" for i, line in enumerate(COMMANDS)])
def test_command_line_example(line, tmp_path, monkeypatch):
    stated = re.search(r"# exits (\d+)", line)
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line, comments=True)[1:]) == (int(stated[1]) if stated else 0)


def test_library_quick_start():
    exec(compile(_block("## Library quick start", "python"), "README.md", "exec"), {})


def test_generator_families_match_the_table():
    # each item shows a family with all its options at their defaults
    paragraph = README.split("\nBracket sources are ", 1)[1].split("\n\n", 2)[1]
    listed = dict(re.findall(r"^- `(\w+):([^`]*)`", paragraph, re.M))
    assert listed == {
        name: ",".join(
            f"{key}={f'<{cast.__name__}>' if default is None else default}"
            for key, (cast, default, *_) in options.items()
        )
        for name, (_, options) in _GENERATORS.items()
    }

"""Every ``$ qfrm ...`` example in README.md prints what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from qfrm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(command, shown lines) for each ``$ qfrm`` line of the README; the
    shown lines run to the next blank line or the end of the code block."""
    examples = []
    lines = README.read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines):
        if not line.startswith("$ qfrm "):
            continue
        shown = []
        for out in lines[k + 1:]:
            if not out.strip() or out.startswith("```"):
                break
            shown.append(out)
        examples.append((line[2:], shown))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) == 8


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, command, shown):
    argv, _, pipe = command.partition(" | ")
    head = re.fullmatch(r"head -(\d+)", pipe.strip()) if pipe else None
    assert not pipe or head, f"unsupported pipe in {command!r}"
    assert main(shlex.split(argv)[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    if head:
        out = out[: int(head.group(1))]
    assert out == shown

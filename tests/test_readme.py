"""The README's command-line examples, run and compared byte for byte.

Each `$ cantorshift ...` line in the "Command line" section (with `\\`
continuations joined) is split like a shell would split it and run
through `cli.main`; its stdout must equal the lines printed under it.
"""

import os
import shlex

import pytest

from cantorshift.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_examples():
    """(argv after the program name, stdout) for every example."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples, out = [], None
    for block in section.split("```sh\n")[1:]:
        for line in block.split("```", 1)[0].replace("\\\n", " ").split("\n"):
            if line.startswith("$ "):
                argv = shlex.split(line[2:])
                assert argv[0] == "cantorshift", line
                out = []
                examples.append((argv[1:], out))
            elif not line:
                out = None  # a blank line ends an example's output
            elif out is not None:
                out.append(line + "\n")
    return [(argv, "".join(out)) for argv, out in examples]


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv[:2]) for argv, _ in EXAMPLES])
def test_example_stdout_is_byte_identical(capsys, argv, expected):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == expected

"""The README's Python and command-line examples print what the README shows."""

import contextlib
import io
import pathlib
import re
import shlex

from trigsum.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_prints_what_its_comments_say():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        # every print line carries its output as a comment; "..." ends a prefix
        comments = [line.partition("#")[2].strip() for line in block.splitlines()
                    if line.startswith("print(")]
        printed = out.getvalue().splitlines()
        assert len(printed) == len(comments)
        for got, want in zip(printed, comments):
            if want.endswith("..."):
                assert got.startswith(want[:-3]), (got, want)
            else:
                assert got == want


def test_readme_command_examples_print_what_they_show(capsys):
    text = README.read_text(encoding="utf-8")
    examples = re.findall(r"^\$ trigsum ((?:sum|table) .*)\n((?:.+\n)*)", text, re.M)
    assert len(examples) == 2
    for command, shown in examples:
        assert main(shlex.split(command)) == 0
        printed = capsys.readouterr().out.splitlines()
        for i, want in enumerate(shown.splitlines()):
            if want == "...":
                break
            assert printed[i] == want, (command, i)
        else:
            assert len(printed) == len(shown.splitlines()), command

"""The README's Python example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

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

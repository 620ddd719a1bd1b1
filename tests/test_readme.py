"""The README's Python examples run and print what their comments say."""

import contextlib
import io
import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# a top-level ``print(...)`` call and the output its trailing comment expects
EXPECTED_PRINT = re.compile(r"^print\(.*\)\s+# (.*)$")

with open(README, encoding="utf-8") as _fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```", _fh.read(), re.S | re.M)


def _expected(block):
    expected = []
    for line in block.splitlines():
        if line.startswith("print("):
            match = EXPECTED_PRINT.match(line)
            assert match, "a README print has no expected output: %s" % line
            expected.append(match.group(1).rstrip())
    return expected


def test_readme_examples_check_their_output():
    assert sum(len(_expected(block)) for block in BLOCKS) >= 4


@pytest.mark.parametrize("block", BLOCKS,
                         ids=["block%d" % k for k in range(len(BLOCKS))])
def test_readme_block_prints_its_comments(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == _expected(block)

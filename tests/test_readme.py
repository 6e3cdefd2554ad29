"""README's "Library use" block runs as written.

Each ``print`` in the block carries the line it prints as a trailing
``# ...`` comment; the test runs the block and compares them in order.
"""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_prints_what_its_comments_say():
    block = library_use_block()
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert expected, "the block has no commented print"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected

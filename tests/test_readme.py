"""The README's library sketch runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    text = README.read_text()
    section = text[text.index("## Library sketch") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_sketch_prints_what_its_comments_say():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_sketch(), str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["49", "(48240,)"]

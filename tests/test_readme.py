"""The README's library quickstart runs as written and prints what it documents."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart():
    # the block asserts its certificate against the dispersion integral; the
    # printed value and bound match the comment on its print line
    code = _quickstart()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    value, bound = printed.getvalue().split(" +/- ")
    documented_value, documented_bound = re.search(
        r"# ([\d.]+)\.\.\. \+/- (\S+)", code
    ).groups()
    assert value.startswith(documented_value)
    assert f"{float(bound):.3g}" == documented_bound

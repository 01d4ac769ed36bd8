"""README's Python API snippet runs as documented, so the names the
package root exports cannot drift from what README shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_snippet_prints_documented_verdicts():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, str(README), "exec"), {})
    assert out.getvalue() == "False False\n"


def test_submodules_import_from_package_root():
    import awb
    from awb import oracles, parse_ail

    m = awb.fixtures.m1()
    assert oracles.sat_ail_brute(m, "w1", parse_ail("p")) == awb.sat_ail(m, "w1", parse_ail("p"))

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"
spec = importlib.util.spec_from_file_location("line_trace", TOOL)
line_trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_trace)

MODULE = '''"""A module whose one function has a branch that no test takes."""

LIMIT = 3


def clip(x):
    """The docstring is no code line."""
    if x > LIMIT:
        # more than the limit
        return LIMIT
    else:
        x = abs(x)
    return x


class Box:
    size = LIMIT

    def grow(self):
        self.size += 1
'''

TESTS = '''from tracedemo.mod import Box, clip


def test_clip():
    assert clip({value}) == {value}
'''


@pytest.fixture
def demo(tmp_path, monkeypatch):
    """A package ``tracedemo`` and a test file for it, imported from a
    fresh directory and forgotten afterwards."""
    package = tmp_path / "tracedemo"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    yield tmp_path
    for name in [n for n in sys.modules if n.split(".")[0] in ("tracedemo", "test_demo")]:
        del sys.modules[name]


def run(demo, value):
    (demo / "test_demo.py").write_text(TESTS.format(value=value))
    args = ["-q", "-p", "no:cacheprovider", "-c", "pytest.ini", "test_demo.py"]
    return line_trace.main(args, package=demo / "tracedemo")


def test_reports_the_lines_no_test_ran(demo, capsys):
    assert run(demo, 1) == 0
    report = capsys.readouterr().out.splitlines()
    # the taken branch, the module body, the class body and the docstring
    # are not listed; the untaken branch and the uncalled method are
    assert report[-3:] == [
        "tracedemo/mod.py:10: return LIMIT",
        "tracedemo/mod.py:20: self.size += 1",
        "2 lines in function bodies of tracedemo not run",
    ]
    assert "1 passed" in report[-4]


def test_exits_with_the_exit_code_of_pytest(demo, capsys):
    # clip(5) is 3, so the test fails, and the other branch runs instead
    assert run(demo, 5) == 1
    report = capsys.readouterr().out.splitlines()
    assert report[-4:] == [
        "tracedemo/mod.py:12: x = abs(x)",
        "tracedemo/mod.py:13: return x",
        "tracedemo/mod.py:20: self.size += 1",
        "3 lines in function bodies of tracedemo not run",
    ]

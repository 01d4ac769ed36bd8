"""README's examples run as documented: the Python API snippet, so the
names the package root exports cannot drift from what README shows; the
quick-start transcript; and the atom grammar it states."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from awb.cli import main
from awb.formula import ATOM_RE

README = Path(__file__).resolve().parents[1] / "README.md"


def _elapsed_masked(text):
    return re.sub(r"^elapsed: \d+ ms$", "elapsed: <ms> ms", text, flags=re.M)


def test_quick_start_transcript(tmp_path, monkeypatch, capsys):
    # The block is a shell session: "$ cat demo.json" shows the model, and
    # each "$ awb ..." line is followed by the stdout it prints.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n\n```sh\n(.*?)```", text, re.S).group(1)
    (cat, model), *commands = (
        s.partition("\n")[::2] for s in re.split(r"^\$ ", block, flags=re.M)[1:]
    )
    assert cat == "cat demo.json"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo.json").write_text(model.rstrip("\n") + "\n", encoding="utf-8")
    assert len(commands) == 5
    for line, expected in commands:
        argv = shlex.split(line)
        assert argv[0] == "awb"
        main(argv[1:])
        out = capsys.readouterr().out
        assert _elapsed_masked(out) == _elapsed_masked(expected.rstrip("\n") + "\n"), line


def test_atom_grammar_is_the_parsers():
    text = README.read_text(encoding="utf-8")
    stated = re.search(r"over atom names\s+\(`([^`]+)`\)", text).group(1)
    assert stated + r"\Z" == ATOM_RE.pattern


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

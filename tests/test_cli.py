import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import time

import pytest

import awb
from awb.cli import (
    EXIT_CONJECTURE,
    EXIT_FALSE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_PRECONDITION,
    EXIT_TRUE,
    _build_parser,
    main,
)
from awb.model import model_to_dict

IFF_CHAIN = " <-> ".join(["p"] * 25)
TOO_LARGE = (
    "error: formula too large: 167772151 syntax tree nodes, over 20000 (line 1, column 1)\n"
)


@pytest.fixture
def m1_file(tmp_path, M1):
    path = tmp_path / "m1.json"
    path.write_text(json.dumps(model_to_dict(M1)))
    return str(path)


@pytest.fixture
def m2_file(tmp_path, M2):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(model_to_dict(M2)))
    return str(path)


@pytest.fixture
def varying_file(tmp_path):
    path = tmp_path / "varying.json"
    path.write_text(
        json.dumps(
            {
                "atoms": ["p"],
                "agents": ["a"],
                "worlds": ["w1", "w2"],
                "valuation": {"p": ["w1"]},
                "awareness": {"a": {"w1": ["p"]}},
            }
        )
    )
    return str(path)


class TestCheckAil:
    @pytest.mark.parametrize("formula", ["X[b] I[b] X[b] p", "A[b] p"])
    def test_undeclared_agent(self, m1_file, formula, capsys):
        code = main(["check", m1_file, "--formula", formula, "--world", "w1"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: unknown agent 'b'\n"

    def test_true(self, m1_file, capsys):
        code = main(["check", m1_file, "--formula", "p", "--world", "w1"])
        assert code == EXIT_TRUE
        assert capsys.readouterr().out == "true\n"

    def test_false(self, m1_file, capsys):
        code = main(["check", m1_file, "--formula", "p", "--world", "w2"])
        assert code == EXIT_FALSE
        assert capsys.readouterr().out == "false\n"

    def test_missing_world(self, m1_file, capsys):
        code = main(["check", m1_file, "--formula", "p"])
        assert code == EXIT_INPUT
        assert "--world is required" in capsys.readouterr().err

    def test_unknown_world(self, m1_file, capsys):
        code = main(["check", m1_file, "--formula", "p", "--world", "w9"])
        assert code == EXIT_INPUT
        assert "w9" in capsys.readouterr().err

    def test_parse_error_position(self, m1_file, capsys):
        code = main(["check", m1_file, "--formula", "X[a", "--world", "w1"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: expected ']', found end of input (line 1, column 4)" in err

    def test_verbose_reach(self, m1_file, capsys):
        code = main(
            [
                "check",
                m1_file,
                "--formula",
                "X[a] I[a] X[a] p",
                "--world",
                "w1",
                "-v",
            ]
        )
        assert code == EXIT_FALSE
        out = capsys.readouterr().out
        assert "false" in out
        assert "reach(a, w1): {w1, w2}" in out

    def test_verbose_awareness(self, m1_file, capsys):
        code = main(
            ["check", m1_file, "--formula", "A[a] q", "--world", "w1", "-v"]
        )
        assert code == EXIT_FALSE
        out = capsys.readouterr().out
        assert "awareness(a, w1): {p}" in out
        assert "body atoms: {q}" in out


class TestCheckHms:
    def test_default_state(self, m2_file, capsys):
        code = main(
            ["check", m2_file, "--formula", "I[a] q", "--world", "w1", "--lang", "hms"]
        )
        assert code == EXIT_TRUE
        assert capsys.readouterr().out == "true\n"

    def test_explicit_state(self, m2_file, capsys):
        code = main(
            [
                "check",
                m2_file,
                "--formula",
                "I[a] q",
                "--lang",
                "hms",
                "--hms-state",
                "w2@q",
            ]
        )
        assert code == EXIT_FALSE

    def test_variant_selects_semantics(self, tmp_path, divergent_model, capsys):
        path = tmp_path / "div.json"
        path.write_text(json.dumps(model_to_dict(divergent_model)))
        args = [
            "check",
            str(path),
            "--formula",
            "I[a] (p & ~(q & ~q))",
            "--lang",
            "hms",
            "--hms-state",
            "y1@p,q",
        ]
        assert main(args) == EXIT_FALSE
        assert main(args + ["--variant", "cell-union"]) == EXIT_TRUE

    def test_missing_state_and_world(self, m2_file, capsys):
        code = main(["check", m2_file, "--formula", "q", "--lang", "hms"])
        assert code == EXIT_INPUT
        assert "--world or --hms-state" in capsys.readouterr().err

    def test_bad_state_ref(self, m2_file, capsys):
        code = main(
            ["check", m2_file, "--formula", "q", "--lang", "hms", "--hms-state", "w1"]
        )
        assert code == EXIT_INPUT

    def test_state_printed_by_verbose_names_it(self, tmp_path, capsys):
        # a world name may hold '@'; the state `check -v` prints reads back
        path = tmp_path / "at.json"
        path.write_text(
            json.dumps({"atoms": ["p"], "agents": [], "worlds": ["x@y", "z"],
                        "valuation": {"p": ["x@y"]}})
        )
        args = ["check", str(path), "--formula", "p", "--lang", "hms"]
        assert main(args + ["--world", "x@y", "-v"]) == EXIT_TRUE
        assert capsys.readouterr().out.startswith("true\nstate: x@y@p;")
        assert main(args + ["--hms-state", "x@y@p"]) == EXIT_TRUE
        assert capsys.readouterr() == ("true\n", "")

    @pytest.mark.parametrize(
        "ref, same_as, out",
        [
            # a reference's vocabulary is a set: order and repeats do not
            # matter, and the state printed names it canonically
            ("w2@q,p", "w2@p,q",
             "false\nstate: w2@p,q; truth-set base: {w1@p,q}; extension size: 1\n"),
            ("w1@p,p", "w1@p",
             "false\nstate: w1@p; truth-set base: {w1@p,q}; extension size: 1\n"),
        ],
        ids=["reordered", "repeated"],
    )
    def test_state_ref_vocabulary_is_a_set(self, m1_file, capsys, ref, same_as, out):
        args = ["check", m1_file, "--formula", "p & q", "--lang", "hms", "-v", "--hms-state"]
        results = []
        for r in (ref, same_as):
            code = main(args + [r])
            results.append((code, capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][1] == (out, "")

    def test_verbose_truth_set(self, m1_file, capsys):
        code = main(
            [
                "check",
                m1_file,
                "--formula",
                "q",
                "--lang",
                "hms",
                "--world",
                "w1",
                "-v",
            ]
        )
        assert code == EXIT_TRUE
        out = capsys.readouterr().out
        assert "state: w1@q" in out
        assert "truth-set base: {w1@q}" in out
        assert "extension size: 3" in out

    @pytest.mark.parametrize(
        "formula,flags,code,out",
        [
            # possibility masks of one agent in one space, lifted on first read
            ("I[a] p", [], EXIT_FALSE, "false\n"),
            # the agent's awareness set, held once per structure
            ("A[a] p", [], EXIT_TRUE, "true\n"),
            # states decoded from each row's representatives
            ("p", ["-v"], EXIT_TRUE,
             "true\nstate: w1@p; truth-set base: {w1@p}; extension size: 2\n"),
        ],
        ids=["implicit", "aware", "verbose"],
    )
    def test_answer_at_w1(self, m1_file, capsys, formula, flags, code, out):
        args = ["check", m1_file, "--lang", "hms", "--formula", formula, "--world", "w1"]
        assert main(args + flags) == code
        assert capsys.readouterr() == (out, "")

    def test_varying_awareness_precondition(self, varying_file, capsys):
        code = main(
            ["check", varying_file, "--formula", "p", "--lang", "hms", "--world", "w1"]
        )
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert (
            "error: transform inapplicable: awareness of agent 'a' varies "
            "across worlds: ['p'] at 'w1' but [] at 'w2'" in err
        )

    @pytest.mark.parametrize("formula", ["I[b] p", "A[b] p"])
    def test_undeclared_agent(self, m1_file, formula, capsys):
        code = main(["check", m1_file, "--formula", formula, "--lang", "hms", "--world", "w1"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: unknown agent 'b'\n"


class TestInputErrors:
    """Bad input exits 2 with a named error; a ValueError raised inside the
    library is an internal error and exits 5."""

    @pytest.mark.parametrize(
        "args,message",
        [
            (["check", "{m1}", "--lang", "hms", "--formula", "z", "--world", "w1"],
             "error: undeclared atoms: ['z']\n"),
            (["check", "{m1}", "--lang", "hms", "--formula", "z", "--hms-state", "w1@p"],
             "error: undeclared atoms: ['z']\n"),
            (["check", "{m1}", "--lang", "hms", "--formula", "p", "--world", "w9"],
             "error: unknown world 'w9'\n"),
            (["check", "{m1}", "--lang", "hms", "--formula", "p", "--hms-state", "w1@z"],
             "error: undeclared atoms: ['z']\n"),
            (["check", "{m1}", "--lang", "hms", "--formula", "p", "--hms-state", "@p"],
             "error: bad state reference '@p': expected 'world@vocab'\n"),
            (["verify", "--trials", "-1"], "error: trials must be >= 0\n"),
            (["check", "{m1}", "--lang", "ail", "--formula", "A[a] z", "--world", "w1"],
             "error: undeclared atoms: ['z']\n"),
            (["check", "{m1}", "--lang", "ail", "--formula", "X[a] I[a] X[a] z", "--world", "w1"],
             "error: undeclared atoms: ['z']\n"),
            (["check", "{m1}", "--lang", "ail", "--formula", "~" * 3000 + "p", "--world", "w1"],
             "error: formula nested too deeply (line 1, column 101)\n"),
            (["check", "{m1}", "--lang", "hms", "--formula", "~" * 3000 + "p", "--world", "w1"],
             "error: formula nested too deeply (line 1, column 101)\n"),
            (["translate", "--formula", "(" * 3000 + "p" + ")" * 3000],
             "error: formula nested too deeply (line 1, column 101)\n"),
            (["translate", "--formula", " & ".join(["p"] * 3000)],
             "error: formula nested too deeply (line 1, column 1)\n"),
            # 24 links of <->: a 145-character formula whose syntax tree
            # has 1.7e8 nodes
            (["check", "{m1}", "--lang", "ail", "--formula", IFF_CHAIN, "--world", "w1"],
             TOO_LARGE),
            (["check", "{m1}", "--lang", "hms", "--formula", IFF_CHAIN, "--world", "w1"],
             TOO_LARGE),
            (["translate", "--formula", IFF_CHAIN], TOO_LARGE),
            # propositional evaluation short-circuits at w2 (p false, q
            # true), yet the undeclared atom is still refused
            (["check", "{m1}", "--lang", "ail", "--formula", "p & zz", "--world", "w2"],
             "error: undeclared atoms: ['zz']\n"),
            (["check", "{m1}", "--lang", "ail", "--formula", "q | zz", "--world", "w2"],
             "error: undeclared atoms: ['zz']\n"),
            (["check", "{m1}", "--formula", "p", "--world", "w1", "--hms-state", "w1@p"],
             "error: --hms-state needs --lang hms\n"),
            (["check", "{m1}", "--formula", "p", "--world", "w1", "--variant", "cell-union"],
             "error: --variant needs --lang hms\n"),
            (["transform", "{m1}", "--atom-cap", "-1"], "error: atom_cap must be >= 0\n"),
            (["transform", "{m1}", "--dump", ""], "error: --dump needs a file path\n"),
            # evaluated at w1@p, p is true; at w2 it is false
            (["check", "{m1}", "--lang", "hms", "--formula", "p", "--world", "w2",
              "--hms-state", "w1@p"],
             "error: --hms-state cannot be given with --world\n"),
            (["check", "{m1}", "--formula", "p"], "error: --world is required\n"),
            # a parse error past line 1 names its line and its column there
            (["translate", "--formula", "X[a]\nI[b] X[a] p"],
             "error: agent mismatch in X[i] I[i] X[i] pattern: got X[a] I[b] X[a], all "
             "three must bind the same agent (line 2, column 6)\n"),
            (["check", "{m1}", "--lang", "hms", "--formula", "p &\r\n  é", "--world", "w1"],
             "error: unexpected character 'é' (line 2, column 3)\n"),
        ],
    )
    def test_input_error(self, m1_file, capsys, args, message):
        # every refusal here is made up front, so none takes long
        start = time.perf_counter()
        assert main([a.format(m1=m1_file) for a in args]) == EXIT_INPUT
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == message

    def test_binary_model_file_names_path(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["transform", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8 text: ")

    def test_duplicate_json_key(self, tmp_path, capsys):
        # read with the last value winning, p would hold at w2
        path = tmp_path / "model.json"
        path.write_text(
            '{"atoms": ["p"], "agents": [], "worlds": ["w1", "w2"],'
            ' "valuation": {"p": ["w1"], "p": ["w2"]}}'
        )
        assert main(["check", str(path), "--formula", "p", "--world", "w2"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: duplicate keys in a JSON object: ['p']\n")

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text("[" * 100_000)
        assert main(["transform", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: invalid JSON in {path}: nested too deeply\n"

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--formula", "p"], "error: --world or --hms-state is required\n"),
            (["--formula", "p", "--world", "w9"], "error: unknown world 'w9'\n"),
            (["--formula", "p", "--hms-state", "w9@p"], "error: unknown world 'w9'\n"),
            (["--formula", "p", "--hms-state", "w1@z"], "error: undeclared atoms: ['z']\n"),
            # undeclared atoms are named before an unknown world
            (["--formula", "p", "--hms-state", "w9@z"], "error: undeclared atoms: ['z']\n"),
            (["--formula", "p", "--hms-state", "@p"],
             "error: bad state reference '@p': expected 'world@vocab'\n"),
            # an undeclared formula atom, under one message on both routes
            (["--formula", "p & zz", "--world", "w1"], "error: undeclared atoms: ['zz']\n"),
            (["--formula", "p & zz", "--hms-state", "w1@p"], "error: undeclared atoms: ['zz']\n"),
            (["--formula", "p", "--world", "w1", "--hms-state", "w1@p"],
             "error: --hms-state cannot be given with --world\n"),
            (["--formula", "p", "--hms-state", "w1@p,"],
             "error: bad state reference 'w1@p,': empty atom name in its vocabulary\n"),
            (["--formula", "p", "--hms-state", "w1@,p"],
             "error: bad state reference 'w1@,p': empty atom name in its vocabulary\n"),
            (["--formula", "p", "--hms-state", "w1@p,,q"],
             "error: bad state reference 'w1@p,,q': empty atom name in its vocabulary\n"),
        ],
    )
    def test_usage_error_before_build(self, m1_file, capsys, monkeypatch, args, message):
        def no_build(*_):
            raise AssertionError("hms_transform called")

        monkeypatch.setattr("awb.cli.hms_transform", no_build)
        assert main(["check", m1_file, "--lang", "hms"] + args) == EXIT_INPUT
        assert capsys.readouterr().err == message

    def test_library_value_error_is_internal(self, m1_file, capsys, monkeypatch):
        def fails(self, x):
            raise ValueError("lookup failed")

        monkeypatch.setattr("awb.hms.HmsStructure._row_of", fails)
        argv = ["check", m1_file, "--lang", "hms", "--formula", "I[a] q", "--world", "w1"]
        assert main(argv) == EXIT_INTERNAL
        assert capsys.readouterr().err == "error: internal error: ValueError: lookup failed\n"


class TestTransform:
    def test_summary(self, m1_file, capsys):
        assert main(["transform", m1_file]) == EXIT_TRUE
        assert capsys.readouterr().out == "4 spaces, sizes 1/2/1/2\n"

    def test_dump_stable(self, m1_file, tmp_path, capsys):
        out1 = tmp_path / "dump1.json"
        out2 = tmp_path / "dump2.json"
        assert main(["transform", m1_file, "--dump", str(out1)]) == EXIT_TRUE
        assert main(["transform", m1_file, "--dump", str(out2)]) == EXIT_TRUE
        assert out1.read_bytes() == out2.read_bytes()
        dumped = json.loads(out1.read_text())
        assert dumped["spaces"][""][0]["rep"] == "w1"
        assert f"wrote {out1}" in capsys.readouterr().out

    def test_unwritable_dump_refused_before_build(self, m1_file, tmp_path, capsys, monkeypatch):
        def no_build(*_, **__):
            raise AssertionError("hms_transform called")

        monkeypatch.setattr("awb.cli.hms_transform", no_build)
        target = tmp_path / "missing" / "x.json"
        assert main(["transform", m1_file, "--dump", str(target)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{target}'\n"
        )

    def test_dump_onto_directory_names_it(self, m1_file, tmp_path, capsys):
        # refused before the build, so no summary line is printed
        target = tmp_path / "taken"
        target.mkdir()
        assert main(["transform", m1_file, "--dump", str(target)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: '{target}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m1.json", "taken"]

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o027, 0o640), (0o002, 0o664)], ids=["022", "027", "002"]
    )
    @pytest.mark.parametrize("existing", [None, 0o644], ids=["new", "replaces-0644"])
    def test_dump_mode_follows_umask(self, m1_file, tmp_path, capsys, umask, mode, existing):
        # a new file's mode under the umask, whether the dump is new or
        # replaces a file of another mode
        out = tmp_path / "dump.json"
        if existing is not None:
            out.write_text("old")
            out.chmod(existing)
        old = os.umask(umask)
        try:
            assert main(["transform", m1_file, "--dump", str(out)]) == EXIT_TRUE
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert json.loads(out.read_text())["atoms"] == ["p", "q"]

    def test_refused_transform_leaves_no_temp_file(self, m1_file, varying_file, tmp_path, capsys):
        out = str(tmp_path / "dump.json")
        assert main(["transform", m1_file, "--atom-cap", "1", "--dump", out]) == EXIT_PRECONDITION
        assert main(["transform", varying_file, "--dump", out]) == EXIT_PRECONDITION
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m1.json", "varying.json"]

    def test_dump_write_failure_leaves_target(self, m1_file, tmp_path, capsys, monkeypatch):
        # the disk fills after the first piece: the error names the dump
        # path, the old dump stays and the temp file goes
        def one_piece_then_full(s):
            yield "{"
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("awb.cli.dump_pieces", one_piece_then_full)
        target = tmp_path / "dump.json"
        target.write_text("old")
        assert main(["transform", m1_file, "--dump", str(target)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: [Errno 28] No space left on device: '{target}'\n"
        )
        assert target.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.json", "m1.json"]

    def test_varying_awareness(self, varying_file, capsys):
        assert main(["transform", varying_file]) == EXIT_PRECONDITION

    def test_atom_cap(self, m1_file, capsys):
        assert main(["transform", m1_file, "--atom-cap", "1"]) == EXIT_PRECONDITION
        assert "2 atoms" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["transform", str(tmp_path / "nope.json")]) == EXIT_INPUT

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["transform", str(path)]) == EXIT_INPUT

    def test_invalid_model(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text(
            json.dumps(
                {
                    "atoms": ["p"],
                    "agents": ["a"],
                    "worlds": ["w1"],
                    "unknown_key": 1,
                }
            )
        )
        assert main(["transform", str(path)]) == EXIT_INPUT
        assert "unknown_key" in capsys.readouterr().err


def test_overlap_errors_in_world_order(tmp_path):
    """The overlaps of two blocks are named in world order, whatever the
    hash seed."""
    path = tmp_path / "overlap.json"
    worlds = [f"w{k}" for k in range(1, 7)]
    path.write_text(
        json.dumps(
            {
                "atoms": ["p"],
                "agents": ["a"],
                "worlds": worlds,
                "indistinguishability": {"a": [worlds, worlds[:0:-1]]},
            }
        )
    )
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(awb.__file__)))
    argv = [sys.executable, "-m", "awb.cli", "check", str(path), "--formula", "p", "--world", "w1"]
    expected = "error: " + "; ".join(
        f"agent 'a': partition blocks overlap at world '{w}'" for w in worlds[1:]
    ) + "\n"
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_dir)
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (EXIT_INPUT, expected), hash_seed


BASE_MODEL = {"atoms": ["p"], "agents": ["a"], "worlds": ["w1"]}


@pytest.mark.parametrize(
    "model, message",
    [
        ([1], "error: model file must contain a JSON object\n"),
        ({**BASE_MODEL, "indistinguishability": []},
         "error: 'indistinguishability' must map agents to block lists\n"),
        ({**BASE_MODEL, "awareness": []},
         "error: 'awareness' must map agents to per-world atom lists\n"),
        ({**BASE_MODEL, "agents": [""]}, "error: empty identifier\n"),
        ({**BASE_MODEL, "atoms": ["P"]}, "error: invalid atom name 'P'\n"),
        ({**BASE_MODEL, "worlds": []}, "error: model has no worlds\n"),
        # every violation validate lists, joined in model order
        ({**BASE_MODEL, "worlds": ["w1", "w2"], "valuation": {"p": ["w1", "w9"]},
          "indistinguishability": {"a": [["w1", "w2"], ["w2"]]},
          "awareness": {"a": {"w1": ["p"]}}},
         "error: valuation of atom 'p' mentions unknown worlds ['w9']; "
         "agent 'a': partition blocks overlap at world 'w2'; "
         "agent 'a': awareness differs inside indistinguishability block {w1, w2}\n"),
        # a block given twice overlaps itself at each of its worlds
        ({**BASE_MODEL, "worlds": ["w1", "w2"],
          "indistinguishability": {"a": [["w1", "w2"], ["w2", "w1"]]}},
         "error: agent 'a': partition blocks overlap at world 'w1'; "
         "agent 'a': partition blocks overlap at world 'w2'\n"),
    ],
    ids=["array", "indist-array", "awareness-array", "empty-agent", "invalid-atom", "no-worlds",
         "validate-list", "block-twice"],
)
def test_model_file_fault_refused_at_load(tmp_path, capsys, model, message):
    """A faulty model file is refused with exit 2 by every command that
    loads one, whatever the formula."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    commands = [
        ["check", str(path), "--formula", "p", "--world", "w1"],
        ["check", str(path), "--formula", "X[a] I[a] X[a] p", "--world", "w1"],
        ["check", str(path), "--lang", "hms", "--formula", "p", "--world", "w1"],
        ["transform", str(path)],
    ]
    for argv in commands:
        assert main(argv) == EXIT_INPUT, argv
        assert capsys.readouterr() == ("", message), argv


class TestMalformedLeaves:
    def write(self, tmp_path, **sections):
        model = {"atoms": ["p", "q"], "agents": ["a"], "worlds": ["w1"]}
        model.update(sections)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        return str(path)

    def test_awareness_string_not_read_as_characters(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            valuation={"p": ["w1"], "q": ["w1"]},
            awareness={"a": {"w1": "pq"}},
        )
        argv = ["check", path, "--formula", "A[a] (p & q)", "--world", "w1"]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "awareness of agent 'a' at world 'w1' must be a list of strings" in captured.err

    def test_nested_valuation_list(self, tmp_path, capsys):
        path = self.write(tmp_path, valuation={"p": [["w1"]]})
        assert main(["check", path, "--formula", "p", "--world", "w1"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "valuation of atom 'p' must be a list of strings" in err
        assert "Traceback" not in err


class TestTranslate:
    def test_rewrites_sandwich(self, capsys):
        assert main(["translate", "--formula", "X[a] I[a] X[a] (p & q)"]) == EXIT_TRUE
        assert capsys.readouterr().out == "I[a] (p & q)\n"

    def test_identity_on_other_shapes(self, capsys):
        assert main(["translate", "--formula", "A[b] ~p"]) == EXIT_TRUE
        assert capsys.readouterr().out == "A[b] (~p)\n"

    def test_parse_error(self, capsys):
        assert main(["translate", "--formula", "I[a] p"]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "formula, message",
        [
            ("X[a] p", "expected 'I[' after 'X[a]' (the X[i] I[i] X[i] pattern), "
             "found 'p' (line 1, column 6)"),
            ("X[a] I[a] p", "expected 'X[' to close the X[i] I[i] X[i] pattern, "
             "found 'p' (line 1, column 11)"),
            ("X[a]", "expected 'I[' after 'X[a]' (the X[i] I[i] X[i] pattern), "
             "found end of input (line 1, column 5)"),
            ("X[a] I[a]", "expected 'X[' to close the X[i] I[i] X[i] pattern, "
             "found end of input (line 1, column 10)"),
        ],
        ids=["no-I", "no-closing-X", "no-I-at-end", "no-closing-X-at-end"],
    )
    def test_pattern_operator_missing(self, capsys, formula, message):
        assert main(["translate", "--formula", formula]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "formula,out",
        [
            ("X[a] I[a] X[a] ~(p & q)", "I[a] (~(p & q))\n"),
            ("A[b] p | q", "A[b] (~(~p & ~q))\n"),
        ],
        ids=["boxibox", "aware"],
    )
    def test_non_atomic_body_printed_in_parentheses(self, capsys, formula, out):
        assert main(["translate", "--formula", formula]) == EXIT_TRUE
        assert capsys.readouterr().out == out


# exit code and stdout sha256 of `awb verify --seed SEED [--both-variants]
# --format json` at the default 1000 trials; the reports must stay
# byte-identical. With both variants, the variants diverge on some event,
# so the run exits 4.
VERIFY_REPORTS = {
    (42, False): (0, "c035c40245025d812661380964fa218415327bc89f4111403cb8407280c37dc3"),
    (42, True): (4, "0df4ba9b69918b4a12f9811c4104a51b7687604adf2eea3c7ae3cfb11d8c9636"),
    (7, False): (0, "a1c8052e7d31cf1e794481d046b7f51c70f6c76774063cfd7f0c996fd98cef49"),
    (7, True): (4, "a72e6712ed0053f6b3d8286ab81af7aaf681bf1ff7e586ccbccb8f6eb91254b8"),
}


class TestVerify:
    @pytest.mark.parametrize("seed,both", sorted(VERIFY_REPORTS))
    def test_default_report_is_pinned(self, capsys, seed, both):
        argv = ["verify", "--seed", str(seed), "--format", "json"]
        code = main(argv + ["--both-variants"] * both)
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert (code, digest) == VERIFY_REPORTS[seed, both]

    def test_json_success(self, capsys):
        code = main(["verify", "--trials", "40", "--seed", "42", "--format", "json"])
        assert code == EXIT_TRUE
        report = json.loads(capsys.readouterr().out)
        assert report["failures_total"] == 0
        assert report["elapsed_ms"] == 0
        assert report["config"]["seed"] == 42
        assert report["config"]["trials"] == 40

    def test_text_success(self, capsys):
        code = main(["verify", "--trials", "40", "--seed", "42"])
        assert code == EXIT_TRUE
        out = capsys.readouterr().out
        assert "result: PASS (0 failures)" in out

    def test_conjecture_failure_exit(self, capsys):
        code = main(
            ["verify", "--trials", "600", "--seed", "42", "--no-a-condition"]
        )
        assert code == EXIT_CONJECTURE
        assert "result: FAIL" in capsys.readouterr().out

    def test_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("AWB_SEED", "7")
        assert main(["verify", "--trials", "30", "--format", "json"]) == EXIT_TRUE
        via_env = capsys.readouterr().out
        assert main(["verify", "--trials", "30", "--seed", "7", "--format", "json"]) == EXIT_TRUE
        via_flag = capsys.readouterr().out
        assert via_env == via_flag
        assert json.loads(via_env)["config"]["seed"] == 7

    def test_seed_env_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("AWB_SEED", "not-a-number")
        assert main(["verify", "--trials", "5"]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "",
            "error: AWB_SEED must be an integer, got 'not-a-number'\n",
        )

    def test_both_variants_probe_in_output(self, capsys):
        code = main(
            [
                "verify",
                "--trials",
                "40",
                "--seed",
                "42",
                "--both-variants",
                "--format",
                "json",
            ]
        )
        # this seed hits an event-level variant divergence within 40 trials,
        # so the exploratory conjecture fails and the exit code says so
        assert code == EXIT_CONJECTURE
        report = json.loads(capsys.readouterr().out)
        assert report["variant_probe"]["event_divergences"] == 1
        assert "truth_preservation[cell-union]" in report["conjectures"]

    @pytest.mark.parametrize(
        "seed, trials, code, divergences",
        [(42, 40, EXIT_CONJECTURE, 1), (7, 300, EXIT_TRUE, 0)],
        ids=["diverges", "agrees"],
    )
    def test_both_variants_probe_in_text(self, capsys, seed, trials, code, divergences):
        argv = ["verify", "--seed", str(seed), "--trials", str(trials), "--both-variants"]
        assert main(argv) == code
        assert (
            f"  variant probe: {divergences} event-level divergences; "
            "truth preservation is not variant-sensitive\n"
        ) in capsys.readouterr().out

    def test_timing_flag(self, capsys):
        assert (
            main(["verify", "--trials", "5", "--seed", "1", "--format", "json", "--timing"])
            == EXIT_TRUE
        )
        report = json.loads(capsys.readouterr().out)
        assert report["elapsed_ms"] >= 0

    def test_internal_error_exit(self, capsys, monkeypatch):
        def crashes(m, s):
            raise RuntimeError("checker crashed")

        monkeypatch.setattr("awb.harness.check_structure", crashes)
        assert main(["verify", "--trials", "3", "--seed", "1"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "error: internal error: RuntimeError: checker crashed\n"
        assert "Traceback" not in err


class TestParserReuse:
    def test_main_behaves_as_with_a_fresh_parser(self, m1_file, capsys):
        # One parser serves every call of a process; successive calls with
        # different subcommands, and one that fails argument parsing, give
        # what a parser built for each call gives.
        argvs = [
            ["check", m1_file, "--formula", "p", "--world", "w1"],
            ["translate", "--formula", "X[a] I[a] X[a] (p & q)"],
            ["check", m1_file, "--formula", "I[a] p", "--world", "w2", "--lang", "hms", "-v"],
            ["check", m1_file, "--world", "w1", "--bogus"],
            ["transform", m1_file],
            ["verify", "--trials", "3", "--seed", "1", "--format", "json"],
            ["check", m1_file, "--formula", "A[a] p", "--world", "w1"],
            ["translate"],
            ["check", m1_file, "--formula", "p", "--lang", "hms", "--world", "w2"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [run(argv) for argv in argvs]
        assert _build_parser() is _build_parser()
        fresh = []
        for argv in argvs:
            _build_parser.cache_clear()
            fresh.append(run(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [
            EXIT_TRUE,
            EXIT_TRUE,
            EXIT_FALSE,
            ("exit", 2),
            EXIT_TRUE,
            EXIT_TRUE,
            EXIT_TRUE,
            ("exit", 2),
            EXIT_FALSE,
        ]

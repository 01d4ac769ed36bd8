import json
import os
import stat
import time

import pytest

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


class TestVerify:
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
        assert "AWB_SEED" in capsys.readouterr().err

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

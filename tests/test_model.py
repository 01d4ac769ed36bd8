import json

import pytest

from awb.formula import And, Atom, Aware, Not, parse_ail, parse_prop
from awb.model import (
    EpistemicModel,
    ModelError,
    awareness_classes,
    awareness_variation,
    load_model,
    model_from_dict,
    model_to_dict,
    reach_composed,
    sat_ail,
    sat_implicit_raw,
    validate,
)
from awb.transform import TransformInapplicable, hms_transform
from conftest import label_blocks, members


def blocks_of(blocks):
    return sorted(sorted(b) for b in blocks)


def space_partition(s, vocab) -> set:
    """The classes of one space of a quotient structure, as a set of member
    sets."""
    return {members(s, x) for x in s.states(frozenset(vocab))}


def with_awareness(m: EpistemicModel, agent: str, rows: dict) -> EpistemicModel:
    awareness = {i: dict(m.awareness[i]) for i in m.agents}
    awareness[agent] = {w: sorted(v) for w, v in rows.items()}
    return EpistemicModel(
        m.atoms,
        m.agents,
        m.worlds,
        {p: sorted(m.valuation[p]) for p in m.atoms},
        {i: [sorted(b) for b in m.indist_blocks[i]] for i in m.agents},
        awareness,
    )


class TestConstruction:
    def test_missing_worlds_become_singletons(self):
        m = EpistemicModel(("p",), ("a",), ("w1", "w2", "w3"), indist={"a": [["w1", "w2"]]})
        assert blocks_of(label_blocks(m.indist_labels("a"))) == [["w1", "w2"], ["w3"]]

    def test_missing_valuation_atoms_false_everywhere(self):
        m = EpistemicModel(("p", "q"), ("a",), ("w1",), valuation={"p": ["w1"]})
        assert sat_ail(m, "w1", Atom("p")) and not sat_ail(m, "w1", Atom("q"))

    def test_missing_awareness_defaults_empty(self):
        m = EpistemicModel(("p",), ("a",), ("w1",))
        assert m.awareness_at("a", "w1") == frozenset()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            EpistemicModel(("p", "p"), ("a",), ("w1",))
        with pytest.raises(ModelError, match="duplicate"):
            EpistemicModel(("p",), ("a",), ("w1", "w1"))

    def test_undeclared_references_rejected(self):
        with pytest.raises(ModelError):
            EpistemicModel(("p",), ("a",), ("w1",), valuation={"z": []})
        with pytest.raises(ModelError):
            EpistemicModel(("p",), ("a",), ("w1",), indist={"b": []})


class TestJson:
    def test_round_trip(self, M1):
        assert model_to_dict(model_from_dict(model_to_dict(M1))) == model_to_dict(M1)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ModelError, match="unknown model keys"):
            model_from_dict(
                {"atoms": [], "agents": [], "worlds": ["w"], "extra": 1}
            )

    def test_missing_required_key_rejected(self):
        with pytest.raises(ModelError, match="missing"):
            model_from_dict({"atoms": [], "agents": []})

    def test_bad_shapes_rejected(self):
        with pytest.raises(ModelError):
            model_from_dict({"atoms": "p", "agents": [], "worlds": ["w"]})
        with pytest.raises(ModelError):
            model_from_dict(
                {"atoms": [], "agents": [], "worlds": ["w"], "valuation": []}
            )

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("valuation", {"p": "w1"}, "valuation of atom 'p'"),
            ("valuation", {"p": [["w1"]]}, "valuation of atom 'p'"),
            ("indistinguishability", {"a": "w1"}, "indistinguishability of agent 'a'"),
            ("indistinguishability", {"a": ["w1"]}, "block of agent 'a'"),
            ("indistinguishability", {"a": [[1]]}, "block of agent 'a'"),
            ("awareness", {"a": ["p"]}, "awareness of agent 'a' must map"),
            ("awareness", {"a": {"w1": "p"}}, "awareness of agent 'a' at world 'w1'"),
            ("awareness", {"a": {"w1": [None]}}, "awareness of agent 'a' at world 'w1'"),
        ],
    )
    def test_bad_leaves_rejected(self, section, value, message):
        data = {"atoms": ["p"], "agents": ["a"], "worlds": ["w1"], section: value}
        with pytest.raises(ModelError, match=message):
            model_from_dict(data)

    def test_load_model_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelError, match="invalid JSON"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "text, dupes",
        [
            ('{"atoms": ["p"], "agents": [], "worlds": ["w1"], "atoms": ["q"]}', "['atoms']"),
            ('{"atoms": ["p"], "agents": [], "worlds": ["w1", "w2"],'
             ' "valuation": {"p": ["w1"], "p": ["w2"]}}', "['p']"),
            ('{"atoms": ["p"], "agents": ["a"], "worlds": ["w1"],'
             ' "awareness": {"a": {"w1": ["p"], "w1": []}}}', "['w1']"),
        ],
        ids=["top-level", "valuation", "awareness-row"],
    )
    def test_load_model_refuses_duplicate_keys(self, tmp_path, text, dupes):
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ModelError) as exc:
            load_model(str(path))
        assert str(exc.value) == f"duplicate keys in a JSON object: {dupes}"

    def test_load_model_round_trips_fixture(self, tmp_path, M2):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model_to_dict(M2)), encoding="utf-8")
        assert model_to_dict(load_model(str(path))) == model_to_dict(M2)


class TestValidate:
    def test_fixtures_are_valid(self, M1, M2):
        assert validate(M1) == []
        assert validate(M2) == []

    def test_awareness_invariance_violation(self, M1):
        bad = with_awareness(M1, "a", {"w1": ["p"], "w2": []})
        msgs = validate(bad)
        assert any("awareness differs" in msg and "a" in msg for msg in msgs)

    def test_overlapping_blocks_reported(self):
        m = EpistemicModel(
            ("p",), ("a",), ("w1", "w2"), indist={"a": [["w1", "w2"], ["w1"]]}
        )
        msgs = validate(m)
        assert any("overlap" in msg for msg in msgs)

    def test_violations_are_data_not_exceptions(self, M1):
        bad = with_awareness(M1, "a", {"w1": ["p"], "w2": []})
        assert isinstance(validate(bad), list)


class TestWholeTableIntake:
    """Each fault class that a whole-table test of the intake could miss,
    pinned to its full violation list or error text. The violations of an
    agent are listed in model order: block by block, each block in world
    order, then awareness."""

    @pytest.mark.parametrize(
        "worlds, blocks, aware, violations",
        [
            (2, [["w1", "w9"]], {}, [
                "agent 'b': partition block mentions unknown worlds ['w9']",
            ]),
            (4, [["w1", "w2", "w3"], ["w4", "w3", "w2"]], {}, [
                "agent 'b': partition blocks overlap at world 'w2'",
                "agent 'b': partition blocks overlap at world 'w3'",
            ]),
            (2, [["w1", "w2"], ["w2", "w1"]], {}, [
                "agent 'b': partition blocks overlap at world 'w1'",
                "agent 'b': partition blocks overlap at world 'w2'",
            ]),
            (2, [], {"w1": ["p"], "w2": ["p", "z"]}, [
                "agent 'b': awareness at 'w2' mentions undeclared atoms ['z']",
            ]),
            (2, [], {"w1": ["z"], "w2": ["z"]}, [
                "agent 'b': awareness at 'w1' mentions undeclared atoms ['z']",
                "agent 'b': awareness at 'w2' mentions undeclared atoms ['z']",
            ]),
            (3, [["w3", "w1"]], {"w1": ["p"], "w2": ["p"]}, [
                "agent 'b': awareness differs inside indistinguishability block {w1, w3}",
            ]),
            (2, [["w9", "w1"], ["w2", "w1"]], {"w1": ["p"]}, [
                "agent 'b': partition block mentions unknown worlds ['w9']",
                "agent 'b': partition blocks overlap at world 'w1'",
                "agent 'b': awareness differs inside indistinguishability block {w1, w2}",
            ]),
        ],
        ids=[
            "stray-world", "overlap-at-two-worlds", "identical-block-twice",
            "undeclared-atom-at-one-world", "undeclared-atom-everywhere",
            "awareness-differs-in-block", "three-faults-in-model-order",
        ],
    )
    def test_violations_pinned(self, worlds, blocks, aware, violations):
        # agent a is valid, so agent b's faults are all there is to report
        names = tuple(f"w{k}" for k in range(1, worlds + 1))
        m = EpistemicModel(
            ("p", "q"), ("a", "b"), names, {"p": ["w1"]},
            {"a": [list(names)], "b": blocks},
            {"a": dict.fromkeys(names, ["q"]), "b": aware},
        )
        assert validate(m) == violations

    def test_valid_model_is_not_walked(self, monkeypatch):
        # awareness differs between blocks but not inside one: the model is
        # valid, and the whole-table tests alone must say so
        def walk(*args):
            raise AssertionError("a valid model was walked")

        monkeypatch.setattr("awb.model._agent_violations", walk)
        worlds = ("w1", "w2", "w3", "w4")
        m = EpistemicModel(
            ("p", "q"), ("a",), worlds, {"p": ["w1"]}, {"a": [["w1", "w3"], ["w2"]]},
            {"a": {"w1": ["p"], "w2": ["q"], "w3": ["p"], "w4": ["p", "q"]}},
        )
        assert validate(m) == []

    def test_identical_block_twice_refused_by_the_modal_clause(self):
        m = EpistemicModel(("p",), ("a",), ("w1", "w2"), indist={"a": [["w2", "w1"]] * 2})
        with pytest.raises(ModelError) as exc:
            sat_ail(m, "w1", parse_ail("X[a] I[a] X[a] p"))
        assert str(exc.value) == (
            "agent 'a': partition blocks overlap at world 'w1'; "
            "agent 'a': partition blocks overlap at world 'w2'"
        )

    @pytest.mark.parametrize(
        "sections, message",
        [
            ({"valuation": {"p": "w1"}}, "valuation of atom 'p' must be a list of strings"),
            ({"indistinguishability": {"a": [["w1", 1]]}},
             "each indistinguishability block of agent 'a' must be a list of strings"),
            ({"awareness": {"a": {"w1": [["p"]]}}},
             "awareness of agent 'a' at world 'w1' must be a list of strings"),
            ({"awareness": {"a": ["p"]}}, "awareness of agent 'a' must map worlds to atom lists"),
            ({"worlds": ["w1", None]}, "model key 'worlds' must be a list of strings"),
            # the first fault in file order is named
            ({"valuation": {"p": [1]}, "indistinguishability": "w1"},
             "valuation of atom 'p' must be a list of strings"),
            ({"awareness": {"a": {"w1": 1}}, "indistinguishability": {"a": ["w1"]}},
             "each indistinguishability block of agent 'a' must be a list of strings"),
        ],
        ids=[
            "non-list-leaf", "non-string-leaf", "nested-list", "non-mapping-awareness-row",
            "non-string-world", "valuation-before-blocks", "blocks-before-awareness",
        ],
    )
    def test_model_errors_pinned(self, sections, message):
        data = {"atoms": ["p"], "agents": ["a"], "worlds": ["w1"], **sections}
        with pytest.raises(ModelError) as exc:
            model_from_dict(data)
        assert str(exc.value) == message


class TestPartitionRefusals:
    """A model whose indistinguishability blocks overlap, repeat a block or
    name an unknown world is reported by ``validate`` and refused, with
    that list, by the AIL modal clause and by the transform, never
    answered."""

    @pytest.mark.parametrize(
        "blocks, violations",
        [
            ([["w1", "w2"], ["w2"]], ["agent 'a': partition blocks overlap at world 'w2'"]),
            ([["w1", "w9"]], ["agent 'a': partition block mentions unknown worlds ['w9']"]),
            ([["w1", "w2"], ["w2", "w1"]], [
                "agent 'a': partition blocks overlap at world 'w1'",
                "agent 'a': partition blocks overlap at world 'w2'",
            ]),
        ],
        ids=["overlap", "unknown-world", "block-twice"],
    )
    def test_refused(self, blocks, violations):
        m = EpistemicModel(
            ("p",), ("a",), ("w1", "w2"), {"p": ["w1"]}, {"a": blocks},
            {"a": {"w1": ["p"], "w2": ["p"]}},
        )
        assert validate(m) == violations
        with pytest.raises(ModelError) as exc:
            sat_ail(m, "w1", parse_ail("X[a] I[a] X[a] p"))
        assert str(exc.value) == "; ".join(violations)
        with pytest.raises(TransformInapplicable) as exc:
            hms_transform(m)
        assert exc.value.reasons == ["model fails validation: " + v for v in violations]


class TestPartitions:
    def test_awareness_partition_m1(self, M1):
        assert blocks_of(awareness_classes(M1, "a")) == [["w1"], ["w2"]]

    def test_empty_awareness_collapses(self, M1):
        m = with_awareness(M1, "a", {"w1": [], "w2": []})
        assert blocks_of(awareness_classes(m, "a")) == [["w1", "w2"]]

    def test_awareness_of_shared_atom_collapses(self, M1):
        m = with_awareness(M1, "a", {"w1": ["q"], "w2": ["q"]})
        assert blocks_of(awareness_classes(m, "a")) == [["w1", "w2"]]

    def test_vocab_partition_m1(self, T1):
        assert blocks_of(space_partition(T1, frozenset())) == [["w1", "w2"]]
        assert blocks_of(space_partition(T1, {"p"})) == [["w1"], ["w2"]]
        assert blocks_of(space_partition(T1, {"q"})) == [["w1", "w2"]]

    def test_vocab_partition_rejects_undeclared(self, T1):
        with pytest.raises(ModelError):
            space_partition(T1, {"z"})

    def test_constant_awareness_equals_vocab_partition(self, M1, M2):
        # when awareness is constant with set A, the awareness partition is
        # exactly the partition of the structure's space for A
        for m in (M1, M2):
            s = hms_transform(m)
            for i in m.agents:
                aware = m.awareness[i][m.worlds[0]]
                classes = awareness_classes(m, i)
                assert len(set(classes)) == len(classes)
                assert set(classes) == space_partition(s, aware)

    def test_vocab_monotone_refinement(self, T1):
        fine = space_partition(T1, {"p", "q"})
        for sub in (frozenset(), {"p"}, {"q"}):
            # every fine block sits inside one coarse block
            coarse = space_partition(T1, sub)
            assert all(any(block <= c for c in coarse) for block in fine)


class TestReach:
    def test_m1_golden(self, M1):
        assert reach_composed(M1, "a", "w1") == {"w1", "w2"}

    def test_m2_golden(self, M2):
        # the worlds agree on p (all the agent is aware of), so the
        # awareness step bridges them even though indistinguishability is
        # the identity
        assert reach_composed(M2, "a", "w1") == {"w1", "w2"}

    def test_full_awareness_identity_indist(self):
        m = EpistemicModel(
            ("p",),
            ("a",),
            ("w1", "w2"),
            valuation={"p": ["w1"]},
            indist={"a": [["w1"], ["w2"]]},
            awareness={"a": {"w1": ["p"], "w2": ["p"]}},
        )
        assert reach_composed(m, "a", "w1") == {"w1"}

    def test_reflexive(self, M1, M2):
        for m in (M1, M2):
            for i in m.agents:
                for w in m.worlds:
                    assert w in reach_composed(m, i, w)

    def test_unknown_world_rejected(self, M1):
        with pytest.raises(ModelError):
            reach_composed(M1, "a", "nowhere")


class TestSatisfaction:
    @pytest.mark.parametrize(
        "fixture,world,text,expected",
        [
            ("M1", "w1", "A[a] p", True),
            ("M1", "w1", "A[a] q", False),
            ("M1", "w1", "X[a] I[a] X[a] p", False),
            ("M2", "w1", "X[a] I[a] X[a] q", False),
            ("M1", "w1", "p & q", True),
            ("M1", "w2", "p | q", True),
            ("M1", "w2", "p", False),
        ],
    )
    def test_golden(self, request, fixture, world, text, expected):
        m = request.getfixturevalue(fixture)
        assert sat_ail(m, world, parse_ail(text)) is expected

    def test_prop_matches_truth_table(self, M1):
        f = parse_prop("p <-> q")
        for w in M1.worlds:
            expected = (w in M1.valuation["p"]) == (w in M1.valuation["q"])
            assert sat_ail(M1, w, f) is expected

    def test_bare_implicit_helper(self, M1, M2):
        p = parse_prop("p")
        q = parse_prop("q")
        # M1: the agent cannot distinguish w1/w2 and they differ on p
        assert sat_implicit_raw(M1, "w1", "a", p) is False
        assert sat_implicit_raw(M1, "w1", "a", q) is True
        # M2: identity indistinguishability knows everything true
        assert sat_implicit_raw(M2, "w1", "a", q) is True

    @pytest.mark.parametrize("left", [Atom("p"), Not(Atom("p"))])
    @pytest.mark.parametrize("world", ["w1", "w2"])
    def test_undeclared_agent_refused_at_every_world(self, M1, left, world):
        # the left operand is false at one world of the two, where a
        # short-circuiting "&" would answer without reading the agent
        f = And(left, Aware("zz", Atom("q")))
        with pytest.raises(ModelError) as exc:
            sat_ail(M1, world, f)
        assert str(exc.value) == "unknown agent 'zz'"

    @pytest.mark.parametrize(
        "agent, body, message",
        [("zz", Atom("p"), "unknown agent 'zz'"), ("a", Atom("zz"), "undeclared atoms: ['zz']")],
    )
    def test_bare_implicit_helper_refusals(self, M1, agent, body, message):
        with pytest.raises(ModelError) as exc:
            sat_implicit_raw(M1, "w1", agent, body)
        assert str(exc.value) == message

    def test_composed_box_stronger_than_bare_implicit(self, M1, M2):
        # if the composed operator holds at w, bare implicit knowledge of
        # the body holds at every world sharing w's awareness class
        for m in (M1, M2):
            for i in m.agents:
                for w in m.worlds:
                    for text in ("p", "q", "p & q", "~p"):
                        f = parse_ail(f"X[{i}] I[{i}] X[{i}] ({text})")
                        if sat_ail(m, w, f):
                            block = next(b for b in awareness_classes(m, i) if w in b)
                            assert all(
                                sat_implicit_raw(m, v, i, f.body) for v in block
                            )

    def test_constant_awareness(self, M1):
        assert awareness_variation(M1) is None
        assert awareness_variation(
            with_awareness(M1, "a", {"w1": ["p"], "w2": ["p", "q"]})
        ) == ("a", "w1", "w2")
        assert awareness_variation(EpistemicModel(("p",), ("a",), ("w1",))) is None

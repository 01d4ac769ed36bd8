import json

import pytest

from awb.formula import parse_ail, parse_prop
from awb.model import (
    EpistemicModel,
    ModelError,
    Partition,
    awareness_partition,
    awareness_variation,
    load_model,
    model_from_dict,
    model_to_dict,
    prop_holds,
    reach_composed,
    sat_ail,
    sat_implicit_raw,
    validate,
)
from awb.transform import hms_transform
from conftest import members


def blocks_of(p: Partition):
    return sorted(sorted(b) for b in p.blocks)


def space_partition(s, vocab) -> Partition:
    """The classes of one space of a quotient structure, as a partition of
    its worlds."""
    return Partition.from_blocks((members(s, x) for x in s.states(frozenset(vocab))), s.worlds)


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
        assert blocks_of(m.indist_partition("a")) == [["w1", "w2"], ["w3"]]

    def test_missing_valuation_atoms_false_everywhere(self):
        m = EpistemicModel(("p", "q"), ("a",), ("w1",), valuation={"p": ["w1"]})
        assert m.truth("p", "w1") and not m.truth("q", "w1")

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


class TestPartitions:
    def test_awareness_partition_m1(self, M1):
        assert blocks_of(awareness_partition(M1, "a")) == [["w1"], ["w2"]]

    def test_empty_awareness_collapses(self, M1):
        m = with_awareness(M1, "a", {"w1": [], "w2": []})
        assert blocks_of(awareness_partition(m, "a")) == [["w1", "w2"]]

    def test_awareness_of_shared_atom_collapses(self, M1):
        m = with_awareness(M1, "a", {"w1": ["q"], "w2": ["q"]})
        assert blocks_of(awareness_partition(m, "a")) == [["w1", "w2"]]

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
                assert awareness_partition(m, i).same_blocks(
                    space_partition(s, aware)
                )

    def test_vocab_monotone_refinement(self, T1):
        fine = space_partition(T1, {"p", "q"})
        for sub in (frozenset(), {"p"}, {"q"}):
            assert fine.refines(space_partition(T1, sub))


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
            expected = M1.truth("p", w) == M1.truth("q", w)
            assert prop_holds(M1, w, f) is expected

    def test_bare_implicit_helper(self, M1, M2):
        p = parse_prop("p")
        q = parse_prop("q")
        # M1: the agent cannot distinguish w1/w2 and they differ on p
        assert sat_implicit_raw(M1, "w1", "a", p) is False
        assert sat_implicit_raw(M1, "w1", "a", q) is True
        # M2: identity indistinguishability knows everything true
        assert sat_implicit_raw(M2, "w1", "a", q) is True

    def test_composed_box_stronger_than_bare_implicit(self, M1, M2):
        # if the composed operator holds at w, bare implicit knowledge of
        # the body holds at every world sharing w's awareness class
        for m in (M1, M2):
            for i in m.agents:
                for w in m.worlds:
                    for text in ("p", "q", "p & q", "~p"):
                        f = parse_ail(f"X[{i}] I[{i}] X[{i}] ({text})")
                        if sat_ail(m, w, f):
                            block = awareness_partition(m, i).block_containing(w)
                            assert all(
                                sat_implicit_raw(m, v, i, f.body) for v in block
                            )

    def test_constant_awareness(self, M1):
        assert awareness_variation(M1) is None
        assert awareness_variation(
            with_awareness(M1, "a", {"w1": ["p"], "w2": ["p", "q"]})
        ) == ("a", "w1", "w2")
        assert awareness_variation(EpistemicModel(("p",), ("a",), ("w1",))) is None

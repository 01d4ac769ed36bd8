import json

import pytest

from awb.model import EpistemicModel
from awb.transform import (
    DEFAULT_ATOM_CAP,
    TransformInapplicable,
    dump_transform,
    hms_transform,
    transform_summary,
    transform_to_dict,
)

P = frozenset({"p"})
Q = frozenset({"q"})
PQ = frozenset({"p", "q"})
EMPTY = frozenset()


class TestSpaces:
    def test_t1_shape(self, T1):
        assert T1.vocabs == (EMPTY, P, Q, PQ)
        assert [len(T1.spaces[v]) for v in T1.vocabs] == [1, 2, 1, 2]
        assert T1.state_count() == 6
        assert transform_summary(T1) == "4 spaces, sizes 1/2/1/2"

    def test_t2_shape(self, T2):
        assert [len(T2.spaces[v]) for v in T2.vocabs] == [1, 1, 2, 2]
        assert transform_summary(T2) == "4 spaces, sizes 1/1/2/2"
        # q splits the worlds, so W_q carries two classes
        reps = {x.rep for x in T2.spaces[Q]}
        assert reps == {"w1", "w2"}

    def test_members_partition_worlds(self, T1, T2):
        for s in (T1, T2):
            for vocab in s.vocabs:
                seen = []
                for x in s.spaces[vocab]:
                    seen.extend(s.members[x])
                assert sorted(seen) == sorted(s.worlds)

    def test_single_world_model(self):
        m = EpistemicModel(("p",), ("a",), ("w",), valuation={"p": ["w"]})
        s = hms_transform(m)
        assert [len(s.spaces[v]) for v in s.vocabs] == [1, 1]
        assert transform_summary(s) == "2 spaces, sizes 1/1"

    def test_zero_atoms(self):
        m = EpistemicModel((), ("a",), ("w1", "w2"))
        s = hms_transform(m)
        assert s.vocabs == (EMPTY,)
        assert s.state_count() == 1

    def test_vocab_order_by_size_then_declaration(self):
        m = EpistemicModel(("q", "p"), ("a",), ("w",))
        s = hms_transform(m)
        assert s.vocabs == (EMPTY, Q, P, PQ)


class TestLocateAndProject:
    def test_locate_goldens(self, T1):
        assert T1.locate("w1", P).rep == "w1"
        assert T1.locate("w2", P).rep == "w2"
        assert T1.locate("w2", Q).rep == "w1"  # q true at both worlds
        assert T1.locate("w2", EMPTY).rep == "w1"

    def test_locate_unknown(self, T1):
        with pytest.raises(ValueError, match="unknown world"):
            T1.locate("w9", P)
        with pytest.raises(ValueError, match="undeclared atoms"):
            T1.locate("w1", frozenset({"z"}))

    def test_projection_identity(self, T1, T2):
        for s in (T1, T2):
            for x in s.all_states():
                assert s.project(x, x.vocab) == x

    def test_projection_rep_independent(self, T1, T2):
        # projecting a class gives the class containing *all* its members
        for s in (T1, T2):
            for x in s.all_states():
                for vocab in s.vocabs:
                    if not vocab <= x.vocab:
                        continue
                    y = s.project(x, vocab)
                    for w in s.members[x]:
                        assert s.locate(w, vocab) == y

    def test_projection_chain_coherence(self, T1):
        for x in T1.spaces[PQ]:
            via_p = T1.project(T1.project(x, P), EMPTY)
            via_q = T1.project(T1.project(x, Q), EMPTY)
            assert via_p == via_q == T1.project(x, EMPTY)

    def test_projection_only_downward(self, T1):
        x = T1.locate("w1", P)
        with pytest.raises(ValueError):
            T1.project(x, PQ)


class TestPossibility:
    def test_goldens(self, T1, T2):
        d1, d2 = T1.locate("w1", PQ), T1.locate("w2", PQ)
        assert T1.possibility("a", d1) == frozenset({d1, d2})
        c0 = T1.locate("w1", EMPTY)
        assert T1.possibility("a", c0) == frozenset({c0})
        b1 = T2.locate("w1", Q)
        assert T2.possibility("a", b1) == frozenset({b1})

    def test_reflexive_and_intra_space(self, T1, T2):
        for s in (T1, T2):
            for agent in s.agents:
                for x in s.all_states():
                    poss = s.possibility(agent, x)
                    assert x in poss
                    assert all(y.space_key == x.space_key for y in poss)

    def test_union_projection_of_top_space(self, T1, T2):
        # each space's correspondence is the projection image of the
        # top space's correspondence, unioned over the fiber
        for s in (T1, T2):
            top = max(s.vocabs, key=len)
            for agent in s.agents:
                for vocab in s.vocabs:
                    for x in s.spaces[vocab]:
                        fiber = [
                            z for z in s.spaces[top] if s.project(z, vocab) == x
                        ]
                        expected = frozenset(
                            s.project(y, vocab)
                            for z in fiber
                            for y in s.possibility(agent, z)
                        )
                        assert s.possibility(agent, x) == expected


class TestSubjectiveVocab:
    def test_goldens(self, T1):
        assert T1.subjective_vocab("a", T1.locate("w1", PQ)) == P
        assert T1.subjective_vocab("a", T1.locate("w1", Q)) == EMPTY

    def test_intersection_law(self, T1, T2, M1, M2):
        for s, m in ((T1, M1), (T2, M2)):
            for agent in s.agents:
                for x in s.all_states():
                    aw = m.awareness_at(agent, x.rep)
                    assert s.subjective_vocab(agent, x) == aw & x.vocab


class TestPreconditions:
    def test_non_constant_awareness_rejected(self):
        m = EpistemicModel(
            ("p",),
            ("a",),
            ("w1", "w2"),
            awareness={"a": {"w1": ["p"]}},
        )
        with pytest.raises(TransformInapplicable) as exc:
            hms_transform(m)
        assert (
            "awareness of agent 'a' varies across worlds: "
            "['p'] at 'w1' but [] at 'w2'" in str(exc.value)
        )
        assert exc.value.reasons

    def test_atom_cap(self):
        atoms = tuple(f"x{i}" for i in range(13))
        m = EpistemicModel(atoms, ("a",), ("w",))
        with pytest.raises(TransformInapplicable) as exc:
            hms_transform(m)
        assert "13 atoms" in str(exc.value)
        assert str(DEFAULT_ATOM_CAP) in str(exc.value)

    def test_atom_cap_override(self):
        atoms = tuple(f"x{i}" for i in range(4))
        m = EpistemicModel(atoms, ("a",), ("w",))
        with pytest.raises(TransformInapplicable):
            hms_transform(m, atom_cap=3)
        s = hms_transform(m, atom_cap=4)
        assert len(s.vocabs) == 16

    def test_invalid_model_rejected(self):
        m = EpistemicModel(
            ("p",), ("a",), ("w1", "w2"), indist={"a": [["w1", "w2"], ["w1"]]}
        )
        with pytest.raises(TransformInapplicable):
            hms_transform(m)


class TestDump:
    def test_schema(self, T1):
        d = transform_to_dict(T1)
        assert set(d) == {
            "atoms",
            "agents",
            "worlds",
            "spaces",
            "lambda",
            "alpha",
            "valuation",
        }
        assert set(d["spaces"]) == {"", "p", "q", "p,q"}
        for key, states in d["spaces"].items():
            for st in states:
                assert set(st) == {"rep", "members"}
                assert st["rep"] in st["members"]
        assert "w1@p" in d["lambda"]["a"]
        # alpha values are space ids: sorted comma-joined vocabularies
        assert d["alpha"]["a"]["w1@p,q"] == "p"
        assert d["valuation"]["p"] == ["w1@p", "w1@p,q"]

    def test_dump_deterministic(self, T1, M1):
        from awb.transform import hms_transform as ht

        text1 = dump_transform(T1)
        text2 = dump_transform(ht(M1))
        assert text1 == text2
        assert text1.endswith("\n")
        json.loads(text1)  # well-formed

    def test_dump_round_trip_content(self, T2):
        d = json.loads(dump_transform(T2))
        assert d["worlds"] == ["w1", "w2"]
        # q-space has two classes in the second fixture
        assert len(d["spaces"]["q"]) == 2

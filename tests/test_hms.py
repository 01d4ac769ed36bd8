import random

import pytest

from awb.formula import parse_hms
from awb.hms import (
    Event,
    StateId,
    aware_event,
    event_and,
    event_atom,
    event_not,
    extension,
    implicit_event,
    parse_state_ref,
    sat_hms,
    truth_set,
    vocab_key,
)
from conftest import members

P = frozenset({"p"})
Q = frozenset({"q"})
PQ = frozenset({"p", "q"})
EMPTY = frozenset()


def ids(states):
    return sorted(str(x) for x in states)


@pytest.fixture
def t1_states(T1):
    return {
        "a1": T1.locate("w1", P),
        "a2": T1.locate("w2", P),
        "b1": T1.locate("w1", Q),
        "c0": T1.locate("w1", EMPTY),
        "d1": T1.locate("w1", PQ),
        "d2": T1.locate("w2", PQ),
    }


class TestStateRefs:
    def test_round_trip(self, T1, t1_states):
        for x in t1_states.values():
            assert T1.resolve_state(str(x)) == x

    def test_any_member_accepted(self, T1, t1_states):
        assert T1.resolve_state("w2@") == t1_states["c0"]
        assert T1.resolve_state("w2@q") == t1_states["b1"]

    def test_bad_refs(self, T1):
        with pytest.raises(ValueError):
            parse_state_ref("w1")
        with pytest.raises(ValueError):
            T1.resolve_state("nowhere@p")
        with pytest.raises(ValueError):
            T1.resolve_state("w1@z")


class TestStateId:
    def test_tuple_hash_and_order(self, T2):
        states = list(T2.all_states())
        for x in states:
            assert hash(x) == hash((x.space_key, x.index, x.rep))
        shuffled = states[:]
        random.Random(5).shuffle(shuffled)
        assert sorted(shuffled) == sorted(states, key=lambda x: (x.space_key, x.index, x.rep))

    def test_repr_and_str(self):
        x = StateId("p", 0, "w1")
        assert repr(x) == "StateId(space_key='p', index=0, rep='w1')"
        assert str(x) == "w1@p"
        assert str(StateId("", 0, "w1")) == "w1@"

    def test_vocab_is_its_space(self, T2):
        for vocab in T2.vocabs:
            for x in T2.states(vocab):
                assert x.vocab == vocab

    def test_fields_read_only(self, T1):
        x = T1.locate("w1", PQ)
        for name in ("space_key", "index", "rep", "vocab"):
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))


class TestExtension:
    def test_up_closure_of_singleton(self, T1, t1_states):
        e = Event(P, frozenset({t1_states["a1"]}))
        assert extension(T1, e) == {t1_states["a1"], t1_states["d1"]}

    def test_full_bottom_base_covers_everything(self, T1, t1_states):
        e = Event(EMPTY, frozenset({t1_states["c0"]}))
        assert extension(T1, e) == frozenset(T1.all_states())

    def test_empty_base_empty_extension(self, T1):
        assert extension(T1, Event(P, frozenset())) == frozenset()

    def test_mismatched_event_rejected(self, T1, T2):
        # T2 splits its q-space in two; the second class has no structurally
        # equal counterpart among T1's states
        foreign = T2.locate("w2", Q)
        with pytest.raises(ValueError):
            extension(T1, Event(Q, frozenset({foreign})))


class TestEventAlgebra:
    def test_not_golden(self, T1, t1_states):
        e = Event(P, frozenset({t1_states["a1"]}))
        assert event_not(T1, e) == Event(P, frozenset({t1_states["a2"]}))

    def test_double_negation(self, T1, t1_states):
        e = Event(P, frozenset({t1_states["a1"]}))
        assert event_not(T1, event_not(T1, e)) == e

    def test_not_of_full_bottom(self, T1, t1_states):
        e = Event(EMPTY, frozenset({t1_states["c0"]}))
        assert event_not(T1, e) == Event(EMPTY, frozenset())

    def test_and_golden(self, T1, t1_states):
        e = event_and(T1, event_atom(T1, "p"), event_atom(T1, "q"))
        assert e == Event(PQ, frozenset({t1_states["d1"]}))

    def test_and_idempotent_and_complement(self, T1):
        for p in ("p", "q"):
            e = event_atom(T1, p)
            assert event_and(T1, e, e) == e
            assert event_and(T1, e, event_not(T1, e)).base == frozenset()

    def test_atom_golden(self, T1, t1_states):
        ep = event_atom(T1, "p")
        assert ep == Event(P, frozenset({t1_states["a1"]}))
        assert extension(T1, ep) == {t1_states["a1"], t1_states["d1"]}
        eq = event_atom(T1, "q")
        assert eq == Event(Q, frozenset({t1_states["b1"]}))
        assert extension(T1, eq) == {
            t1_states["b1"],
            t1_states["d1"],
            t1_states["d2"],
        }

    def test_atom_extension_is_stored_valuation(self, T1, T2):
        for s in (T1, T2):
            for p in s.atoms:
                assert extension(s, event_atom(s, p)) == s.val[p]

    def test_atom_false_everywhere(self):
        from awb.model import EpistemicModel
        from awb.transform import hms_transform

        m = EpistemicModel(("p",), ("a",), ("w1",), valuation={"p": []})
        s = hms_transform(m)
        assert event_atom(s, "p") == Event(P, frozenset())

    def test_de_morgan_on_joined_space(self, T1):
        e1, e2 = event_atom(T1, "p"), event_atom(T1, "q")
        neg_and = event_not(T1, event_and(T1, e1, e2))
        joined = frozenset(T1.states(PQ))
        lifted = event_and(T1, e1, e2).base
        assert neg_and.base == joined - lifted


class TestAwareEvent:
    def test_aware_of_p_fills_space(self, T1, t1_states):
        e = aware_event(T1, "a", event_atom(T1, "p"))
        assert e.base == {t1_states["a1"], t1_states["a2"]}
        assert extension(T1, e) == {
            t1_states["a1"],
            t1_states["a2"],
            t1_states["d1"],
            t1_states["d2"],
        }

    def test_aware_of_q_empty(self, T1):
        assert aware_event(T1, "a", event_atom(T1, "q")).base == frozenset()

    def test_empty_vocab_always_aware(self, T1, t1_states):
        e = Event(EMPTY, frozenset({t1_states["c0"]}))
        assert aware_event(T1, "a", e).base == {t1_states["c0"]}


class TestImplicitEvent:
    def test_cell_union_golden_t1(self, T1, t1_states):
        e = Event(P, frozenset({t1_states["a1"]}))
        assert implicit_event(T1, "a", e, "cell-union").base == frozenset()
        assert implicit_event(T1, "a", e, "pointwise").base == frozenset()

    def test_cell_union_golden_t2(self, T2):
        b1 = T2.locate("w1", Q)
        e = Event(Q, frozenset({b1}))
        assert implicit_event(T2, "a", e, "cell-union") == Event(Q, frozenset({b1}))

    def test_full_event_fixed_point(self, T1, T2):
        for s in (T1, T2):
            for vocab in (P, Q, PQ):
                full = Event(vocab, frozenset(s.states(vocab)))
                for agent in s.agents:
                    for variant in ("pointwise", "cell-union"):
                        assert implicit_event(s, agent, full, variant) == full

    def test_pointwise_subset_of_cell_union(self, T1, T2, divergent_model):
        from awb.transform import hms_transform

        structures = [T1, T2, hms_transform(divergent_model)]
        for s in structures:
            for vocab in s.vocabs:
                space = s.states(vocab)
                for k in range(len(space) + 1):
                    base = frozenset(space[:k])
                    e = Event(vocab, base)
                    for agent in s.agents:
                        pw = implicit_event(s, agent, e, "pointwise").base
                        cu = implicit_event(s, agent, e, "cell-union").base
                        assert pw <= cu

    def test_unknown_variant_rejected(self, T1):
        with pytest.raises(ValueError):
            implicit_event(T1, "a", event_atom(T1, "p"), "mystery")

    def test_masks_match_set_reference(self, M1, M2, divergent_model):
        # Both variants, computed on the stored masks, against their
        # definitions on the decoded possibility sets: the fixtures and 200
        # seeded random models, every space and agent, with the empty and
        # full bases and up to eight random ones.
        from awb.harness import TrialConfig, gen_model
        from awb.transform import hms_transform

        rng = random.Random(9090)
        cfg = TrialConfig()
        models = [M1, M2, divergent_model] + [gen_model(rng, cfg) for _ in range(200)]
        for m in models:
            s = hms_transform(m)
            for vocab, row in s.rows.items():
                space = row.states
                bases = [frozenset(), frozenset(space)]
                bases += [frozenset(x for x in space if rng.random() < 0.5) for _ in range(8)]
                for agent in s.agents:
                    cells = {x: s.possibility(agent, x) for x in space}
                    for base in bases:
                        e = Event(vocab, base)
                        pointwise = frozenset(x for x in space if cells[x] <= base)
                        covered = frozenset().union(*(c for c in cells.values() if c <= base))
                        assert implicit_event(s, agent, e, "pointwise") == Event(vocab, pointwise)
                        assert implicit_event(s, agent, e, "cell-union") == Event(vocab, covered)

    def test_variants_diverge_on_nontransitive_lift(self, divergent_model):
        from awb.transform import hms_transform

        s = hms_transform(divergent_model)
        # base: the two p-true classes of the top space
        base = frozenset({s.locate("x", PQ), s.locate("y1", PQ)})
        e = Event(PQ, base)
        pw = implicit_event(s, "a", e, "pointwise").base
        cu = implicit_event(s, "a", e, "cell-union").base
        assert pw < cu
        assert s.locate("y1", PQ) in cu - pw


class TestTruthSets:
    def test_goldens(self, T1, t1_states):
        assert truth_set(T1, parse_hms("I[a] p")).base == frozenset()
        assert truth_set(T1, parse_hms("A[a] p")).base == {
            t1_states["a1"],
            t1_states["a2"],
        }
        assert truth_set(T1, parse_hms("q")) == Event(Q, frozenset({t1_states["b1"]}))

    def test_base_vocab_is_formula_atoms(self, T1):
        from awb.formula import atoms_of

        for text in ("p", "p & q", "~(p | q)", "A[a] (p & p)", "I[a] ~q"):
            f = parse_hms(text)
            assert truth_set(T1, f).vocab == atoms_of(f)

    def test_sat_goldens(self, T1, T2, t1_states):
        assert sat_hms(T1, t1_states["a1"], parse_hms("I[a] p")) is False
        assert sat_hms(T2, T2.locate("w1", Q), parse_hms("I[a] q")) is True
        assert sat_hms(T1, t1_states["d1"], parse_hms("p & q")) is True

    def test_sat_agrees_across_members(self, T1, M1):
        # every member world of a satisfying state satisfies the body in
        # the source model, and conversely (the classes respect valuation)
        from awb.model import prop_holds

        f = parse_hms("p & q")
        for x in T1.states(PQ):
            verdicts = {prop_holds(M1, w, f.body) for w in members(T1, x)}
            assert len(verdicts) == 1
            assert sat_hms(T1, x, f) is verdicts.pop()

    def test_unknown_state_rejected(self, T1, T2):
        foreign = T2.locate("w2", Q)
        with pytest.raises(ValueError):
            sat_hms(T1, foreign, parse_hms("q"))

    def test_vocab_key(self):
        assert vocab_key(EMPTY) == ""
        assert vocab_key({"q", "p"}) == "p,q"


# States that T1 does not have, by kind: a state of T2 (its second
# q-class; T1's q-space has one class), indices past either end of T1's
# p-space, the right (space_key, index) with another world as rep, and a
# rep that is no world at all.
FORGED = {
    "foreign": StateId("q", 1, "w2"),
    "index_past_end": StateId("p", 2, "w1"),
    "negative_index": StateId("p", -1, "w2"),
    "wrong_rep": StateId("p", 0, "w2"),
    "rep_not_a_world": StateId("p", 0, "nowhere"),
}


def refusal(exc_type, call, *args):
    """The message of the ``exc_type`` that ``call(*args)`` raises."""
    with pytest.raises(exc_type) as exc:
        call(*args)
    assert type(exc.value) is exc_type
    return str(exc.value)


class TestForeignStates:
    def test_foreign_is_a_state_of_t2(self, T2):
        assert T2.locate("w2", Q) == FORGED["foreign"]

    @pytest.mark.parametrize("name", FORGED)
    def test_state_lookups_refuse(self, T1, name):
        x = FORGED[name]
        assert refusal(ValueError, sat_hms, T1, x, parse_hms("q")) == f"unknown state {x}"
        assert (
            refusal(ValueError, T1.possibility, "a", x)
            == f"no possibility set for agent 'a' at {x}"
        )
        assert (
            refusal(ValueError, T1.subjective_vocab, "a", x)
            == f"no subjective space for agent 'a' at {x}"
        )
        assert (
            refusal(ValueError, T1.project, x, PQ)
            == f"cannot project {x} to {{p,q}}: not a sub-vocabulary"
        )
        assert (
            refusal(ValueError, extension, T1, Event(x.vocab, frozenset({x})))
            == f"event base contains states outside its space: {x}"
        )

    def test_project_refuses_a_rep_that_is_no_world(self, T1):
        x = FORGED["rep_not_a_world"]
        assert refusal(ValueError, T1.project, x, EMPTY) == "cannot project nowhere@p to {}"

    @pytest.mark.parametrize("name", ["foreign", "index_past_end", "negative_index", "wrong_rep"])
    def test_project_refuses_a_forged_state_with_a_world_as_rep(self, T1, name):
        # the rep is a world of T1, so a lookup by rep alone would answer
        x = FORGED[name]
        assert refusal(ValueError, T1.project, x, EMPTY) == f"cannot project {x} to {{}}"

    def test_unknown_agent_refused(self, T1):
        x = T1.locate("w1", P)
        assert (
            refusal(ValueError, T1.possibility, "b", x)
            == "no possibility set for agent 'b' at w1@p"
        )
        assert (
            refusal(ValueError, T1.subjective_vocab, "b", x)
            == "no subjective space for agent 'b' at w1@p"
        )
        assert (
            refusal(ValueError, sat_hms, T1, x, parse_hms("I[b] p"))
            == "no possibility set for agent 'b' at w1@p"
        )
        assert (
            refusal(ValueError, sat_hms, T1, x, parse_hms("A[b] p"))
            == "no subjective space for agent 'b' at w1@p"
        )

    def test_locate_and_resolve_refuse(self, T1):
        from awb.model import ModelError

        assert refusal(ModelError, T1.locate, "nowhere", P) == "unknown world 'nowhere'"
        assert refusal(ModelError, T1.locate, "w1", {"z"}) == "undeclared atoms: ['z']"
        # a reference names a world and a space, not an index: any member
        # world is accepted in the rep position
        assert T1.resolve_state(str(FORGED["wrong_rep"])) == T1.locate("w2", P)
        assert (
            refusal(ModelError, T1.resolve_state, str(FORGED["rep_not_a_world"]))
            == "unknown world 'nowhere'"
        )
        assert refusal(ModelError, T1.resolve_state, "w1@z") == "undeclared atoms: ['z']"
        assert (
            refusal(ModelError, T1.resolve_state, "w1")
            == "bad state reference 'w1': expected 'world@vocab'"
        )

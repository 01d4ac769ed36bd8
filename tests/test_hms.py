import random

import pytest

from awb.formula import And, Atom, Aware, Not, Prop, parse_hms, translate
from awb.hms import (
    VARIANTS,
    Event,
    StateId,
    aware_event,
    base_states,
    decode_masks,
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
from awb.model import ModelError
from conftest import all_states, base_of, event_on, marked, members, resolve

P = frozenset({"p"})
Q = frozenset({"q"})
PQ = frozenset({"p", "q"})
EMPTY = frozenset()


def ids(states):
    return sorted(str(x) for x in states)


def random_cases(M1, M2, divergent_model, seed, formulas=3):
    """The fixtures and 200 seeded random models, each with its structure
    and a few random translated formulas (propositional, awareness and
    implicit-knowledge forms over all of the model's atoms)."""
    from awb.harness import TrialConfig, gen_formula, gen_model
    from awb.transform import hms_transform

    rng = random.Random(seed)
    cfg = TrialConfig()
    models = [M1, M2, divergent_model] + [gen_model(rng, cfg) for _ in range(200)]
    for m in models:
        s = hms_transform(m)
        for _ in range(formulas):
            yield s, translate(gen_formula(rng, m, rng.choice(m.worlds), False)[0])


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
            assert resolve(T1, str(x)) == x

    def test_any_member_accepted(self, T1, t1_states):
        assert resolve(T1, "w2@") == t1_states["c0"]
        assert resolve(T1, "w2@q") == t1_states["b1"]

    def test_bad_refs(self, T1):
        with pytest.raises(ValueError):
            parse_state_ref("w1")
        with pytest.raises(ValueError):
            resolve(T1, "nowhere@p")
        with pytest.raises(ValueError):
            resolve(T1, "w1@z")

    def test_world_name_holding_at_sign(self):
        # an atom never holds '@', so the reference splits at the last one
        assert parse_state_ref("x@y@p") == ("x@y", P)
        assert parse_state_ref("x@y@") == ("x@y", EMPTY)
        assert parse_state_ref("w1@p,q") == ("w1", PQ)

    def test_vocabulary_read_as_a_set(self):
        assert parse_state_ref("w1@q,p") == ("w1", PQ)
        assert parse_state_ref("w1@p,p") == ("w1", P)
        assert parse_state_ref("w1@") == ("w1", EMPTY)

    @pytest.mark.parametrize("ref", ["w1@p,", "w1@,p", "w1@p,,q", "w1@,"])
    def test_empty_atom_name_refused(self, ref):
        assert (
            refusal(ModelError, parse_state_ref, ref)
            == f"bad state reference {ref!r}: empty atom name in its vocabulary"
        )


class TestStateId:
    def test_tuple_hash_and_order(self, T2):
        states = all_states(T2)
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
        e = event_on(P, {t1_states["a1"]})
        assert extension(T1, e) == {t1_states["a1"], t1_states["d1"]}

    def test_full_bottom_base_covers_everything(self, T1, t1_states):
        e = event_on(EMPTY, {t1_states["c0"]})
        assert extension(T1, e) == frozenset(all_states(T1))

    def test_empty_base_empty_extension(self, T1):
        assert extension(T1, event_on(P, ())) == frozenset()

    def test_mismatched_event_rejected(self, T1, T2):
        # T2 splits its q-space in two; the second class's index is past
        # the end of T1's one-state q-space
        foreign = T2.locate("w2", Q)
        with pytest.raises(ValueError):
            extension(T1, event_on(Q, {foreign}))


class TestEventAlgebra:
    def test_not_golden(self, T1, t1_states):
        e = event_on(P, {t1_states["a1"]})
        assert event_not(T1, e) == event_on(P, {t1_states["a2"]})

    def test_double_negation(self, T1, t1_states):
        e = event_on(P, {t1_states["a1"]})
        assert event_not(T1, event_not(T1, e)) == e

    def test_not_of_full_bottom(self, T1, t1_states):
        e = event_on(EMPTY, {t1_states["c0"]})
        assert event_not(T1, e) == event_on(EMPTY, ())

    def test_and_golden(self, T1, t1_states):
        e = event_and(T1, event_atom(T1, "p"), event_atom(T1, "q"))
        assert e == event_on(PQ, {t1_states["d1"]})

    def test_and_idempotent_and_complement(self, T1):
        for p in ("p", "q"):
            e = event_atom(T1, p)
            assert event_and(T1, e, e) == e
            assert base_of(T1, event_and(T1, e, event_not(T1, e))) == frozenset()

    def test_atom_golden(self, T1, t1_states):
        ep = event_atom(T1, "p")
        assert ep == event_on(P, {t1_states["a1"]})
        assert extension(T1, ep) == {t1_states["a1"], t1_states["d1"]}
        eq = event_atom(T1, "q")
        assert eq == event_on(Q, {t1_states["b1"]})
        assert extension(T1, eq) == {
            t1_states["b1"],
            t1_states["d1"],
            t1_states["d2"],
        }

    def test_atom_extension_is_stored_valuation(self, T1, T2):
        for s in (T1, T2):
            for p in s.atoms:
                assert extension(s, event_atom(s, p)) == marked(s, p)

    def test_atom_false_everywhere(self):
        from awb.model import EpistemicModel
        from awb.transform import hms_transform

        m = EpistemicModel(("p",), ("a",), ("w1",), valuation={"p": []})
        s = hms_transform(m)
        assert event_atom(s, "p") == event_on(P, ())

    def test_de_morgan_on_joined_space(self, T1):
        e1, e2 = event_atom(T1, "p"), event_atom(T1, "q")
        neg_and = event_not(T1, event_and(T1, e1, e2))
        joined = frozenset(T1.states(PQ))
        lifted = base_of(T1, event_and(T1, e1, e2))
        assert base_of(T1, neg_and) == joined - lifted


class TestAwareEvent:
    def test_aware_of_p_fills_space(self, T1, t1_states):
        e = aware_event(T1, "a", event_atom(T1, "p"))
        assert base_of(T1, e) == {t1_states["a1"], t1_states["a2"]}
        assert extension(T1, e) == {
            t1_states["a1"],
            t1_states["a2"],
            t1_states["d1"],
            t1_states["d2"],
        }

    def test_aware_of_q_empty(self, T1):
        assert base_of(T1, aware_event(T1, "a", event_atom(T1, "q"))) == frozenset()

    def test_empty_vocab_always_aware(self, T1, t1_states):
        e = event_on(EMPTY, {t1_states["c0"]})
        assert base_of(T1, aware_event(T1, "a", e)) == {t1_states["c0"]}


class TestImplicitEvent:
    def test_cell_union_golden_t1(self, T1, t1_states):
        e = event_on(P, {t1_states["a1"]})
        assert base_of(T1, implicit_event(T1, "a", e, "cell-union")) == frozenset()
        assert base_of(T1, implicit_event(T1, "a", e, "pointwise")) == frozenset()

    def test_cell_union_golden_t2(self, T2):
        b1 = T2.locate("w1", Q)
        e = event_on(Q, {b1})
        assert implicit_event(T2, "a", e, "cell-union") == event_on(Q, {b1})

    def test_full_event_fixed_point(self, T1, T2):
        for s in (T1, T2):
            for vocab in (P, Q, PQ):
                full = event_on(vocab, s.states(vocab))
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
                    e = event_on(vocab, base)
                    for agent in s.agents:
                        pw = base_of(s, implicit_event(s, agent, e, "pointwise"))
                        cu = base_of(s, implicit_event(s, agent, e, "cell-union"))
                        assert pw <= cu

    def test_unknown_variant_rejected(self, T1):
        with pytest.raises(ValueError):
            implicit_event(T1, "a", event_atom(T1, "p"), "mystery")

    @pytest.mark.parametrize("text", ["p", "~p", "p & q", "A[a] p", "I[a] p"])
    def test_unknown_variant_refused_for_every_shape(self, T1, text):
        f = parse_hms(text)
        x = T1.locate("w1", PQ)
        message = f"unknown variant 'mystery'; expected one of {VARIANTS}"
        for call, args in ((truth_set, (T1, f)), (sat_hms, (T1, x, f))):
            with pytest.raises(ValueError) as exc:
                call(*args, "mystery")
            assert str(exc.value) == message

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
                space = s.states(vocab)
                bases = [frozenset(), frozenset(space)]
                bases += [frozenset(x for x in space if rng.random() < 0.5) for _ in range(8)]
                for agent in s.agents:
                    cells = {x: s.possibility(agent, x) for x in space}
                    for base in bases:
                        e = event_on(vocab, base)
                        pointwise = frozenset(x for x in space if cells[x] <= base)
                        covered = frozenset().union(*(c for c in cells.values() if c <= base))
                        assert implicit_event(s, agent, e, "pointwise") == event_on(vocab, pointwise)
                        assert implicit_event(s, agent, e, "cell-union") == event_on(vocab, covered)

    def test_variants_diverge_on_nontransitive_lift(self, divergent_model):
        from awb.transform import hms_transform

        s = hms_transform(divergent_model)
        # base: the two p-true classes of the top space
        base = frozenset({s.locate("x", PQ), s.locate("y1", PQ)})
        e = event_on(PQ, base)
        pw = base_of(s, implicit_event(s, "a", e, "pointwise"))
        cu = base_of(s, implicit_event(s, "a", e, "cell-union"))
        assert pw < cu
        assert s.locate("y1", PQ) in cu - pw


class TestTruthSets:
    def test_goldens(self, T1, t1_states):
        assert base_of(T1, truth_set(T1, parse_hms("I[a] p"))) == frozenset()
        assert base_of(T1, truth_set(T1, parse_hms("A[a] p"))) == {
            t1_states["a1"],
            t1_states["a2"],
        }
        assert truth_set(T1, parse_hms("q")) == event_on(Q, {t1_states["b1"]})

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
        from awb.model import sat_ail

        f = parse_hms("p & q")
        for x in T1.states(PQ):
            verdicts = {sat_ail(M1, w, f.body) for w in members(T1, x)}
            assert len(verdicts) == 1
            assert sat_hms(T1, x, f) is verdicts.pop()

    def test_sat_at_every_state_of_every_space(self, M1, M2, divergent_model):
        # richer, poorer and incomparable spaces than the formula's own:
        # sat_hms agrees with the extension and with the direct route
        from awb.harness import direct_truth_states

        for s, f in random_cases(M1, M2, divergent_model, 4242):
            for variant in VARIANTS:
                ext = extension(s, truth_set(s, f, variant))
                direct = decode_masks(s, direct_truth_states(s, f, variant))
                for vocab in s.rows:
                    for x in s.states(vocab):
                        value = sat_hms(s, x, f, variant)
                        assert type(value) is bool
                        assert value == (x in ext) == (x in direct), (str(x), f, variant)

    def test_unknown_state_rejected(self, T1, T2):
        foreign = T2.locate("w2", Q)
        with pytest.raises(ValueError):
            sat_hms(T1, foreign, parse_hms("q"))

    def test_vocab_key(self):
        assert vocab_key(EMPTY) == ""
        assert vocab_key({"q", "p"}) == "p,q"


def composed(s, f, variant):
    """The event of ``f`` built from the public operators alone."""
    if isinstance(f, Atom):
        return event_atom(s, f.name)
    if isinstance(f, Not):
        return event_not(s, composed(s, f.child, variant))
    if isinstance(f, And):
        return event_and(s, composed(s, f.left, variant), composed(s, f.right, variant))
    if isinstance(f, Prop):
        return composed(s, f.body, variant)
    if isinstance(f, Aware):
        return aware_event(s, f.agent, composed(s, f.body, variant))
    return implicit_event(s, f.agent, composed(s, f.body, variant), variant)


class TestMaskInterface:
    # T1's p-space has two states, so bit 2 is past its row
    BAD_BASES = {
        "frozenset": lambda s: frozenset(s.states(P)),
        "bool": lambda s: True,
        "float": lambda s: 1.0,
        "negative": lambda s: -1,
        "past_the_row": lambda s: 0b101,
    }

    @pytest.mark.parametrize("name", BAD_BASES)
    def test_check_event_refuses(self, T1, name):
        bad = Event(P, self.BAD_BASES[name](T1))
        good = event_atom(T1, "q")
        calls = [
            (T1.check_event, bad),
            (base_states, T1, bad),
            (extension, T1, bad),
            (event_not, T1, bad),
            (event_and, T1, bad, good),
            (event_and, T1, good, bad),
            (aware_event, T1, "a", bad),
            (implicit_event, T1, "a", bad, "pointwise"),
            (implicit_event, T1, "a", bad, "cell-union"),
        ]
        for call, *args in calls:
            assert refusal(ValueError, call, *args) == "event base is not a state mask of space {p}"

    def test_unknown_space_refused(self, T1):
        bad = Event(frozenset({"zz"}), 0)
        assert refusal(ValueError, event_not, T1, bad) == "event based on unknown space {zz}"

    def test_last_state_accepted(self, T1, t1_states):
        assert base_states(T1, Event(P, 0b10)) == {t1_states["a2"]}

    def test_operators_compose_to_truth_set(self, M1, M2, divergent_model):
        for s, f in random_cases(M1, M2, divergent_model, 5353):
            for variant in VARIANTS:
                e = truth_set(s, f, variant)
                assert type(e.base) is int
                assert composed(s, f, variant) == e, (f, variant)


class TestStoredAtomEvents:
    """A structure keeps each atom's event from its first read, one per
    declared atom and nothing keyed by a formula."""

    def test_undeclared_atom_refused_and_never_stored(self, M1):
        from awb.model import ModelError
        from awb.transform import hms_transform

        s = hms_transform(M1)
        x = s.locate("w1", P)
        for answered in (False, True):
            assert refusal(ModelError, event_atom, s, "z") == "unknown atom 'z'"
            assert refusal(ModelError, truth_set, s, parse_hms("p & z")) == "unknown atom 'z'"
            assert refusal(ModelError, sat_hms, s, x, parse_hms("I[a] ~z")) == "unknown atom 'z'"
            assert set(s.atom_events) == ({"p", "q"} if answered else {"p"})
            for text in ("q", "p & ~q", "A[a] (p & q)"):
                sat_hms(s, x, parse_hms(text))

    def test_at_most_one_event_per_declared_atom(self):
        from awb.harness import TrialConfig, gen_formula, gen_model
        from awb.transform import hms_transform

        rng = random.Random(2525)
        cfg = TrialConfig(max_atoms=4)
        m = gen_model(rng, cfg)
        while len(m.atoms) < 3:
            m = gen_model(rng, cfg)
        s = hms_transform(m)
        seen = set()
        while len(seen) < 50:
            f = translate(gen_formula(rng, m, rng.choice(m.worlds), False)[0])
            seen.add(f)
            for variant in VARIANTS:
                truth_set(s, f, variant)
                assert set(s.atom_events) <= set(m.atoms)
        assert len(s.atom_events) <= len(m.atoms)
        fresh = hms_transform(m)
        for p, (vocab, _, mask) in s.atom_events.items():
            assert Event(vocab, mask) == event_atom(fresh, p)

    def test_reused_structure_answers_as_fresh_and_brute(self, M1, M2, divergent_model):
        # one structure per model answers a seeded run of formulas in both
        # variants, at every state of every space, as a structure built
        # afresh for each formula and as the brute-force oracle
        from awb.formula import atoms_of
        from awb.harness import TrialConfig, gen_formula, gen_model
        from awb.oracles import sat_hms_brute
        from awb.transform import hms_transform

        rng = random.Random(2727)
        cfg = TrialConfig()
        models = [M1, M2, divergent_model] + [gen_model(rng, cfg) for _ in range(40)]
        for m in models:
            s = hms_transform(m)
            for _ in range(6):
                f = translate(gen_formula(rng, m, rng.choice(m.worlds), False)[0])
                vocab = atoms_of(f)
                for variant in VARIANTS:
                    fresh = hms_transform(m)
                    brute = {w: sat_hms_brute(m, w, f, variant) for w in m.worlds}
                    for v in s.rows:
                        for x in s.states(v):
                            value = sat_hms(s, x, f, variant)
                            assert value == sat_hms(fresh, x, f, variant), (str(x), f, variant)
                            assert value == (vocab <= v and brute[x.rep]), (str(x), f, variant)


# States that T1 does not have, by kind: a state of T2 (its second
# q-class; T1's q-space has one class), indices past either end of T1's
# p-space, the right (space_key, index) with another world as rep, a rep
# that is no world at all, and indices that equal the right one but are
# not ints.
FORGED = {
    "foreign": StateId("q", 1, "w2"),
    "index_past_end": StateId("p", 2, "w1"),
    "negative_index": StateId("p", -1, "w2"),
    "wrong_rep": StateId("p", 0, "w2"),
    "rep_not_a_world": StateId("p", 0, "nowhere"),
    "bool_index": StateId("p", True, "w2"),
    "float_index": StateId("p", 1.0, "w2"),
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

    def test_non_int_indices_equal_a_state_of_t1(self, T1):
        real = T1.locate("w2", P)
        assert real.index == 1
        assert FORGED["bool_index"] == real == FORGED["float_index"]

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
            refusal(ValueError, extension, T1, Event(x.vocab, 1 << len(T1.states(x.vocab))))
            == f"event base is not a state mask of space {{{x.space_key}}}"
        )

    def test_project_refuses_a_rep_that_is_no_world(self, T1):
        x = FORGED["rep_not_a_world"]
        assert refusal(ValueError, T1.project, x, EMPTY) == "cannot project nowhere@p to {}"

    @pytest.mark.parametrize(
        "name",
        ["foreign", "index_past_end", "negative_index", "wrong_rep", "bool_index", "float_index"],
    )
    def test_project_refuses_a_forged_state_with_a_world_as_rep(self, T1, name):
        # the rep is a world of T1, so a lookup by rep alone would answer
        x = FORGED[name]
        assert refusal(ValueError, T1.project, x, EMPTY) == f"cannot project {x} to {{}}"

    @pytest.mark.parametrize("world, vocab", [("w1", P), ("w2", P), ("w2", PQ), ("w1", EMPTY)])
    def test_plain_tuple_answers_as_its_state(self, T1, world, vocab):
        x = T1.locate(world, vocab)
        t = tuple(x)
        assert type(t) is tuple and t == x
        assert sat_hms(T1, t, parse_hms("p")) == sat_hms(T1, x, parse_hms("p"))
        assert T1.possibility("a", t) == T1.possibility("a", x)
        assert T1.subjective_vocab("a", t) == T1.subjective_vocab("a", x)
        for sub in (EMPTY, P, Q, PQ):
            if sub <= vocab:
                assert T1.project(t, sub) == T1.project(x, sub)
        if vocab != PQ:
            assert (
                refusal(ValueError, T1.project, t, PQ)
                == f"cannot project {t} to {{p,q}}: not a sub-vocabulary"
            )

    def test_non_string_key_refused(self, T1):
        x = StateId(("p",), 0, "w1")
        assert refusal(ValueError, sat_hms, T1, x, parse_hms("q")) == f"unknown state {x}"
        assert (
            refusal(ValueError, T1.possibility, "a", x)
            == f"no possibility set for agent 'a' at {x}"
        )
        assert (
            refusal(ValueError, T1.subjective_vocab, "a", x)
            == f"no subjective space for agent 'a' at {x}"
        )
        for sub in (EMPTY, P, PQ):
            assert (
                refusal(ValueError, T1.project, x, sub)
                == f"cannot project {x} to {{{vocab_key(sub)}}}"
            )

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
        assert resolve(T1, str(FORGED["wrong_rep"])) == T1.locate("w2", P)
        assert (
            refusal(ModelError, resolve, T1, str(FORGED["rep_not_a_world"]))
            == "unknown world 'nowhere'"
        )
        assert refusal(ModelError, resolve, T1, "w1@z") == "undeclared atoms: ['z']"
        assert (
            refusal(ModelError, resolve, T1, "w1")
            == "bad state reference 'w1': expected 'world@vocab'"
        )
